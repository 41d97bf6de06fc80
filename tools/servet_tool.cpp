// The servet command-line tool: run the suite once at installation time,
// store the profile, and consult it later — the deployment model of
// Section IV-E. `kCommands` at the bottom is the one list of subcommands:
// it drives dispatch, `servet --help` and the parse/exit policy. README.md
// documents the exit codes.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>

#include "autotune/collective_select.hpp"
#include "autotune/kernels/kernels.hpp"
#include "autotune/mapping.hpp"
#include "autotune/search/strategy.hpp"
#include "base/cli.hpp"
#include "base/fault_plan.hpp"
#include "base/fs.hpp"
#include "base/table.hpp"
#include "base/units.hpp"
#include "core/cluster.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "core/measure.hpp"
#include "core/suite.hpp"
#include "core/tlb_detect.hpp"
#include "core/validate.hpp"
#include "exec/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "msg/faulty_network.hpp"
#include "msg/sim_network.hpp"
#include "msg/thread_network.hpp"
#include "platform/decorators.hpp"
#include "platform/native_platform.hpp"
#include "platform/platform_file.hpp"
#include "platform/sim_platform.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/zoo.hpp"
#include "watch/watch.hpp"

using namespace servet;

namespace {

/// An invalid invocation or input: an option the command does not take, a
/// value that does not fit its option's type, or options that contradict
/// each other. Nothing is measured. `--help` exits 0.
constexpr int kExitUsage = 2;

/// `servet profile` wrote a profile, but at least one phase failed and
/// the file's [errors] section lists it. Distinct from 1 (hard failure,
/// nothing usable written) so scripts can keep the partial profile.
constexpr int kExitPartialProfile = 3;

/// `servet profile --resume` refused: the journal under --run-dir was
/// written by a run with different options or on a different machine.
/// An invalid input like every other exit-2 path; distinct from 1
/// (runtime failure) so scripts know to use a fresh --run-dir.
constexpr int kExitIncompatibleJournal = 2;

/// `servet validate` found at least one Error-severity violation (and
/// --repair, if given, could not clear it).
constexpr int kExitInvalidProfile = 2;

/// `servet profile --platform FILE` could not parse the platform file.
/// Same invalid-input family as the other exit-2 paths; the stderr
/// line carries the stable PlatformError code.
constexpr int kExitInvalidPlatform = 2;

/// `servet watch` confirmed drift on at least one metric, or `servet
/// validate --against` did. Distinct from every other code so a cron job
/// or CI step can branch on "this machine's profile went stale"
/// specifically.
constexpr int kExitDrift = 4;

/// The measured result is fine but a requested side export (--trace,
/// --metrics JSON) could not be written. The primary product (profile,
/// summary table) was still produced; partial-profile (3) and
/// invalid-input (2) conditions take precedence.
constexpr int kExitExportFailed = 5;

int int_option(const CliParser& cli, std::string_view name) {
    return static_cast<int>(*cli.option_int(name));
}

struct Target {
    std::unique_ptr<Platform> platform;
    std::unique_ptr<msg::Network> network;
    /// Filled for simulated targets; cluster handling (sampled probe
    /// pairs, topology annotation) keys off spec->topology.enabled().
    std::optional<sim::MachineSpec> spec;
};

Target make_sim_target(const sim::MachineSpec& spec) {
    Target target;
    target.platform = std::make_unique<SimPlatform>(spec);
    if (spec.n_cores > 1) target.network = std::make_unique<msg::SimNetwork>(spec);
    target.spec = spec;
    return target;
}

/// The measurement targets: `--machine` accepts exactly these names and
/// `servet machines` lists them. The host itself comes first, with no
/// `build`; the zoo catalog follows.
using Machine = sim::zoo::Entry;
const std::vector<Machine> kMachines = [] {
    std::vector<Machine> machines{{"native", nullptr, "this host, measured with pinned threads"}};
    const std::span<const Machine> catalog = sim::zoo::catalog();
    machines.insert(machines.end(), catalog.begin(), catalog.end());
    return machines;
}();

void add_machine_option(CliParser& cli, const char* default_machine) {
    std::vector<std::string> names;
    for (const Machine& machine : kMachines) names.emplace_back(machine.name);
    cli.add_choice("machine", "target (see 'servet machines')", default_machine,
                   std::move(names));
}

/// The --machine target; parse() already refused names not in kMachines.
Target make_target(const CliParser& cli) {
    const Machine& machine = *std::find_if(
        std::begin(kMachines), std::end(kMachines),
        [&](const Machine& m) { return cli.option("machine") == m.name; });
    if (machine.build != nullptr) return make_sim_target(machine.build());
    Target target;
    auto platform = std::make_unique<NativePlatform>();
    target.network = std::make_unique<msg::ThreadNetwork>(platform->core_count());
    target.platform = std::move(platform);
    return target;
}

int cmd_machines(const CliParser&) {
    TextTable table({"name", "kind", "cores", "description"});
    for (const Machine& machine : kMachines) {
        const auto spec = machine.build ? std::optional(machine.build()) : std::nullopt;
        table.add_row({machine.name, spec ? "model" : "hardware",
                       spec ? strf("%d", spec->n_cores) : "-", machine.description});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

/// --jobs and --fast, read back by make_suite_options().
void add_suite_options(CliParser& cli) {
    cli.add_int("jobs", "concurrent measurement tasks (modeled machines only)", "1", 1);
    cli.add_flag("fast", "fewer repeats, core-0 pairs only");
}

/// The --fast suite preset; also the rough-shape profile `tune` measures.
void apply_fast_preset(core::SuiteOptions& options) {
    options.mcalibrator.repeats = 2;
    options.shared_cache.only_with_core = 0;
    options.mem_overhead.only_with_core = 0;
}

/// Suite options from --fast and --jobs.
core::SuiteOptions make_suite_options(const CliParser& cli) {
    core::SuiteOptions options;
    if (cli.flag("fast")) apply_fast_preset(options);
    options.jobs = int_option(cli, "jobs");
    return options;
}

/// Cluster runs characterize communication only: the per-node substrate
/// comes from the zoo, and the cache phases would scale with rank count.
/// Skipping cache_size keeps the comm probe at its default message size,
/// and the sampled pair set replaces the O(n^2) full scan. Returns whether
/// `target` is a cluster.
bool restrict_cluster_to_comm(const Target& target, core::SuiteOptions& options) {
    if (!target.spec || !target.spec->topology.enabled()) return false;
    options.run_cache_size = false;
    options.comm.probe_pairs = core::cluster_probe_pairs(*target.spec, options.comm);
    return true;
}

/// The --faults plan (an empty spec is the inactive plan); nullopt after a
/// diagnostic when the spec does not parse.
std::optional<FaultPlan> parse_faults(const CliParser& cli) {
    std::optional<FaultPlan> faults = FaultPlan::parse(cli.option("faults"));
    if (!faults)
        std::fprintf(stderr, "invalid --faults spec '%s'\n", cli.option("faults").c_str());
    return faults;
}

/// The stored profile at `path`; nullopt after a diagnostic.
std::optional<core::Profile> load_profile(const std::string& path) {
    std::string diagnostic;
    std::optional<core::Profile> profile = core::Profile::load(path, &diagnostic);
    if (!profile) std::fprintf(stderr, "%s\n", diagnostic.c_str());
    return profile;
}

std::string fmt_value(double v) {
    if (std::isnan(v)) return "absent";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/// One drift verdict row, shared by `watch` and `validate --against`.
void print_verdict(const char* indent, const watch::MetricVerdict& v) {
    std::printf("%s%-15s %-32s baseline %-12s current %-12s score %s\n", indent,
                watch::verdict_code(v.verdict), v.metric.c_str(),
                fmt_value(v.baseline).c_str(), fmt_value(v.value).c_str(),
                std::isnan(v.score) ? "-" : fmt_value(v.score).c_str());
}

/// Registers the options shared by every command that *measures* —
/// `profile` and `validate --repair`. The repair path must rebuild the
/// same platform/decorator stack and the same suite options as the run
/// that wrote the journal, or the journal's compatibility check (options
/// hash, substrate fingerprint) will refuse it.
void add_measurement_options(CliParser& cli) {
    add_machine_option(cli, "native");
    cli.add_int("robust", "median-of-N outlier rejection (1 = off)", "1", 1);
    cli.add_int("robust-max", "adaptive sampling cap (> --robust enables convergence-"
                "driven sampling)", "0", 0);
    cli.add_option("faults", "inject faults: spike=P,factor=F,nan=P,throw=P,hang=P,"
                   "drop=P,delay=P,seed=N (testing)", "");
    add_suite_options(cli);
}

/// The measurement substrate a run drives: the raw target plus the
/// decorators the flags asked for, with `platform`/`network` pointing at
/// the top of each stack.
struct MeasureStack {
    Target target;
    std::unique_ptr<FlakyPlatform> flaky;
    std::unique_ptr<msg::FaultyNetwork> faulty_net;
    std::unique_ptr<RobustPlatform> robust;
    Platform* platform = nullptr;
    msg::Network* network = nullptr;
};

/// Nullopt (after a diagnostic) when --faults does not parse.
std::optional<MeasureStack> make_measure_stack(const CliParser& cli,
                                               std::optional<Target> target_override = {}) {
    const std::optional<FaultPlan> faults = parse_faults(cli);
    if (!faults) return std::nullopt;
    MeasureStack stack;
    stack.target = target_override ? std::move(*target_override) : make_target(cli);
    stack.platform = stack.target.platform.get();
    stack.network = stack.target.network.get();

    // Fault injection wraps the raw substrates first, so robust sampling
    // sees (and has to survive) the injected faults — the composition a
    // real noisy machine presents.
    if (faults->any_platform_faults()) {
        stack.flaky = std::make_unique<FlakyPlatform>(*stack.platform, *faults);
        stack.platform = stack.flaky.get();
    }
    if (stack.network != nullptr && faults->any_network_faults()) {
        stack.faulty_net = std::make_unique<msg::FaultyNetwork>(*stack.network, *faults);
        stack.network = stack.faulty_net.get();
    }

    const int samples = int_option(cli, "robust");
    const int samples_max = int_option(cli, "robust-max");
    if (samples_max > samples) {
        RobustOptions robust_options;
        robust_options.min_samples = samples;
        robust_options.max_samples = samples_max;
        stack.robust = std::make_unique<RobustPlatform>(*stack.platform, robust_options);
        stack.platform = stack.robust.get();
    } else if (samples > 1) {
        stack.robust = std::make_unique<RobustPlatform>(*stack.platform, samples);
        stack.platform = stack.robust.get();
    }
    return stack;
}

void profile_options(CliParser& cli) {
    add_measurement_options(cli);
    cli.add_option("platform", "cluster platform file describing a simulated machine "
                   "(overrides --machine; see docs/cluster-sim.md)", "");
    cli.add_option("out", "profile file to write", "servet.profile");
    cli.add_number("task-deadline", "per-measurement-task deadline in seconds (0 = off)", "0",
                   0);
    cli.add_option("memo", "measurement memo file reused across invocations", "");
    cli.add_option("run-dir", "run directory holding the crash-safe phase journal", "");
    cli.add_option("trace", "write a Chrome trace_event JSON of the run", "");
    cli.add_option("metrics", "write the metrics registry as JSON", "");
    cli.add_flag("resume", "replay completed phases from the --run-dir journal and "
                 "re-measure only the rest");
    cli.add_flag("no-timing", "omit the [timing] section (wall clock never repeats; "
                 "resumed and uninterrupted runs then diff byte-identical)");
    cli.add_flag("profile-counters", "embed deterministic counters in the profile");
}

int cmd_profile(const CliParser& cli) {
    if (cli.flag("resume") && cli.option("run-dir").empty()) {
        std::fprintf(stderr, "--resume requires --run-dir (the journal to resume from)\n");
        return kExitUsage;
    }
    std::optional<Target> platform_target;
    if (!cli.option("platform").empty()) {
        PlatformError error;
        const auto spec = load_platform(cli.option("platform"), &error);
        if (!spec) {
            std::fprintf(stderr, "platform error [%s]: %s\n", error.code.c_str(),
                         error.message.c_str());
            return kExitInvalidPlatform;
        }
        platform_target = make_sim_target(*spec);
    }
    std::optional<MeasureStack> stack = make_measure_stack(cli, std::move(platform_target));
    if (!stack) return kExitUsage;

    core::SuiteOptions options = make_suite_options(cli);
    const bool is_cluster = restrict_cluster_to_comm(stack->target, options);
    options.memo_path = cli.option("memo");
    options.run_dir = cli.option("run-dir");
    options.resume = cli.flag("resume");
    options.profile_counters = cli.flag("profile-counters");
    options.task_deadline = *cli.option_double("task-deadline");

    // Output paths may name directories that do not exist yet; creating
    // them here beats a suite run that measures for an hour and then
    // cannot write its product.
    for (const char* opt : {"out", "memo", "trace", "metrics"}) {
        const std::string& path = cli.option(opt);
        if (!path.empty() && !create_parent_dirs(path)) {
            std::fprintf(stderr, "cannot create parent directory of %s\n", path.c_str());
            return 1;
        }
    }

    if (!cli.option("trace").empty()) obs::tracer().set_enabled(true);
    core::SuiteResult result;
    try {
        result = core::run_suite(*stack->platform, stack->network, options);
    } catch (const core::JournalError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return kExitIncompatibleJournal;
    }
    if (result.journal_replayed > 0)
        std::printf("journal: %llu phase(s) replayed, %llu re-measured\n",
                    static_cast<unsigned long long>(result.journal_replayed),
                    static_cast<unsigned long long>(result.journal_appended));
    // Export failures must not abort before the profile lands: the
    // measurement (possibly hours of it) is the product, the exports are
    // side channels. Remember the failure and report it in the exit code
    // once the profile is safely on disk.
    bool export_failed = false;
    if (!cli.option("trace").empty()) {
        obs::tracer().set_enabled(false);
        if (!obs::tracer().write_chrome_trace(cli.option("trace"))) {
            std::fprintf(stderr, "cannot write %s\n", cli.option("trace").c_str());
            export_failed = true;
        } else {
            std::printf("trace written to %s\n", cli.option("trace").c_str());
        }
    }
    if (!cli.option("metrics").empty()) {
        if (!obs::write_metrics_json(cli.option("metrics"))) {
            std::fprintf(stderr, "cannot write %s\n", cli.option("metrics").c_str());
            export_failed = true;
        } else {
            std::printf("metrics written to %s\n", cli.option("metrics").c_str());
        }
    }
    if (result.memo_hits > 0)
        std::printf("memo: %llu of %llu measurements replayed\n",
                    static_cast<unsigned long long>(result.memo_hits),
                    static_cast<unsigned long long>(result.memo_hits + result.memo_misses));
    core::Profile profile = result.to_profile(
        stack->platform->name(), stack->platform->core_count(), stack->platform->page_size());
    if (is_cluster) core::annotate_cluster_profile(&profile, *stack->target.spec);
    if (cli.flag("no-timing")) profile.phase_seconds.clear();

    const std::string& path = cli.option("out");
    if (!profile.save(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("profile of %s written to %s (%zu cache levels, %zu memory tiers, "
                "%zu comm layers)\n",
                profile.machine.c_str(), path.c_str(), profile.caches.size(),
                profile.memory.tiers.size(), profile.comm.size());
    if (result.partial()) {
        for (const core::PhaseError& error : result.errors)
            std::fprintf(stderr, "phase %s failed: %s\n", error.phase.c_str(),
                         error.message.c_str());
        std::fprintf(stderr, "%zu phase(s) failed; the profile is partial (see its "
                     "[errors] section)\n", result.errors.size());
        return kExitPartialProfile;
    }
    return export_failed ? kExitExportFailed : 0;
}

void report_options(CliParser& cli) {
    cli.add_option("profile", "profile file to read", "servet.profile");
    cli.add_flag("markdown", "emit the full markdown report");
    cli.add_flag("dot", "emit a Graphviz topology graph of the measured sharing groups");
    cli.add_flag("json", "emit the profile as JSON for external tooling");
}

int cmd_report(const CliParser& cli) {
    const auto profile = load_profile(cli.option("profile"));
    if (!profile) return 1;
    if (cli.flag("markdown")) {
        std::printf("%s", core::render_markdown(*profile).c_str());
        return 0;
    }
    if (cli.flag("dot")) {
        std::printf("%s", core::render_dot(*profile).c_str());
        return 0;
    }
    if (cli.flag("json")) {
        std::printf("%s", profile->to_json().c_str());
        return 0;
    }
    std::printf("machine %s: %d cores, %s pages\n\n", profile->machine.c_str(),
                profile->cores, format_bytes(profile->page_size).c_str());

    TextTable caches({"level", "size", "method", "sharing"});
    for (std::size_t i = 0; i < profile->caches.size(); ++i) {
        const auto& cache = profile->caches[i];
        std::string sharing = cache.groups.empty() ? "private" : "";
        for (const auto& group : cache.groups) {
            sharing += "{";
            for (std::size_t j = 0; j < group.size(); ++j) {
                if (j) sharing += ",";
                sharing += std::to_string(group[j]);
            }
            sharing += "} ";
        }
        caches.add_row({strf("L%zu", i + 1), format_bytes(cache.size), cache.method,
                        sharing});
    }
    std::printf("%s\n", caches.render().c_str());

    std::printf("memory reference bandwidth: %s\n",
                format_bandwidth(profile->memory.reference_bandwidth).c_str());
    for (std::size_t t = 0; t < profile->memory.tiers.size(); ++t) {
        const auto& tier = profile->memory.tiers[t];
        std::printf("  tier %zu: %s per colliding core, %zu groups\n", t,
                    format_bandwidth(tier.bandwidth).c_str(), tier.groups.size());
    }
    std::printf("\ncommunication layers:\n");
    for (std::size_t l = 0; l < profile->comm.size(); ++l) {
        const auto& layer = profile->comm[l];
        std::printf("  layer %zu: %s at probe size, %zu pairs, %zu-point p2p curve\n", l,
                    format_latency(layer.latency).c_str(), layer.pairs.size(),
                    layer.p2p.size());
    }
    if (profile->topology.enabled()) {
        std::string dims;
        for (std::size_t d = 0; d < profile->topology.dims.size(); ++d) {
            if (d) dims += "x";
            dims += std::to_string(profile->topology.dims[d]);
        }
        std::printf("\ncluster topology: %s%s%s, %d core(s) per node\n",
                    profile->topology.kind.c_str(), dims.empty() ? "" : " ", dims.c_str(),
                    profile->topology.cores_per_node);
        for (const auto& tier : profile->comm_tiers)
            std::printf("  route class tier %d (%s), %d hops -> comm layer %d\n", tier.tier,
                        tier.name.c_str(), tier.hops, tier.layer);
    }
    if (!profile->phase_seconds.empty()) {
        std::printf("\nsuite phase timings:\n");
        for (const auto& [phase, seconds] : profile->phase_seconds)
            std::printf("  %-16s %.1f s\n", phase.c_str(), seconds);
    }
    return 0;
}

void tlb_options(CliParser& cli) {
    add_machine_option(cli, "native");
    cli.add_bytes("l1", "known L1 size bounding the probe", "16KB");
}

int cmd_tlb(const CliParser& cli) {
    const Target target = make_target(cli);
    core::TlbDetectOptions options;
    options.l1_size = static_cast<Bytes>(*cli.option_int("l1"));
    const auto estimate = core::detect_tlb(*target.platform, options);
    if (!estimate) {
        std::printf("no TLB cost step detected within the probe range "
                    "(absent, cheap, or reach beyond L1-bounded probe)\n");
        return 0;
    }
    std::printf("data TLB: %d entries, ~%.1f-cycle walk, reach %s\n", estimate->entries,
                estimate->miss_cycles, format_bytes(estimate->reach_bytes).c_str());
    return 0;
}

void price_options(CliParser& cli) {
    cli.add_option("profile", "profile file to read", "servet.profile");
    cli.add_int("from", "source core", "0", 0);
    cli.add_int("to", "destination core", "1", 0);
    cli.add_bytes("size", "message size", "32KB");
}

int cmd_price(const CliParser& cli) {
    const auto profile = load_profile(cli.option("profile"));
    if (!profile) return 1;
    const CorePair pair{int_option(cli, "from"), int_option(cli, "to")};
    const auto size = static_cast<Bytes>(*cli.option_int("size"));
    const auto latency = profile->comm_latency(pair, size);
    if (!latency) {
        std::fprintf(stderr, "pair (%d,%d) is not characterized in this profile\n", pair.a,
                     pair.b);
        return 1;
    }
    std::printf("(%d,%d) %s one-way: %s (layer %d)\n", pair.a, pair.b,
                format_bytes(size).c_str(), format_latency(*latency).c_str(),
                profile->comm_layer_of(pair));
    return 0;
}

void map_options(CliParser& cli) {
    cli.add_option("profile", "profile file to read", "servet.profile");
    cli.add_choice("app", "pattern: stencil | ring | alltoall | random", "stencil",
                   {"stencil", "ring", "alltoall", "random"});
    cli.add_int("ranks", "number of ranks", "8", 2);
    cli.add_bytes("message", "message size pricing the edges", "32KB");
}

int cmd_map(const CliParser& cli) {
    const auto profile = load_profile(cli.option("profile"));
    if (!profile) return 1;
    const int ranks = int_option(cli, "ranks");
    if (ranks > profile->cores) {
        std::fprintf(stderr, "ranks must be in [2, %d]\n", profile->cores);
        return kExitUsage;
    }
    autotune::CommGraph graph;
    const std::string& app = cli.option("app");
    if (app == "ring") {
        graph = autotune::CommGraph::ring(ranks);
    } else if (app == "alltoall") {
        graph = autotune::CommGraph::all_to_all(ranks);
    } else if (app == "random") {
        graph = autotune::CommGraph::random_sparse(ranks, 3, 0x5eed);
    } else {
        int rows = 1;
        for (int r = 1; r * r <= ranks; ++r)
            if (ranks % r == 0) rows = r;
        graph = autotune::CommGraph::stencil2d(rows, ranks / rows);
    }

    autotune::MappingOptions options;
    options.message_size = static_cast<Bytes>(*cli.option_int("message"));
    const autotune::MappingResult result =
        autotune::map_processes(*profile, graph, options);
    std::printf("# rank -> core (objective %.3e, greedy seed %.3e)\n", result.cost,
                result.greedy_cost);
    for (int r = 0; r < ranks; ++r)
        std::printf("%d %d\n", r, result.core_of_rank[static_cast<std::size_t>(r)]);
    return 0;
}

void broadcast_options(CliParser& cli) {
    cli.add_option("profile", "profile file to read", "servet.profile");
    cli.add_bytes("size", "payload size", "64KB");
    cli.add_int("root", "root core", "0", 0);
}

int cmd_broadcast(const CliParser& cli) {
    const auto profile = load_profile(cli.option("profile"));
    if (!profile) return 1;
    if (profile->cores < 2 || profile->comm.empty()) {
        std::fprintf(stderr, "profile carries no communication characterization\n");
        return 1;
    }
    std::vector<CoreId> cores;
    for (CoreId c = 0; c < profile->cores; ++c) cores.push_back(c);
    const auto size = static_cast<Bytes>(*cli.option_int("size"));
    const CoreId root = int_option(cli, "root");

    const auto choice = autotune::choose_broadcast(*profile, root, cores, size);
    std::printf("broadcast of %s from core %d over %d cores:\n",
                format_bytes(size).c_str(), root, profile->cores);
    for (const auto& [name, cost] : choice.candidates)
        std::printf("  %-18s %s%s\n", name.c_str(), format_latency(cost).c_str(),
                    name == choice.schedule.algorithm ? "   <- selected" : "");
    return 0;
}

void metrics_options(CliParser& cli) {
    add_machine_option(cli, "dunnington");
    add_suite_options(cli);
    cli.add_option("out", "also write the registry as JSON to this file", "");
    cli.add_flag("stable-only", "restrict the table and the JSON export to Stable-class "
                 "metrics (diffable across runs)");
}

int cmd_metrics(const CliParser& cli) {
    const Target target = make_target(cli);
    (void)core::run_suite(*target.platform, target.network.get(), make_suite_options(cli));

    const bool stable_only = cli.flag("stable-only");
    TextTable table({"metric", "kind", "stability", "value"});
    for (const std::vector<std::string>& row : obs::registry().summary_rows()) {
        if (stable_only && row[2] != "stable") continue;
        table.add_row(row);
    }
    std::printf("%s", table.render().c_str());

    if (!cli.option("out").empty()) {
        if (!obs::write_metrics_json(cli.option("out"), stable_only)) {
            std::fprintf(stderr, "cannot write %s\n", cli.option("out").c_str());
            return kExitExportFailed;
        }
        std::printf("metrics written to %s\n", cli.option("out").c_str());
    }
    return 0;
}

// --daemon's signal handlers only flip this flag; the watch loop polls
// it between ticks, so the in-flight tick always commits before exit.
std::atomic<bool> g_watch_stop{false};

extern "C" void watch_signal_handler(int) {
    g_watch_stop.store(true, std::memory_order_relaxed);
}

void watch_options(CliParser& cli) {
    add_machine_option(cli, "native");
    add_suite_options(cli);
    cli.add_option("run-dir", "directory holding the series journal (required; an "
                   "existing compatible series resumes and seeds the baselines)", "");
    cli.add_int("ticks", "new samples to measure in this invocation (0 = replay "
                "and re-judge the existing series without measuring)", "1", 0);
    cli.add_number("interval", "seconds to sleep between ticks (0 = back-to-back)", "0", 0);
    cli.add_int("perturb-tick", "inject the --faults plan from this global tick on "
                "(-1 = never; deterministic drift for tests and CI)", "-1", -1);
    cli.add_option("faults", "fault plan driving the perturbation: spike=P,factor=F,"
                   "delay=P,delay_factor=F,seed=N (see docs/robustness.md)", "");
    cli.add_option("series-json", "append one fingerprint-tagged JSON line of stable "
                   "metrics per tick to this file (fleet-aggregator feed)", "");
    cli.add_int("push-port", "publish every committed tick to the 'servet serve' "
                "store listening on this port (0 = no publication; samples spool "
                "under <run-dir>/spool while the server is unreachable and drain "
                "in tick order once it answers again)", "0", 0, 65535);
    cli.add_option("push-host", "profile-service address for --push-port", "127.0.0.1");
    cli.add_option("push-token", "shared-secret token for the push PUTs", "");
    cli.add_number("push-timeout", "per-socket-operation timeout for push PUTs, "
                   "seconds", "5", 0, CliParser::Bound::Exclusive);
    cli.add_int("push-retries", "attempts per push PUT (capped exponential "
                "backoff, deterministic jitter)", "3", 1, 100);
    cli.add_int("push-seed", "backoff-jitter seed for push retries", "23741");
    cli.add_flag("daemon", "run until SIGTERM/SIGINT: the signal finishes the "
                 "in-flight tick, commits and fsyncs its sample, and exits 0 with a "
                 "resumable journal (pair with a large --ticks budget)");
    cli.add_flag("full", "re-measure every suite phase per tick instead of the fast "
                 "subset (cache sizes + comm costs)");
}

int cmd_watch(const CliParser& cli) {
    if (cli.option("run-dir").empty()) {
        std::fprintf(stderr, "--run-dir is required (the series journal lives there)\n");
        return kExitUsage;
    }
    const std::optional<FaultPlan> faults = parse_faults(cli);
    if (!faults) return kExitUsage;
    if (int_option(cli, "perturb-tick") >= 0 && !faults->active()) {
        std::fprintf(stderr, "--perturb-tick needs an active --faults plan\n");
        return kExitUsage;
    }
    const Target target = make_target(cli);

    watch::WatchOptions options;
    options.run_dir = cli.option("run-dir");
    options.suite = make_suite_options(cli);
    // The designated fast subset: the mcalibrator curve + cache sizes
    // (cycle-level drift) and the comm probe (latency drift). The
    // multi-core contention phases are the expensive ones and move with
    // the same underlying parameters — --full buys them back. Cluster
    // watch mirrors cluster profile: comm-only, sampled pairs.
    const bool is_cluster = restrict_cluster_to_comm(target, options.suite);
    if (!cli.flag("full") || is_cluster) {
        options.suite.run_shared_cache = false;
        options.suite.run_mem_overhead = false;
    }
    options.ticks = int_option(cli, "ticks");
    options.interval_seconds = *cli.option_double("interval");
    options.perturb_tick = int_option(cli, "perturb-tick");
    options.perturb = *faults;
    options.series_json = cli.option("series-json");

    options.push.port = int_option(cli, "push-port");
    options.push.host = cli.option("push-host");
    options.push.token = cli.option("push-token");
    options.push.timeout_seconds = *cli.option_double("push-timeout");
    options.push.deadline_seconds = options.push.timeout_seconds * 6;
    options.push.attempts = int_option(cli, "push-retries");
    options.push.seed = static_cast<std::uint64_t>(*cli.option_int("push-seed"));

    if (cli.flag("daemon")) {
        options.stop = &g_watch_stop;
        struct sigaction action = {};
        action.sa_handler = watch_signal_handler;
        ::sigaction(SIGTERM, &action, nullptr);
        ::sigaction(SIGINT, &action, nullptr);
    }

    watch::WatchResult result;
    try {
        result = watch::run_watch(*target.platform, target.network.get(), options);
    } catch (const core::JournalError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return kExitIncompatibleJournal;
    }

    for (const watch::TickReport& report : result.reports) {
        watch::Verdict tick_worst = watch::Verdict::None;
        for (const watch::MetricVerdict& v : report.verdicts)
            tick_worst = watch::worse(tick_worst, v.verdict);
        std::printf("tick %zu%s: %s (%zu metrics)\n", report.tick,
                    report.replayed ? " (replayed)" : "",
                    watch::verdict_code(tick_worst), report.verdicts.size());
        for (const watch::MetricVerdict& v : report.verdicts)
            if (v.verdict != watch::Verdict::None) print_verdict("  ", v);
    }
    std::printf("watch: %zu tick(s) measured, %zu replayed, worst verdict %s%s\n",
                result.measured, result.replayed, watch::verdict_code(result.worst),
                result.stopped ? " (stopped by signal)" : "");
    if (options.push.port != 0)
        std::printf("watch: %zu sample(s) pushed, %zu still spooled\n",
                    result.pushed, result.spooled);
    return result.worst == watch::Verdict::Confirmed ? kExitDrift : 0;
}

void validate_options(CliParser& cli) {
    add_measurement_options(cli);
    cli.add_option("profile", "profile file to check", "servet.profile");
    cli.add_option("run-dir", "run directory holding the producing run's journal "
                   "(needed by --repair)", "");
    cli.add_option("against", "baseline profile to diff --profile against: every "
                   "metric is judged with the drift detector's stable codes "
                   "(drift.none/.suspect/.confirmed); confirmed drift exits 4", "");
    cli.add_flag("repair", "re-measure exactly the implicated phases via the --run-dir "
                 "journal and rewrite the profile (pass the same measurement flags as "
                 "the producing run)");
    cli.add_flag("no-timing", "omit the [timing] section from the repaired profile");
}

int cmd_validate(const CliParser& cli) {
    if (!cli.option("against").empty() && cli.flag("repair")) {
        std::fprintf(stderr, "--against and --repair are mutually exclusive (diff "
                     "first, then repair in a separate invocation)\n");
        return kExitUsage;
    }
    const std::string& path = cli.option("profile");
    const std::optional<core::Profile> profile = load_profile(path);
    if (!profile) return 1;

    const auto print_report = [](const core::ValidationReport& report) {
        for (const core::Violation& v : report.violations) {
            if (v.phase.empty())
                std::printf("%-7s %-26s %s\n", core::to_string(v.severity), v.code.c_str(),
                            v.message.c_str());
            else
                std::printf("%-7s %-26s [%s] %s\n", core::to_string(v.severity),
                            v.code.c_str(), v.phase.c_str(), v.message.c_str());
        }
    };

    const core::ValidationReport report = core::validate_profile(*profile);
    print_report(report);

    if (!cli.option("against").empty()) {
        const std::string& baseline_path = cli.option("against");
        const std::optional<core::Profile> baseline = load_profile(baseline_path);
        if (!baseline) return 1;
        if (baseline->machine != profile->machine)
            std::fprintf(stderr, "warning: diffing profiles of different machines "
                         "('%s' vs '%s'); every shift below may just be the hardware\n",
                         baseline->machine.c_str(), profile->machine.c_str());

        watch::Verdict worst = watch::Verdict::None;
        for (const watch::MetricVerdict& v :
             watch::diff_profiles(*baseline, *profile, watch::DriftOptions{})) {
            worst = watch::worse(worst, v.verdict);
            print_verdict("", v);
        }
        std::printf("diff against %s: %s\n", baseline_path.c_str(),
                    watch::verdict_code(worst));
        if (report.has_errors()) {
            std::fprintf(stderr, "%s: profile also violates physical invariants (see "
                         "above)\n", path.c_str());
            return kExitInvalidProfile;
        }
        return worst == watch::Verdict::Confirmed ? kExitDrift : 0;
    }

    if (!report.has_errors()) {
        std::printf("%s: profile of %s passes validation (%zu warning(s))\n", path.c_str(),
                    profile->machine.c_str(), report.violations.size());
        return 0;
    }
    if (!cli.flag("repair")) {
        std::fprintf(stderr, "%s: profile violates physical invariants; re-measure the "
                     "implicated phase(s) or rerun with --repair --run-dir\n",
                     path.c_str());
        return kExitInvalidProfile;
    }

    if (cli.option("run-dir").empty()) {
        std::fprintf(stderr, "--repair requires --run-dir (the producing run's journal "
                     "locates the phases to re-measure)\n");
        return kExitUsage;
    }
    std::optional<MeasureStack> stack = make_measure_stack(cli);
    if (!stack) return kExitUsage;
    core::SuiteOptions options = make_suite_options(cli);
    options.run_dir = cli.option("run-dir");
    options.resume = true;
    options.remeasure = report.implicated_phases();

    std::string phases;
    for (const std::string& phase : options.remeasure)
        phases += (phases.empty() ? "" : ", ") + phase;
    std::printf("repair: re-measuring %s\n", phases.c_str());

    core::SuiteResult result;
    try {
        result = core::run_suite(*stack->platform, stack->network, options);
    } catch (const core::JournalError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return kExitIncompatibleJournal;
    }
    core::Profile repaired = result.to_profile(stack->platform->name(),
                                               stack->platform->core_count(),
                                               stack->platform->page_size());
    if (cli.flag("no-timing")) repaired.phase_seconds.clear();

    const core::ValidationReport after = core::validate_profile(repaired);
    if (after.has_errors()) {
        print_report(after);
        std::fprintf(stderr, "repair re-measured %llu phase(s) but the result still "
                     "violates invariants; the measurement itself is suspect\n",
                     static_cast<unsigned long long>(result.journal_appended));
        return kExitInvalidProfile;
    }
    if (!repaired.save(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("repair: %llu phase(s) replayed, %llu re-measured; valid profile "
                "rewritten to %s\n",
                static_cast<unsigned long long>(result.journal_replayed),
                static_cast<unsigned long long>(result.journal_appended), path.c_str());
    return 0;
}

/// The one server this process runs; the signal handler may only touch
/// async-signal-safe state, and ServeServer::request_stop() is exactly
/// that (an atomic store + an eventfd write).
serve::ServeServer* g_serve_server = nullptr;

extern "C" void serve_signal_handler(int) {
    if (g_serve_server != nullptr) g_serve_server->request_stop();
}

void serve_options(CliParser& cli) {
    cli.add_option("store-dir", "directory holding the profile store", "servet-store");
    cli.add_option("bind", "IPv4 address to bind", "127.0.0.1");
    cli.add_int("port", "TCP port (0 = ephemeral; see --port-file)", "0", 0, 65535);
    cli.add_int("threads", "worker threads answering requests", "2", 1, 64);
    cli.add_int("cache", "hot profiles kept in the in-memory LRU", "256", 0);
    cli.add_option("port-file", "write the bound port to this file once listening "
                   "(how scripts find an ephemeral port)", "");
    cli.add_option("token", "require 'authorization: Bearer <token>' on every "
                   "request except /healthz (compared in constant time)", "");
    cli.add_number("idle-timeout", "seconds a connection may sit idle before the "
                   "server closes it — the slow-loris defense (0 = never reap)",
                   "30", 0);
    cli.add_int("max-connections", "open-connection cap; excess connections are "
                "shed with 503 + retry-after", "1024", 1);
}

int cmd_serve(const CliParser& cli) {
    serve::ServeOptions options;
    options.store_dir = cli.option("store-dir");
    options.bind_address = cli.option("bind");
    options.port = static_cast<std::uint16_t>(int_option(cli, "port"));
    options.threads = int_option(cli, "threads");
    options.cache_entries = static_cast<std::size_t>(*cli.option_int("cache"));
    options.token = cli.option("token");
    options.idle_timeout_seconds = *cli.option_double("idle-timeout");
    options.max_connections = static_cast<std::size_t>(*cli.option_int("max-connections"));

    serve::ServeServer server(options);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "serve: %s\n", error.c_str());
        return 1;
    }
    g_serve_server = &server;
    struct sigaction action{};
    action.sa_handler = serve_signal_handler;
    ::sigemptyset(&action.sa_mask);
    (void)::sigaction(SIGTERM, &action, nullptr);
    (void)::sigaction(SIGINT, &action, nullptr);

    if (!cli.option("port-file").empty() &&
        !write_file_atomic(cli.option("port-file"),
                           std::to_string(server.port()) + "\n")) {
        std::fprintf(stderr, "cannot write %s\n", cli.option("port-file").c_str());
        server.request_stop();
        server.join();
        return kExitExportFailed;
    }

    std::printf("serve: listening on %s:%u, store %s, %d worker(s)\n",
                options.bind_address.c_str(), static_cast<unsigned>(server.port()),
                options.store_dir.c_str(), options.threads);
    std::fflush(stdout);
    server.join();  // returns once a signal (or caller) requested stop
    g_serve_server = nullptr;
    std::printf("serve: drained and stopped\n");
    return 0;
}

void tune_options(CliParser& cli) {
    add_machine_option(cli, "dempsey");
    cli.add_choice("kernel", "tunable kernel: stencil | transpose | reduction | spmv",
                   "stencil", autotune::kernels::kernel_names());
    cli.add_choice("strategy", "search order: exhaustive | random | guided", "guided",
                   {"exhaustive", "random", "guided"});
    cli.add_int("budget", "measured evaluations to spend (0 = the whole space)", "0", 0);
    cli.add_int("seed", "random-strategy shuffle seed", "24301", 0);
    cli.add_int("jobs", "concurrent measured evaluations (modeled machines only)", "1", 1);
    cli.add_option("profile", "stored profile supplying the analytic priors (default: "
                   "measure the target's profile in-process first)", "");
    cli.add_option("trace", "write the search trace JSON to this file", "");
}

int cmd_tune(const CliParser& cli) {
    const Target target = make_target(cli);
    // The analytic prior the guided strategy ranks by: a stored profile
    // when given, otherwise the target's own — measured in-process (fast
    // on the modeled machines this command is built for).
    core::Profile profile;
    if (!cli.option("profile").empty()) {
        const auto loaded = load_profile(cli.option("profile"));
        if (!loaded) return kExitUsage;
        profile = *loaded;
    } else {
        // The prior only needs the rough shape (cache sizes, the
        // scalability curve), so the fast suite configuration suffices.
        core::SuiteOptions suite_options;
        apply_fast_preset(suite_options);
        const auto result =
            core::run_suite(*target.platform, target.network.get(), suite_options);
        profile = result.to_profile(target.platform->name(), target.platform->core_count(),
                                    target.platform->page_size());
    }

    const auto kernel = autotune::kernels::make_kernel(
        cli.option("kernel"), profile, target.platform->core_count());
    if (!kernel) {
        // Name already validated: only a profile unfit for this kernel
        // (e.g. no cache levels detected) lands here.
        std::fprintf(stderr, "kernel '%s' cannot be built from this profile\n",
                     cli.option("kernel").c_str());
        return kExitUsage;
    }

    // Same pool shape as the suite: the calling thread participates, so
    // --jobs N means N-1 workers.
    const int jobs = int_option(cli, "jobs");
    std::unique_ptr<exec::ThreadPool> pool;
    if (jobs > 1) pool = std::make_unique<exec::ThreadPool>(jobs - 1);
    core::MeasureEngine engine(target.platform.get(), target.network.get(), pool.get(),
                               nullptr);

    autotune::search::SearchOptions options;
    options.strategy = *autotune::search::parse_strategy(cli.option("strategy"));
    options.budget = static_cast<std::size_t>(*cli.option_int("budget"));
    options.seed = static_cast<std::uint64_t>(*cli.option_int("seed"));
    options.engine = &engine;
    const auto result = autotune::search::run_search(*kernel, options);
    if (!result) {
        std::fprintf(stderr, "kernel '%s' admits no configuration on this target\n",
                     cli.option("kernel").c_str());
        return 1;
    }

    std::printf("tune: %s on %s, strategy %s, space %zu, %zu evaluation(s)\n",
                kernel->name().c_str(), cli.option("machine").c_str(),
                std::string(autotune::search::strategy_name(options.strategy)).c_str(),
                result->space_size, result->evals);
    std::printf("best %s: cost %.6g, first reached at evaluation %zu\n",
                result->best.key().c_str(), result->best_cost, result->evals_to_best);

    if (!cli.option("trace").empty() &&
        !write_file_atomic(cli.option("trace"),
                           autotune::search::trace_json(*kernel, options, *result))) {
        std::fprintf(stderr, "cannot write %s\n", cli.option("trace").c_str());
        return kExitExportFailed;
    }
    return 0;
}

void fetch_options(CliParser& cli) {
    cli.add_option("host", "server IPv4 address", "127.0.0.1");
    cli.add_int("port", "server TCP port", "0", 0, 65535);
    cli.add_option("fingerprint", "machine fingerprint key (16 lowercase hex digits)",
                   "");
    cli.add_option("options", "suite options hash qualifying the profile (16 lowercase "
                   "hex digits; empty = the store's default entry)", "");
    cli.add_option("out", "profile file to write", "servet.profile");
    cli.add_number("timeout", "per-socket-operation timeout in seconds (connect "
                   "included)", "10", 0, CliParser::Bound::Exclusive);
    cli.add_number("deadline", "overall wall-clock cap in seconds — attempts, "
                   "backoffs and trickled bytes included (0 = 6x timeout)", "0", 0);
    cli.add_int("retries", "total attempts for transient transport failures "
                "(capped exponential backoff, deterministic jitter)", "3", 1, 100);
    cli.add_int("retry-seed", "backoff-jitter seed (same seed, same trace)", "23741");
    cli.add_option("token", "shared-secret auth token (sent as authorization: "
                   "Bearer)", "");
    cli.add_flag("trace", "print the deterministic per-attempt retry trace");
}

int cmd_fetch(const CliParser& cli) {
    if (int_option(cli, "port") == 0 || cli.option("fingerprint").empty()) {
        std::fprintf(stderr, "--port and --fingerprint are required (see 'servet serve' / "
                     "docs/serve.md for the key format)\n");
        return kExitUsage;
    }

    const std::string out = cli.option("out");
    const std::string etag_path = out + ".etag";

    serve::FetchOptions options;
    options.host = cli.option("host");
    options.port = int_option(cli, "port");
    options.path = "/v1/profile/" + cli.option("fingerprint");
    if (!cli.option("options").empty()) options.path += "/" + cli.option("options");
    options.timeout_seconds = *cli.option_double("timeout");
    options.deadline_seconds = *cli.option_double("deadline");
    options.retry.max_attempts = int_option(cli, "retries");
    options.retry.seed = static_cast<std::uint64_t>(*cli.option_int("retry-seed"));
    options.token = cli.option("token");

    // A 304 is only useful when the previous body is still on disk, so the
    // conditional header requires both the profile and its sidecar.
    std::string existing;
    std::string stored_etag;
    if (read_file(out, &existing) == FileRead::Ok &&
        read_file(etag_path, &stored_etag) == FileRead::Ok) {
        while (!stored_etag.empty() &&
               (stored_etag.back() == '\n' || stored_etag.back() == '\r' ||
                stored_etag.back() == ' '))
            stored_etag.pop_back();
        options.etag = stored_etag;
    }

    const serve::FetchResult result = serve::http_fetch(options);
    if (cli.flag("trace")) std::fputs(result.trace().c_str(), stdout);
    if (!result.ok) {
        std::fprintf(stderr, "fetch: [%s] %s\n", result.code.c_str(),
                     result.error.c_str());
        return 1;
    }
    const serve::HttpResponse& response = result.response;

    if (response.status == 304) {
        std::printf("fetch: %s is current (etag %s)\n", out.c_str(),
                    options.etag.c_str());
        return 0;
    }
    if (response.status != 200) {
        std::fprintf(stderr, "fetch: server answered %d %s for %s\n", response.status,
                     response.reason.c_str(), options.path.c_str());
        return 1;
    }

    // Never replace a good profile with bytes that don't parse as one —
    // a half-broken store should leave the node's copy alone.
    const auto profile = core::Profile::parse(response.body);
    if (!profile) {
        std::fprintf(stderr, "fetch: response body is not a valid profile\n");
        return 1;
    }
    if (!write_file_atomic(out, response.body)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return kExitExportFailed;
    }
    const std::string etag = response.etag_token();
    if (!etag.empty() && !write_file_atomic(etag_path, etag + "\n")) {
        std::fprintf(stderr, "cannot write %s\n", etag_path.c_str());
        return kExitExportFailed;
    }
    std::printf("fetch: wrote %s (%zu bytes, machine %s%s%s)\n", out.c_str(),
                response.body.size(), profile->machine.c_str(),
                etag.empty() ? "" : ", etag ", etag.c_str());
    return 0;
}

/// One row per subcommand. `summary` is its line in `servet --help`;
/// `servet <name> --help` opens with the summary and then `details`. main()
/// parses the declared options before `run` sees them, so every command
/// shares one exit policy: `--help` exits 0, an invalid invocation exits 2.
struct Command {
    const char* name;
    const char* summary;
    const char* details;
    void (*declare)(CliParser&);
    int (*run)(const CliParser&);
};

const Command kCommands[] = {
    {"machines", "list available measurement targets", "", [](CliParser&) {}, cmd_machines},
    {"profile", "run the full suite and store the profile file", "", profile_options,
     cmd_profile},
    {"report", "pretty-print a stored profile", "", report_options, cmd_report},
    {"tlb", "measure the data TLB", "Reports its reach and walk cost.", tlb_options, cmd_tlb},
    {"price", "cost a message between two cores from a profile", "", price_options,
     cmd_price},
    {"map", "place application ranks using a profile", "", map_options, cmd_map},
    {"broadcast", "choose a collective algorithm from a profile", "", broadcast_options,
     cmd_broadcast},
    {"metrics", "run the suite and summarize the obs metrics registry", "", metrics_options,
     cmd_metrics},
    {"watch", "re-measure a fast subset periodically and judge drift against a rolling "
     "baseline",
     "The samples are journaled as a time series under --run-dir and each tick is judged "
     "with stable drift codes (drift.none/.suspect/.confirmed). Confirmed drift exits 4; "
     "an incompatible existing series exits 2.", watch_options, cmd_watch},
    {"validate", "check a profile against physical invariants (--repair re-measures, "
     "--against diffs two profiles)", "", validate_options, cmd_validate},
    {"serve", "long-running profile service over HTTP (content-addressed store, "
     "conditional GET)",
     "Stores profiles content-addressed by machine fingerprint and suite options hash, "
     "serves them over minimal HTTP/1.1 with conditional GET (If-None-Match -> 304). "
     "SIGTERM/SIGINT drain in-flight requests and exit 0. Protocol and store layout: "
     "docs/serve.md.", serve_options, cmd_serve},
    {"fetch", "download a profile from a serve store (conditional GET via a stored ETag)",
     "When --out already holds a profile and its .etag sidecar exists, the request "
     "carries If-None-Match and an unchanged profile answers 304 without a body (the "
     "stored file is kept). The body is validated as a profile before it replaces "
     "--out.", fetch_options, cmd_fetch},
    {"tune", "search a tunable kernel's configuration space (exhaustive | random | guided)",
     "Strategies: exhaustive walks the space in enumeration order, random walks a seeded "
     "shuffle, guided ranks candidates by the profile's analytic cost model before "
     "spending the measurement budget. Candidate order is fixed before any evaluation "
     "runs, so --trace output is byte-identical across --jobs values. See "
     "docs/autotune.md.", tune_options, cmd_tune},
};

void usage() {
    std::fprintf(stderr, "servet — measure multicore hardware parameters for autotuning\n\n"
                         "usage: servet <command> [options]\n\ncommands:\n");
    for (const Command& command : kCommands)
        std::fprintf(stderr, "  %-10s %s\n", command.name, command.summary);
    std::fprintf(stderr, "\nrun 'servet <command> --help' for per-command options.\n");
}

}  // namespace

int main(int argc, char** argv) {
    const std::string_view name = argc < 2 ? "" : argv[1];
    for (const Command& command : kCommands) {
        if (name != command.name) continue;
        CliParser cli(strf("servet %s: %s.%s%s", command.name, command.summary,
                           *command.details ? " " : "", command.details));
        command.declare(cli);
        if (!cli.parse(argc - 1, argv + 1)) return cli.flag("help") ? 0 : kExitUsage;
        if (!cli.positional().empty()) {
            std::fprintf(stderr, "%s: unexpected argument '%s' (see --help)\n", command.name,
                         cli.positional()[0].c_str());
            return kExitUsage;
        }
        return command.run(cli);
    }
    usage();
    return name == "--help" || name == "help" ? 0 : kExitUsage;
}
