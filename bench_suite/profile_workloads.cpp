// profile-smp and profile-cluster: cold `servet profile` runs, one pass
// over the workload's machines per op, with the CLI's default options
// except where suite_options says otherwise.
//
// profile-smp drives the cache, shared-cache, memory and comm phases on
// an SMP node, where the simulator's traversal does most of the work.
// profile-cluster takes the CLI's comm-only cluster path up to ft1024 at
// jobs=4: the same run_suite layer with no simulated cache access at all,
// where time goes to per-task replica construction and the
// message/topology model, and the exec pool and DAG run at full width. A
// sim-engine change must predict "no change" on profile-cluster; a
// fork/replica change must predict a gain.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/hash.hpp"
#include "core/cluster.hpp"
#include "core/profile.hpp"
#include "core/suite.hpp"
#include "core/validate.hpp"
#include "harness.hpp"
#include "msg/sim_network.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"

namespace bench {
namespace {

using namespace servet;

struct Machine {
    const char* name;
    std::function<sim::MachineSpec()> make;
    /// FNV-1a of the profile without [timing] at kDefaultSeed.
    std::uint64_t digest;
};

/// Set-ups per op: a run's set-up median rests on many samples even when
/// the run holds only a few passes.
constexpr int kSetupsPerOp = 10;

/// `servet profile` defaults (4 repeats, jobs=1) with one change on SMP
/// nodes: the cache-size sweep stops at 3x the last-level cache instead
/// of 64 MiB. At 64 MiB the simulator's own state (the page map of the
/// swept array and the cache arrays) outgrows a 2 MB host L2, and its
/// speed then follows what other tenants of a shared host do to the L3
/// and memory (README.md). At 3x it stays L2-resident. Cluster machines
/// take the CLI's comm-only path with sampled probe pairs, at jobs=4: a
/// serial pass of them takes about 5 s.
core::SuiteOptions suite_options(const sim::MachineSpec& spec) {
    core::SuiteOptions options;
    if (spec.topology.enabled()) {
        options.jobs = 4;
        options.run_cache_size = false;
        options.comm.probe_pairs = core::cluster_probe_pairs(spec, options.comm);
    } else {
        options.mcalibrator.max_size = 3 * spec.levels.back().geometry.size;
    }
    return options;
}

struct Target {
    sim::MachineSpec spec;
    core::SuiteOptions options;
    std::unique_ptr<Platform> platform;
    std::unique_ptr<msg::Network> network;
};

const char* const kPhases[] = {"cache_size", "shared_caches", "mem_overhead", "comm_costs"};

void run_profile_passes(const std::vector<Machine>& machines, const Settings& settings,
                        Report& report) {
    std::vector<std::string> first_text(machines.size());
    std::map<std::string, double> traced_phase_s;
    double traced_wall_s = 0;
    bool first_pass = true;

    run_ops(settings, report, [&](bool traced) {
        // Set-up: the simulated machines and their networks.
        OpTimes times;
        std::vector<Target> targets = repeat_setup(
            settings.smoke ? 1 : kSetupsPerOp, times.setup_s, [&] {
                std::vector<Target> built;
                for (const Machine& machine : machines) {
                    Target target;
                    target.spec = seeded(machine.make(), settings.seed);
                    target.options = suite_options(target.spec);
                    target.platform = std::make_unique<ForkTimedPlatform>(
                        std::make_unique<SimPlatform>(target.spec), report.fork_clock);
                    if (target.spec.n_cores > 1)
                        target.network = std::make_unique<ForkTimedNetwork>(
                            std::make_unique<msg::SimNetwork>(target.spec), report.fork_clock);
                    built.push_back(std::move(target));
                }
                return built;
            });

        std::vector<core::SuiteResult> results(targets.size());
        std::vector<core::Profile> profiles(targets.size());
        bool saved = true;
        const auto op_start = Clock::now();
        {
            SERVET_TRACE_SPAN("bench/op");
            for (std::size_t i = 0; i < targets.size(); ++i) {
                Target& t = targets[i];
                results[i] = core::run_suite(*t.platform, t.network.get(), t.options);
                SERVET_TRACE_SPAN("bench/profile");
                profiles[i] = results[i].to_profile(t.platform->name(),
                                                    t.platform->core_count(),
                                                    t.platform->page_size());
                core::annotate_cluster_profile(&profiles[i], t.spec);
                saved = profiles[i].save(settings.scratch + "/" + machines[i].name +
                                         ".profile") &&
                        saved;
            }
        }
        const double wall_s = seconds_since(op_start);

        report.check(saved, "profile save failed");
        for (std::size_t i = 0; i < machines.size(); ++i) {
            const std::string who = std::string(machines[i].name) + ": ";
            report.check(results[i].errors.empty(), who + "a suite phase failed");
            report.check(core::validate_profile(profiles[i]).violations.empty(),
                         who + "validate_profile reports violations");
            if (traced)
                for (const char* phase : kPhases) {
                    const auto it = results[i].phase_seconds.find(phase);
                    if (it != results[i].phase_seconds.end())
                        traced_phase_s[phase] += it->second;
                }
            core::Profile untimed = profiles[i];
            untimed.phase_seconds.clear();
            const std::string text = untimed.serialize();
            if (!first_pass) {
                report.check(text == first_text[i],
                             who + "profile differs from the first pass");
                continue;
            }
            first_text[i] = text;
            std::printf("  %-10s profile digest %016llx\n", machines[i].name,
                        static_cast<unsigned long long>(fnv1a64(text)));
            if (settings.seed == kDefaultSeed)
                report.check(fnv1a64(text) == machines[i].digest,
                             who + "profile digest differs from the pinned one");
        }
        if (traced) traced_wall_s += wall_s;
        first_pass = false;
        times.op_ms = wall_s * 1e3;
        return times;
    });

    for (const char* phase : kPhases)
        report.layer[std::string("phase.") + phase + ".frac"] =
            traced_wall_s > 0 ? traced_phase_s[phase] / traced_wall_s : 0;
}

}  // namespace

void run_profile_smp(const Settings& settings, Report& report) {
    // nehalem2s is left out: the state of its simulated 8 MiB L3 alone
    // outgrows a 2 MB host L2, whatever the sweep.
    run_profile_passes({{"dempsey", sim::zoo::dempsey, 0x7fd6b9532b429ecdULL}}, settings,
                       report);
}

void run_profile_cluster(const Settings& settings, Report& report) {
    // ft4096, the largest fat tree the CLI names, takes about 10 s a pass:
    // too long for a run to hold several. ft1024 runs the same path with
    // a quarter of the ranks.
    const auto ft1024 = [] { return sim::zoo::fat_tree_cluster(3); };
    run_profile_passes({{"ft-small", sim::zoo::fat_tree_small, 0x7691660a78c85578ULL},
                        {"torus4x4", sim::zoo::torus4x4, 0xd3bb9d35895753e3ULL},
                        {"ft1024", ft1024, 0x46f701bf3fe7eab4ULL}},
                       settings, report);
}

}  // namespace bench
