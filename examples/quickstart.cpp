// Quickstart: run the whole Servet suite against a machine (a simulated
// model by default, or this host with --machine native), print a
// human-readable hardware report, and write the profile file that
// autotuned applications consult at run time (Section IV-E).
//
//   quickstart [--machine dunnington] [--out servet.profile] [--fast]
#include <cstdio>

#include "base/cli.hpp"
#include "base/table.hpp"
#include "base/units.hpp"
#include "core/suite.hpp"
#include "example_util.hpp"

using namespace servet;

namespace {

void print_report(const core::Profile& profile) {
    std::printf("Machine: %s (%d cores, %s pages)\n\n", profile.machine.c_str(),
                profile.cores, format_bytes(profile.page_size).c_str());

    std::printf("Cache hierarchy:\n");
    for (std::size_t i = 0; i < profile.caches.size(); ++i) {
        const auto& cache = profile.caches[i];
        std::printf("  L%zu: %s (detected via %s) — ", i + 1,
                    format_bytes(cache.size).c_str(), cache.method.c_str());
        if (cache.groups.empty()) {
            std::printf("private per core\n");
        } else {
            std::printf("shared by groups ");
            for (const auto& group : cache.groups) {
                std::printf("{");
                for (std::size_t j = 0; j < group.size(); ++j)
                    std::printf("%s%d", j ? "," : "", group[j]);
                std::printf("} ");
            }
            std::printf("\n");
        }
    }

    std::printf("\nMemory:\n  isolated-core copy bandwidth: %s\n",
                format_bandwidth(profile.memory.reference_bandwidth).c_str());
    for (std::size_t t = 0; t < profile.memory.tiers.size(); ++t) {
        const auto& tier = profile.memory.tiers[t];
        std::printf("  contention tier %zu: %s per core when pairs collide; groups ",
                    t, format_bandwidth(tier.bandwidth).c_str());
        for (const auto& group : tier.groups) {
            std::printf("{");
            for (std::size_t j = 0; j < group.size(); ++j)
                std::printf("%s%d", j ? "," : "", group[j]);
            std::printf("} ");
        }
        std::printf("\n");
    }

    if (!profile.comm.empty()) {
        std::printf("\nCommunication layers (fastest first):\n");
        for (std::size_t l = 0; l < profile.comm.size(); ++l) {
            const auto& layer = profile.comm[l];
            std::printf("  layer %zu: %s probe latency, %zu pairs", l,
                        format_latency(layer.latency).c_str(), layer.pairs.size());
            if (!layer.slowdown.empty())
                std::printf(", slowdown x%.1f at %zu concurrent messages",
                            layer.slowdown.back(), layer.slowdown.size());
            std::printf("\n");
        }
    }

    std::printf("\nBenchmark execution times (Table I analogue):\n");
    for (const auto& [phase, seconds] : profile.phase_seconds)
        std::printf("  %-16s %.1f s\n", phase.c_str(), seconds);
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("Servet quickstart: profile a machine and write its profile file.");
    examples::add_machine_option(cli);
    cli.add_option("out", "profile file to write", "servet.profile");
    cli.add_flag("fast", "smaller sweep for a quick look");
    if (!cli.parse(argc, argv)) return 1;

    const examples::Target target = examples::make_target(cli.option("machine"));

    core::SuiteOptions options;
    if (cli.flag("fast")) {
        // Keep the full size sweep (truncating it can cut an LLC
        // transition in half); save time on repeats and pair coverage.
        options.mcalibrator.repeats = 2;
        options.shared_cache.only_with_core = 0;
        options.mem_overhead.only_with_core = 0;
    }
    const core::SuiteResult result =
        core::run_suite(*target.platform, target.network.get(), options);
    const core::Profile profile =
        result.to_profile(target.platform->name(), target.platform->core_count(),
                          target.platform->page_size());

    print_report(profile);

    const std::string& path = cli.option("out");
    if (profile.save(path)) {
        std::printf("\nProfile written to %s — load it with core::Profile::load() to\n"
                    "drive the autotune advisors without re-measuring.\n",
                    path.c_str());
    } else {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
        return 1;
    }
    return 0;
}
