// Process-mapping advisor: the paper's headline autotuning use case
// (Sections II and V). Profiles a machine (or loads a saved profile),
// builds an application communication graph, and compares the naive
// rank-order placement against the profile-driven mapping — pricing both
// with the measured per-layer latencies and memory-contention groups.
//
//   mapping_advisor [--machine dunnington] [--profile file]
//                   [--app stencil|ring|alltoall] [--ranks N]
//                   [--message 32KB] [--memory-weight 0.25]
#include <cstdio>

#include <numeric>

#include "autotune/mapping.hpp"
#include "base/cli.hpp"
#include "base/table.hpp"
#include "base/units.hpp"
#include "core/suite.hpp"
#include "example_util.hpp"

using namespace servet;

namespace {

core::Profile obtain_profile(const std::string& machine, const std::string& profile_path) {
    if (!profile_path.empty()) {
        if (auto loaded = core::Profile::load(profile_path)) return *loaded;
        std::fprintf(stderr, "could not load %s; measuring instead\n", profile_path.c_str());
    }
    const examples::Target target = examples::make_target(machine);
    core::SuiteOptions options;
    const core::SuiteResult result =
        core::run_suite(*target.platform, target.network.get(), options);
    return result.to_profile(target.platform->name(), target.platform->core_count(),
                             target.platform->page_size());
}

autotune::CommGraph build_app(const std::string& app, int ranks) {
    if (app == "ring") return autotune::CommGraph::ring(ranks);
    if (app == "alltoall") return autotune::CommGraph::all_to_all(ranks);
    // Default: the squarest 2D stencil decomposition of `ranks`.
    int rows = 1;
    for (int r = 1; r * r <= ranks; ++r)
        if (ranks % r == 0) rows = r;
    return autotune::CommGraph::stencil2d(rows, ranks / rows);
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("Servet mapping advisor: place MPI ranks using measured topology.");
    examples::add_machine_option(cli);
    cli.add_option("profile", "saved profile file (skips measurement)", "");
    cli.add_choice("app", "communication pattern: stencil | ring | alltoall", "stencil",
                   {"stencil", "ring", "alltoall"});
    cli.add_int("ranks", "number of application ranks", "12", 1);
    cli.add_bytes("message", "message size used to price edges", "32KB");
    cli.add_number("memory-weight", "memory-contention weight in the objective", "0.25", 0);
    if (!cli.parse(argc, argv)) return 1;

    const core::Profile profile =
        obtain_profile(cli.option("machine"), cli.option("profile"));

    const int ranks = static_cast<int>(*cli.option_int("ranks"));
    if (ranks > profile.cores) {
        std::fprintf(stderr, "ranks must be in [1, %d]\n", profile.cores);
        return 1;
    }
    const autotune::CommGraph graph = build_app(cli.option("app"), ranks);

    autotune::MappingOptions options;
    options.message_size = static_cast<Bytes>(*cli.option_int("message"));
    options.memory_weight = *cli.option_double("memory-weight");

    // Baseline: ranks in core order, the default of an unaware launcher.
    std::vector<CoreId> naive(static_cast<std::size_t>(ranks));
    std::iota(naive.begin(), naive.end(), 0);
    const double naive_cost = autotune::placement_cost(profile, graph, naive, options);

    const autotune::MappingResult tuned = autotune::map_processes(profile, graph, options);

    std::printf("Application: %s with %d ranks on %s (%d cores)\n", cli.option("app").c_str(),
                ranks, profile.machine.c_str(), profile.cores);
    std::printf("Edge pricing: %s messages, memory weight %.2f\n\n",
                format_bytes(options.message_size).c_str(), options.memory_weight);

    TextTable table({"placement", "objective (s-equivalents)", "vs naive"});
    table.add_row({"naive (rank = core)", strf("%.3e", naive_cost), "1.00x"});
    table.add_row({"greedy seed", strf("%.3e", tuned.greedy_cost),
                   strf("%.2fx", naive_cost > 0 ? tuned.greedy_cost / naive_cost : 1.0)});
    table.add_row({"servet-tuned", strf("%.3e", tuned.cost),
                   strf("%.2fx", naive_cost > 0 ? tuned.cost / naive_cost : 1.0)});
    std::printf("%s\n", table.render().c_str());

    std::printf("Tuned placement (rank -> core):\n  ");
    for (int r = 0; r < ranks; ++r)
        std::printf("%d->%d ", r, tuned.core_of_rank[static_cast<std::size_t>(r)]);
    std::printf("\n\nWhy it wins: heavy edges land on the fastest measured layers\n"
                "(shared-cache pairs first), and ranks spread across the memory\n"
                "contention groups the overhead benchmark identified.\n");
    return 0;
}
