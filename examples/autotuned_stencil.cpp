// Capstone example: configure a complete mini-application from one Servet
// profile, the workflow the paper's Section V sketches. A Jacobi-style
// iteration has three cost components, and each is tuned by a different
// measured parameter:
//
//   * compute  — sweep of the local subdomain: blocked with the tiling
//                advisor so the working set lives in cache;
//   * halo     — neighbour exchange: placed with the mapping advisor so
//                heavy edges ride the fast measured layers;
//   * residual — a reduction to rank 0: algorithm chosen by pricing
//                binomial vs hierarchy-aware trees from the profile.
//
// Every component is then *measured* (traversals on the platform, rounds
// on the network) under both the naive and the tuned configuration.
//
//   autotuned_stencil [--machine dunnington] [--ranks 12] [--halo 32KB]
#include <cstdio>

#include <algorithm>
#include <numeric>

#include "autotune/collectives.hpp"
#include "autotune/mapping.hpp"
#include "autotune/tiling.hpp"
#include "base/cli.hpp"
#include "base/table.hpp"
#include "base/units.hpp"
#include "core/suite.hpp"
#include "example_util.hpp"

using namespace servet;

namespace {

Seconds measure_exchange(msg::Network& network, const autotune::CommGraph& graph,
                         const std::vector<CoreId>& placement, Bytes halo) {
    Seconds total = 0;
    for (const auto& round : autotune::edge_rounds(graph)) {
        std::vector<CorePair> transfers;
        for (const auto& edge : round)
            transfers.push_back({placement[static_cast<std::size_t>(edge.rank_a)],
                                 placement[static_cast<std::size_t>(edge.rank_b)]});
        const auto latencies = network.concurrent_latency(transfers, halo, 5);
        total += *std::max_element(latencies.begin(), latencies.end());
    }
    return total;
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("Servet autotuned stencil: configure a mini-app from one profile.");
    examples::add_machine_option(cli);
    cli.add_int("ranks", "application ranks", "12", 2);
    cli.add_bytes("halo", "halo message size", "32KB");
    if (!cli.parse(argc, argv)) return 1;

    const examples::Target target = examples::make_target(cli.option("machine"));
    if (!target.network) {
        std::fprintf(stderr, "need a multicore machine\n");
        return 1;
    }
    Platform& platform = *target.platform;
    msg::Network& network = *target.network;

    std::printf("== measuring %s once (install-time profile) ==\n",
                platform.name().c_str());
    const core::SuiteResult suite = core::run_suite(platform, &network, {});
    const core::Profile profile =
        suite.to_profile(platform.name(), platform.core_count(), platform.page_size());

    const int ranks =
        std::clamp<int>(static_cast<int>(*cli.option_int("ranks")), 2, profile.cores);
    const auto halo = static_cast<Bytes>(*cli.option_int("halo"));

    // Application shape: squarest 2D decomposition.
    int rows = 1;
    for (int r = 1; r * r <= ranks; ++r)
        if (ranks % r == 0) rows = r;
    const autotune::CommGraph graph = autotune::CommGraph::stencil2d(rows, ranks / rows);

    std::printf("== configuring a %dx%d stencil on %d ranks ==\n\n", rows, ranks / rows,
                ranks);
    TextTable table({"component", "naive", "servet-tuned", "improvement"});

    // --- compute: untiled sweep vs L1-tiled sweep, measured as traversal
    // cycles per access over the respective working sets.
    const auto tiles = autotune::plan_tiles(profile);
    const Bytes untiled_ws = 4 * MiB;  // a subdomain slab far beyond cache
    Bytes tiled_ws = 16 * KiB;
    if (!tiles.empty())
        tiled_ws = std::max<Bytes>(
            Bytes{4 * KiB},
            static_cast<Bytes>(3) * tiles.front().tile_bytes / KiB * KiB);
    const Cycles naive_compute = platform.traverse_cycles(0, untiled_ws, 1 * KiB, 3, true);
    const Cycles tuned_compute = platform.traverse_cycles(0, tiled_ws, 1 * KiB, 3, true);
    table.add_row({"compute (cycles/access)", strf("%.1f", naive_compute),
                   strf("%.1f", tuned_compute),
                   strf("%.1fx", naive_compute / tuned_compute)});

    // --- halo exchange: identity placement vs mapped placement.
    std::vector<CoreId> naive_placement(static_cast<std::size_t>(ranks));
    std::iota(naive_placement.begin(), naive_placement.end(), 0);
    autotune::MappingOptions mapping;
    mapping.message_size = halo;
    const autotune::MappingResult mapped = autotune::map_processes(profile, graph, mapping);
    const Seconds naive_halo = measure_exchange(network, graph, naive_placement, halo);
    const Seconds tuned_halo = measure_exchange(network, graph, mapped.core_of_rank, halo);
    table.add_row({"halo exchange / step", format_latency(naive_halo),
                   format_latency(tuned_halo), strf("%.2fx", naive_halo / tuned_halo)});

    // --- residual reduction: binomial vs profile-chosen tree, executed on
    // the tuned placement's cores.
    std::vector<CoreId> cores = mapped.core_of_rank;
    const Seconds naive_reduce = autotune::run_schedule(
        network, autotune::reduce_binomial(cores.front(), cores), 1 * KiB, 5);
    const autotune::Schedule hierarchical =
        autotune::reduce_hierarchical(cores.front(), cores, profile);
    const Seconds tuned_reduce = autotune::run_schedule(network, hierarchical, 1 * KiB, 5);
    table.add_row({"residual reduce / step", format_latency(naive_reduce),
                   format_latency(tuned_reduce),
                   strf("%.2fx", naive_reduce / tuned_reduce)});

    std::printf("%s", table.render().c_str());
    std::printf(
        "\nEverything above came from one profile: tile sizes from the measured cache\n"
        "hierarchy, the placement from measured per-layer latencies and contention\n"
        "groups, and the reduction tree from the measured layer structure.\n");
    return 0;
}
