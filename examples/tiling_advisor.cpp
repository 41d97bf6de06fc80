// Tiling advisor: Section V's "Tiling is one of the most widely used
// optimization techniques and our suite can help ... by providing all the
// cache sizes in a portable way". Detects the hierarchy, derives a
// blocked-matmul tile plan per level, then *validates* the plan on the
// same platform: traversals of the tile working set must run at that
// level's speed, while twice the footprint must not.
//
//   tiling_advisor [--machine dunnington] [--element-bytes 8] [--tiles 3]
#include <cstdio>

#include "autotune/tiling.hpp"
#include "base/cli.hpp"
#include "base/table.hpp"
#include "base/units.hpp"
#include "core/cache_size.hpp"
#include "example_util.hpp"

using namespace servet;

int main(int argc, char** argv) {
    CliParser cli("Servet tiling advisor: cache-aware block sizes for tiled kernels.");
    examples::add_machine_option(cli);
    cli.add_int("element-bytes", "bytes per matrix element", "8", 1);
    cli.add_int("tiles", "tiles simultaneously live (3 for C += A*B)", "3", 1);
    if (!cli.parse(argc, argv)) return 1;

    const examples::Target target = examples::make_target(cli.option("machine"));
    Platform& platform = *target.platform;

    // Step 1: measure the cache hierarchy (Section III-A).
    const auto levels = core::detect_cache_levels(platform, {});
    if (levels.empty()) {
        std::fprintf(stderr, "no cache levels detected\n");
        return 1;
    }

    core::Profile profile;
    profile.machine = platform.name();
    profile.cores = platform.core_count();
    profile.page_size = platform.page_size();
    for (const auto& level : levels)
        profile.caches.push_back({level.size, level.method, {}});

    // Step 2: derive the plan.
    autotune::TilingRequest request;
    request.element_bytes = static_cast<std::size_t>(*cli.option_int("element-bytes"));
    request.tiles_in_flight = static_cast<int>(*cli.option_int("tiles"));
    const auto plan = autotune::plan_tiles(profile, request);

    std::printf("Tile plan for %s (%d %zu-byte tiles in flight, %.0f%% occupancy):\n\n",
                profile.machine.c_str(), request.tiles_in_flight, request.element_bytes,
                100 * request.occupancy);
    TextTable table({"level", "cache", "tile (elements)", "tile footprint",
                     "fits cycles/access", "2x footprint cycles"});

    // Step 3: validate — traverse the combined tile working set; it should
    // cost about this level's hit time, while twice that size should cost
    // noticeably more (it spills to the next level).
    for (const auto& choice : plan) {
        const Bytes working_set = static_cast<Bytes>(request.tiles_in_flight) *
                                  choice.tile_bytes / KiB * KiB;
        const Bytes probe = std::max(working_set, Bytes{4 * KiB});
        const Cycles fits = platform.traverse_cycles(0, probe, 1 * KiB, 3, true);
        const Cycles spills = platform.traverse_cycles(0, 2 * probe + choice.cache_size / 2,
                                                       1 * KiB, 3, true);
        table.add_row({strf("L%zu", choice.level + 1), format_bytes(choice.cache_size),
                       strf("%dx%d", choice.tile_elements, choice.tile_elements),
                       format_bytes(choice.tile_bytes), strf("%.1f", fits),
                       strf("%.1f", spills)});
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "\nReading the table: a tile plan is sound when the 'fits' column shows the\n"
        "level's hit latency and the '2x footprint' column is clearly slower —\n"
        "the blocked kernel keeps its working set inside the level it targets.\n");
    return 0;
}
