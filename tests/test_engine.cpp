#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "base/hash.hpp"
#include "msg/sim_network.hpp"
#include "obs/metrics.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"

namespace servet::sim {
namespace {

MachineSpec quiet(MachineSpec spec) {
    spec.measurement_jitter = 0.0;
    return spec;
}

TEST(Engine, L1ResidentArrayCostsL1HitTime) {
    MachineSim machine(quiet(zoo::dunnington()));
    // 16KB fits the 32KB L1; steady-state cost == L1 hit cycles.
    const Cycles c = machine.traverse_one(0, 16 * KiB, 1 * KiB, 3);
    EXPECT_NEAR(c, machine.spec().levels[0].hit_cycles, 0.2);
}

TEST(Engine, HugeArrayCostsMemoryLatency) {
    MachineSim machine(quiet(zoo::dempsey()));
    const Cycles c = machine.traverse_one(0, 32 * MiB, 1 * KiB, 3);
    EXPECT_NEAR(c, machine.spec().memory.latency_cycles, 15.0);
}

TEST(Engine, ColoringGivesExactCapacityCliffs) {
    MachineSpec spec = quiet(zoo::finis_terrae());
    spec.page_policy = PagePolicy::Coloring;
    MachineSim machine(spec);
    // With page coloring every level behaves virtually indexed: exactly at
    // capacity all hits, just past it all misses (stride divides size).
    EXPECT_NEAR(machine.traverse_one(0, 9 * MiB, 1 * KiB, 3), 30.0, 0.5);
    EXPECT_NEAR(machine.traverse_one(0, 10 * MiB, 1 * KiB, 3), 300.0, 5.0);
}

TEST(Engine, RandomPlacementSmearsTransition) {
    // Without coloring, a physically indexed cache misses *before* its
    // capacity (Section III-A2): at 8MB of a 9MB L3 some page sets already
    // overflow.
    MachineSim machine(quiet(zoo::finis_terrae()));
    const Cycles at_8mb = machine.traverse_one(0, 8 * MiB, 1 * KiB, 3);
    EXPECT_GT(at_8mb, 40.0);   // visibly above the 30-cycle L3 plateau
    EXPECT_LT(at_8mb, 290.0);  // but not fully missing either
}

TEST(Engine, FreshPlacementVariesStaticDoesNot) {
    MachineSim machine(quiet(zoo::finis_terrae()));
    const Cycles s1 = machine.traverse_one(0, 8 * MiB, 1 * KiB, 2, /*fresh=*/false);
    const Cycles s2 = machine.traverse_one(0, 8 * MiB, 1 * KiB, 2, /*fresh=*/false);
    EXPECT_DOUBLE_EQ(s1, s2) << "static placement must reproduce exactly";

    bool varied = false;
    const Cycles f1 = machine.traverse_one(0, 8 * MiB, 1 * KiB, 2, /*fresh=*/true);
    for (int i = 0; i < 4 && !varied; ++i)
        varied = machine.traverse_one(0, 8 * MiB, 1 * KiB, 2, /*fresh=*/true) != f1;
    EXPECT_TRUE(varied) << "fresh placements should differ at a smeared size";
}

TEST(Engine, SharedCacheThrashing) {
    // Dunnington: cores 0 and 12 share a 3MB L2. Two 2MB arrays cannot
    // coexist -> the pair's cycles at least double the solo run (Fig. 5).
    MachineSim machine(quiet(zoo::dunnington()));
    const Bytes array = 2 * MiB;
    const Cycles solo = machine.traverse_one(0, array, 1 * KiB, 3, false);
    const auto pair = machine.traverse({0, 12}, array, 1 * KiB, 3, false);
    EXPECT_GT(pair.cycles_per_access[0] / solo, 2.0);
    // Cores 0 and 1 have different L2s: no thrash.
    const auto unshared = machine.traverse({0, 1}, array, 1 * KiB, 3, false);
    EXPECT_LT(unshared.cycles_per_access[0] / solo, 1.5);
}

TEST(Engine, ConcurrentResultsAlignWithCores) {
    MachineSim machine(quiet(zoo::dunnington()));
    const auto result = machine.traverse({5, 17}, 2 * MiB, 1 * KiB, 2, false);
    ASSERT_EQ(result.cycles_per_access.size(), 2u);
    EXPECT_GT(result.accesses_per_core, 0u);
}

TEST(Engine, PrefetcherHidesSmallStrideMisses) {
    // The paper's rationale for the 1KB stride: a 256B stride is within
    // prefetch reach, so capacity misses get hidden and the measured
    // cycles stay near the hit time even past the cache size.
    MachineSpec spec = quiet(zoo::dempsey());
    MachineSim with(spec);
    const Cycles hidden = with.traverse_one(0, 8 * MiB, 256, 2);

    spec.prefetcher.enabled = false;
    MachineSim without(spec);
    const Cycles exposed = without.traverse_one(0, 8 * MiB, 256, 2);

    EXPECT_LT(hidden, 0.3 * exposed)
        << "prefetcher should hide most misses at 256B stride";
    // And at the probe stride of 1KB the prefetcher must not help.
    MachineSim with2(quiet(zoo::dempsey()));
    const Cycles probe = with2.traverse_one(0, 8 * MiB, 1 * KiB, 2);
    EXPECT_GT(probe, 0.8 * exposed);
}

TEST(Engine, CopyBandwidthCacheResidentIsFast) {
    MachineSim machine(quiet(zoo::dunnington()));
    const BytesPerSecond cached = machine.copy_bandwidth(0, {0}, 512 * KiB);
    const BytesPerSecond streaming = machine.copy_bandwidth(0, {0}, 64 * MiB);
    EXPECT_GT(cached, streaming);
    EXPECT_DOUBLE_EQ(streaming, machine.spec().memory.single_core_bandwidth);
}

TEST(Engine, CopyBandwidthContention) {
    MachineSim machine(quiet(zoo::finis_terrae()));
    const BytesPerSecond solo = machine.copy_bandwidth(0, {0}, 64 * MiB);
    const BytesPerSecond paired = machine.copy_bandwidth(0, {0, 1}, 64 * MiB);
    EXPECT_NEAR(paired / solo, 0.55, 1e-9);
}

TEST(Engine, MemoryLatencyMultiplierAppliedToMisses) {
    // Two FT bus-mates streaming past every cache: per-access cost rises
    // by the bus queueing factor (1.35) relative to solo.
    MachineSim machine(quiet(zoo::finis_terrae()));
    const Cycles solo = machine.traverse_one(0, 32 * MiB, 1 * KiB, 2, false);
    const auto pair = machine.traverse({0, 1}, 32 * MiB, 1 * KiB, 2, false);
    EXPECT_NEAR(pair.cycles_per_access[0] / solo, 1.35, 0.06);
}

TEST(Engine, TotalAccessCounterAdvances) {
    MachineSim machine(quiet(zoo::dempsey()));
    const std::uint64_t before = machine.total_accesses();
    (void)machine.traverse_one(0, 64 * KiB, 1 * KiB, 1);
    EXPECT_GT(machine.total_accesses(), before);
}

TEST(Engine, ReferenceEngineAgreesWithBatched) {
    // The scalar oracle and the batched pipeline must produce identical
    // results from identical simulator state. Fresh placement advances
    // run_counter_ identically in both, so mirrored call sequences on two
    // instances stay in lockstep (the zoo-wide sweep lives in
    // test_batched_equivalence).
    MachineSim batched(quiet(zoo::dunnington()));
    MachineSim reference(quiet(zoo::dunnington()));
    const auto b = batched.traverse({0, 12}, 2 * MiB, 1 * KiB, 3, false);
    const auto r = reference.traverse_reference({0, 12}, 2 * MiB, 1 * KiB, 3, false);
    ASSERT_EQ(b.cycles_per_access.size(), r.cycles_per_access.size());
    EXPECT_EQ(b.accesses_per_core, r.accesses_per_core);
    for (std::size_t i = 0; i < b.cycles_per_access.size(); ++i)
        EXPECT_DOUBLE_EQ(b.cycles_per_access[i], r.cycles_per_access[i]);
    EXPECT_EQ(batched.total_accesses(), reference.total_accesses());
}

TEST(Engine, ReferenceEngineSmearedSizeFreshPlacement) {
    // The hard case: random placement, physically indexed L3 partially
    // overflowing, prefetcher active at a 256B stride.
    MachineSim batched(quiet(zoo::finis_terrae()));
    MachineSim reference(quiet(zoo::finis_terrae()));
    EXPECT_DOUBLE_EQ(batched.traverse_one(0, 8 * MiB, 256, 2, true),
                     reference.traverse_reference({0}, 8 * MiB, 256, 2, true)
                         .cycles_per_access.front());
}

TEST(EngineDeath, RejectsBadArguments) {
    MachineSim machine(quiet(zoo::dempsey()));
    EXPECT_DEATH((void)machine.traverse({}, KiB, KiB, 1), "");
    EXPECT_DEATH((void)machine.traverse({5}, KiB, KiB, 1), "");  // core out of range
    EXPECT_DEATH((void)machine.traverse({0}, KiB, KiB, 0), "");
    EXPECT_DEATH((void)machine.traverse({0, 0}, KiB, KiB, 1), "distinct");
    EXPECT_DEATH((void)machine.traverse_reference({1, 1}, KiB, KiB, 1), "distinct");
}

// ---- replicas: what a fork shares, and that sharing changes no answer ----

MachineSpec with_tlb(MachineSpec spec) {
    spec.tlb.enabled = true;
    spec.tlb.entries = 16;
    spec.tlb.miss_cycles = 30;
    return spec;
}

MachineSpec reseeded(MachineSpec spec, std::uint64_t seed) {
    spec.seed = seed;
    return spec;
}

/// Cycles and Stable counter deltas of one two-core traversal.
struct Observed {
    TraversalResult result;
    std::map<std::string, std::uint64_t> deltas;
};

Observed observe_traverse(MachineSim& machine, Bytes array_bytes, bool fresh_placement) {
    const std::map<std::string, std::uint64_t> before = obs::registry().stable_counters();
    Observed seen;
    seen.result = machine.traverse({0, 1}, array_bytes, 256, 2, fresh_placement);
    for (const auto& [key, value] : obs::registry().stable_counters()) {
        const auto it = before.find(key);
        const std::uint64_t delta = value - (it == before.end() ? 0 : it->second);
        if (delta != 0) seen.deltas[key] = delta;
    }
    return seen;
}

void expect_same(const Observed& a, const Observed& b) {
    EXPECT_EQ(a.result.accesses_per_core, b.result.accesses_per_core);
    ASSERT_EQ(a.result.cycles_per_access.size(), b.result.cycles_per_access.size());
    for (std::size_t i = 0; i < a.result.cycles_per_access.size(); ++i)
        EXPECT_EQ(a.result.cycles_per_access[i], b.result.cycles_per_access[i]) << i;
    EXPECT_EQ(a.deltas, b.deltas);
}

TEST(Replica, SharesSpecAndFirstTraversalMatchesFreshSimulator) {
    // A TLB-enabled machine, so the lazily built TLBs are covered too.
    const MachineSpec spec = with_tlb(quiet(zoo::dempsey()));
    const MachineSim parent(spec);
    const std::uint64_t seed = spec.seed ^ mix64(77);
    MachineSim replica = parent.replica(seed);
    EXPECT_EQ(&replica.spec(), &parent.spec());
    EXPECT_EQ(replica.seed(), seed);
    EXPECT_EQ(replica.fingerprint(), reseeded(spec, seed).fingerprint());

    for (const bool fresh : {true, false}) {
        MachineSim fresh_sim(reseeded(spec, seed));
        MachineSim copy = parent.replica(seed);
        const Observed expected = observe_traverse(fresh_sim, 3 * MiB, fresh);
        const Observed seen = observe_traverse(copy, 3 * MiB, fresh);
        EXPECT_GT(seen.deltas.at("sim.tlb.misses"), 0u);
        expect_same(seen, expected);
    }
}

TEST(Replica, MovedSimulatorKeepsItsAnswers) {
    const MachineSpec spec = with_tlb(quiet(zoo::dunnington()));
    MachineSim twin(spec);
    auto original = std::make_unique<MachineSim>(spec);
    (void)twin.traverse({0, 12}, 1 * MiB, 1 * KiB, 1);
    (void)original->traverse({0, 12}, 1 * MiB, 1 * KiB, 1);  // builds its caches
    MachineSim moved(std::move(*original));
    original.reset();  // the moved-from shell and its old storage are gone
    expect_same(observe_traverse(moved, 4 * MiB, true), observe_traverse(twin, 4 * MiB, true));
}

TEST(Replica, PlatformForksShareSpecAndKeepIdentity) {
    const MachineSpec spec = zoo::dempsey();  // jittered: noise streams matter
    const SimPlatform parent(spec);
    const std::uint64_t salt = 0x5a17;
    const auto unsalted = parent.fork(3, 0);
    const auto salted = parent.fork(3, salt);
    auto& unsalted_sim = dynamic_cast<SimPlatform&>(*unsalted);
    auto& salted_sim = dynamic_cast<SimPlatform&>(*salted);
    EXPECT_EQ(&unsalted_sim.spec(), &parent.spec());
    EXPECT_EQ(&salted_sim.spec(), &parent.spec());

    // name() and fingerprint() are those of a deep copy whose seed carries
    // the placement salt, as replicas have always reported.
    const std::uint64_t salted_seed = spec.seed ^ mix64(salt);
    EXPECT_EQ(unsalted->name(), "sim:" + spec.name);
    EXPECT_EQ(salted->name(), "sim:" + spec.name);
    EXPECT_EQ(unsalted->fingerprint(), spec.fingerprint());
    EXPECT_EQ(salted->fingerprint(), reseeded(spec, salted_seed).fingerprint());
    EXPECT_NE(salted->fingerprint(), parent.fingerprint());
    const auto salted_twice = salted->fork(4, salt + 1);
    EXPECT_EQ(salted_twice->fingerprint(),
              reseeded(spec, salted_seed ^ mix64(salt + 1)).fingerprint());

    // A salted fork simulates the reseeded machine exactly.
    MachineSim fresh(reseeded(quiet(spec), salted_seed));
    const SimPlatform quiet_parent(quiet(spec));
    const auto quiet_fork = quiet_parent.fork(3, salt);
    expect_same(observe_traverse(dynamic_cast<SimPlatform&>(*quiet_fork).machine(), 3 * MiB,
                                 true),
                observe_traverse(fresh, 3 * MiB, true));
}

TEST(Replica, NetworkForksShareSpecAndMovesKeepAnswers) {
    const MachineSpec spec = zoo::fat_tree_small();
    const msg::SimNetwork parent(spec);
    const auto fork = parent.fork(9);
    const auto& fork_net = dynamic_cast<const msg::SimNetwork&>(*fork);
    EXPECT_EQ(&fork_net.model().spec(), &parent.model().spec());
    EXPECT_EQ(fork->name(), parent.name());
    EXPECT_EQ(fork->fingerprint(), spec.fingerprint());

    // Moving a network must not leave its model pointing at the old
    // object: the moved network keeps answering like an unmoved twin.
    msg::SimNetwork twin(spec);
    std::optional<msg::SimNetwork> original(std::in_place, spec);
    msg::SimNetwork moved(std::move(*original));
    original.reset();
    const CorePair inter{0, spec.n_cores - 1};
    const CorePair intra{0, 1};
    EXPECT_EQ(moved.model().cost(inter, KiB).layer, twin.model().cost(inter, KiB).layer);
    EXPECT_EQ(moved.pingpong_latency(inter, 4 * KiB, 3), twin.pingpong_latency(inter, 4 * KiB, 3));
    EXPECT_EQ(moved.concurrent_latency({intra, inter}, 64 * KiB, 2),
              twin.concurrent_latency({intra, inter}, 64 * KiB, 2));
}

TEST(EngineDeath, InvalidSpecRejected) {
    MachineSpec spec = zoo::dempsey();
    spec.levels[0].geometry.size = spec.levels[1].geometry.size;
    EXPECT_DEATH(MachineSim{spec}, "validation");
    // Cache state is built by the first traversal, but a spec that leaves
    // a core without a cache instance is still refused at construction.
    MachineSpec uncovered = zoo::dempsey();
    uncovered.levels[1].instances.pop_back();
    EXPECT_DEATH(MachineSim{uncovered}, "validation");
}

}  // namespace
}  // namespace servet::sim
