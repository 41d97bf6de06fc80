// Failure injection (DESIGN.md testing strategy): detection must survive
// interference spikes when measured through the robust decorator.
#include "platform/decorators.hpp"

#include <gtest/gtest.h>

#include "core/cache_size.hpp"
#include "core/mem_overhead.hpp"
#include "obs/metrics.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"

namespace servet {
namespace {

sim::MachineSpec quiet_synthetic() {
    sim::zoo::SyntheticOptions options;
    options.cores = 4;
    options.l1_size = 16 * KiB;
    options.l2_size = 512 * KiB;
    options.jitter = 0.0;
    return sim::zoo::synthetic(options);
}

/// Spikes injected so far by every FlakyPlatform in the process; tests
/// read its delta.
std::uint64_t spikes_so_far() {
    return obs::counter("platform.fault.spikes", obs::Stability::Stable).value();
}

TEST(FlakyPlatform, InjectsSpikesDeterministically) {
    const std::uint64_t before = spikes_so_far();
    SimPlatform inner(quiet_synthetic());
    FlakyPlatform flaky_a(inner, 0.3, 10.0, 99);
    SimPlatform inner_b(quiet_synthetic());
    FlakyPlatform flaky_b(inner_b, 0.3, 10.0, 99);
    for (int i = 0; i < 20; ++i) {
        EXPECT_DOUBLE_EQ(flaky_a.traverse_cycles(0, 8 * KiB, 1 * KiB, 1, true),
                         flaky_b.traverse_cycles(0, 8 * KiB, 1 * KiB, 1, true));
    }
    EXPECT_GT(spikes_so_far() - before, 0u);
}

TEST(FlakyPlatform, ZeroProbabilityIsTransparent) {
    const std::uint64_t before = spikes_so_far();
    SimPlatform inner(quiet_synthetic());
    FlakyPlatform flaky(inner, 0.0, 10.0, 7);
    SimPlatform reference(quiet_synthetic());
    EXPECT_DOUBLE_EQ(flaky.traverse_cycles(0, 8 * KiB, 1 * KiB, 2, false),
                     reference.traverse_cycles(0, 8 * KiB, 1 * KiB, 2, false));
    EXPECT_EQ(spikes_so_far() - before, 0u);
}

TEST(FlakyPlatform, SpikesDeflateBandwidth) {
    SimPlatform inner(quiet_synthetic());
    FlakyPlatform flaky(inner, 1.0, 4.0, 7);  // every measurement spiked
    SimPlatform reference(quiet_synthetic());
    EXPECT_NEAR(flaky.copy_bandwidth(0, 16 * MiB) * 4.0,
                reference.copy_bandwidth(0, 16 * MiB), 1e3);
}

TEST(RobustPlatform, MedianRejectsMinoritySpikes) {
    SimPlatform inner(quiet_synthetic());
    FlakyPlatform flaky(inner, 0.2, 20.0, 31);
    RobustPlatform robust(flaky, 5);
    SimPlatform reference(quiet_synthetic());
    const Cycles truth = reference.traverse_cycles(0, 8 * KiB, 1 * KiB, 2, false);
    for (int i = 0; i < 10; ++i) {
        const Cycles measured = robust.traverse_cycles(0, 8 * KiB, 1 * KiB, 2, false);
        EXPECT_NEAR(measured, truth, 0.15 * truth) << "iteration " << i;
    }
}

TEST(RobustPlatform, ConcurrentMediansPerElement) {
    SimPlatform inner(quiet_synthetic());
    RobustPlatform robust(inner, 3);
    const auto cycles = robust.traverse_cycles_concurrent({0, 1}, 8 * KiB, 1 * KiB, 2, false);
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_GT(cycles[0], 0.0);
}

TEST(RobustPlatform, EngineSelectionSurvivesWrappingAndFork) {
    // The decorator forwards fork() to the inner platform, so a
    // reference-engine SimPlatform stays on the reference engine through
    // a robust wrapper and its replicas — and, by the engine-equivalence
    // contract (docs/simulator.md), measures the same cycles either way.
    SimPlatform batched_inner(quiet_synthetic());
    SimPlatform reference_inner(quiet_synthetic());
    reference_inner.set_engine(SimPlatform::Engine::Reference);
    RobustPlatform batched(batched_inner, 3);
    RobustPlatform reference(reference_inner, 3);

    EXPECT_DOUBLE_EQ(batched.traverse_cycles(0, 64 * KiB, 1 * KiB, 2, false),
                     reference.traverse_cycles(0, 64 * KiB, 1 * KiB, 2, false));

    const auto batched_fork = batched.fork(5, 9);
    const auto reference_fork = reference.fork(5, 9);
    EXPECT_DOUBLE_EQ(batched_fork->traverse_cycles(0, 64 * KiB, 1 * KiB, 2, true),
                     reference_fork->traverse_cycles(0, 64 * KiB, 1 * KiB, 2, true));
}

TEST(RobustPlatform, NamePropagates) {
    SimPlatform inner(quiet_synthetic());
    RobustPlatform robust(inner, 3);
    EXPECT_NE(robust.name().find("robust("), std::string::npos);
    EXPECT_NE(robust.name().find("synthetic"), std::string::npos);
}

TEST(FailureInjection, CacheDetectionSurvivesThroughRobustPlatform) {
    // End to end: 10% of measurements spiked 8x. Raw detection may or may
    // not survive; through a median-of-5 it must recover exact sizes.
    SimPlatform inner(quiet_synthetic());
    const std::uint64_t before = spikes_so_far();
    FlakyPlatform flaky(inner, 0.10, 8.0, 1234);
    RobustPlatform robust(flaky, 5);

    core::McalibratorOptions mc;
    mc.max_size = 3 * MiB;
    const auto levels = core::detect_cache_levels(robust, mc);
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_EQ(levels[0].size, 16 * KiB);
    EXPECT_EQ(levels[1].size, 512 * KiB);
    EXPECT_GT(spikes_so_far() - before, 0u) << "the fault injector must have fired";
}

TEST(FailureInjection, MemoryTiersSurviveThroughRobustPlatform) {
    sim::MachineSpec spec = sim::zoo::finis_terrae();
    spec.measurement_jitter = 0.0;
    SimPlatform inner(spec);
    FlakyPlatform flaky(inner, 0.10, 5.0, 77);
    RobustPlatform robust(flaky, 5);

    core::MemOverheadOptions options;
    options.array_bytes = 36 * MiB;
    options.only_with_core = 0;
    const auto result = core::characterize_memory_overhead(robust, options);
    ASSERT_EQ(result.tiers.size(), 2u);
    EXPECT_NEAR(result.tiers[0].bandwidth / result.reference_bandwidth, 0.55, 0.05);
}

}  // namespace
}  // namespace servet
