// The determinism contract of the parallel measurement engine: running
// the detection suite with jobs=4 must produce measurements — and a
// serialized profile — identical to the serial run, because every task's
// RNG seeds derive from its stable key, never from scheduling order.
// Also covers the cross-invocation memo: a warm second run replays every
// measurement from the memo file and still reproduces the same result.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/suite.hpp"
#include "msg/sim_network.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"

namespace servet::core {
namespace {

/// Trimmed so each suite run takes seconds: short mcalibrator sweep,
/// two repeats, pairwise phases restricted to pairs containing core 0.
SuiteOptions trimmed_options(const sim::MachineSpec& spec) {
    SuiteOptions options;
    options.mcalibrator.max_size = 3 * spec.levels.back().geometry.size;
    options.mcalibrator.repeats = 2;
    options.shared_cache.only_with_core = 0;
    options.mem_overhead.only_with_core = 0;
    return options;
}

SuiteResult run_with(const sim::MachineSpec& spec, SuiteOptions options) {
    SimPlatform platform(spec);
    msg::SimNetwork network(platform.spec());
    return run_suite(platform, &network, options);
}

std::string stripped_profile_text(const SuiteResult& result, const sim::MachineSpec& spec) {
    Profile profile = result.to_profile(spec.name, spec.n_cores, spec.page_size);
    profile.phase_seconds.clear();  // wall clock legitimately differs between runs
    return profile.serialize();
}

/// jobs = 2 is the tightest shape: one pool worker, so the calling thread
/// must take phases of the fan-out itself. jobs = 4 lets every
/// downstream phase run at once.
void expect_parallel_equals_serial(const sim::MachineSpec& spec) {
    SuiteOptions serial_options = trimmed_options(spec);
    serial_options.jobs = 1;
    const SuiteResult serial = run_with(spec, serial_options);

    for (const int jobs : {2, 4}) {
        SCOPED_TRACE("jobs = " + std::to_string(jobs));
        SuiteOptions parallel_options = trimmed_options(spec);
        parallel_options.jobs = jobs;
        const SuiteResult parallel = run_with(spec, parallel_options);

        EXPECT_TRUE(serial.measurements_equal(parallel));
        EXPECT_TRUE(parallel.measurements_equal(serial));
        // The contract is byte-for-byte on the installable artifact, not
        // just ==-equality of in-memory structs — and the Stable counters
        // are schedule-invariant too.
        EXPECT_EQ(stripped_profile_text(serial, spec), stripped_profile_text(parallel, spec));
        EXPECT_EQ(serial.counters, parallel.counters);
    }
}

TEST(ParallelSuite, DempseyParallelEqualsSerial) {
    expect_parallel_equals_serial(sim::zoo::dempsey());
}

TEST(ParallelSuite, Nehalem2SParallelEqualsSerial) {
    expect_parallel_equals_serial(sim::zoo::nehalem2s());
}

TEST(ParallelSuite, FinisTerraeTwoNodesParallelEqualsSerial) {
    expect_parallel_equals_serial(sim::zoo::finis_terrae(2));
}

TEST(ParallelSuite, WarmMemoRunReplaysEveryMeasurement) {
    const sim::MachineSpec spec = sim::zoo::dempsey();
    const std::string path = testing::TempDir() + "parallel_suite_memo.txt";
    std::remove(path.c_str());

    SuiteOptions cold_options = trimmed_options(spec);
    cold_options.memo_path = path;
    const SuiteResult cold = run_with(spec, cold_options);
    EXPECT_GT(cold.counter("exec.memo.misses"), 0u);

    // Warm run from the saved memo, and in parallel for good measure:
    // every task replays, none re-measures, results identical.
    SuiteOptions warm_options = trimmed_options(spec);
    warm_options.memo_path = path;
    warm_options.jobs = 4;
    const SuiteResult warm = run_with(spec, warm_options);
    EXPECT_EQ(warm.counter("exec.memo.misses"), 0u);
    EXPECT_GT(warm.counter("exec.memo.hits"), 0u);
    EXPECT_TRUE(cold.measurements_equal(warm));
    EXPECT_EQ(stripped_profile_text(cold, spec), stripped_profile_text(warm, spec));

    std::remove(path.c_str());
}

TEST(ParallelSuite, MemoOffStillMatchesSerial) {
    const sim::MachineSpec spec = sim::zoo::dempsey();
    SuiteOptions options = trimmed_options(spec);
    options.use_memo = false;
    const SuiteResult no_memo = run_with(spec, options);
    EXPECT_EQ(no_memo.counter("exec.memo.hits"), 0u);

    const SuiteResult with_memo = run_with(spec, trimmed_options(spec));
    EXPECT_TRUE(no_memo.measurements_equal(with_memo));
}

}  // namespace
}  // namespace servet::core
