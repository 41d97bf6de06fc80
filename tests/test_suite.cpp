#include "core/suite.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "base/hash.hpp"
#include "exec/memo_cache.hpp"
#include "msg/sim_network.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"

namespace servet::core {
namespace {

sim::MachineSpec small_machine() {
    sim::zoo::SyntheticOptions options;
    options.cores = 4;
    options.l1_size = 16 * KiB;
    options.l2_size = 256 * KiB;
    options.l2_sharing = 2;
    options.jitter = 0.01;
    return sim::zoo::synthetic(options);
}

SuiteOptions fast_options() {
    SuiteOptions options;
    options.mcalibrator.max_size = 2 * MiB;
    options.mcalibrator.repeats = 3;
    return options;
}

TEST(PhaseTimer, AccumulatesRepeatedRecordings) {
    std::map<std::string, Seconds> sink;
    PhaseTimer timer(sink);
    timer.record("comm_costs", 1.0);
    timer.record("comm_costs", 2.0);
    timer.record("cache_size", 0.5);
    // A phase that runs in several pieces reports its total — record()
    // must add, not overwrite.
    EXPECT_DOUBLE_EQ(sink["comm_costs"], 3.0);
    EXPECT_DOUBLE_EQ(sink["cache_size"], 0.5);
}

TEST(PhaseTimer, TimeReturnsBodyResultAndRecords) {
    std::map<std::string, Seconds> sink;
    PhaseTimer timer(sink);
    const int value = timer.time("phase", [] { return 7; });
    EXPECT_EQ(value, 7);
    ASSERT_EQ(sink.count("phase"), 1u);
    EXPECT_GE(sink["phase"], 0.0);
}

TEST(Suite, RunsAllPhasesOnMulticore) {
    SimPlatform platform(small_machine());
    msg::SimNetwork network(platform.spec());
    const SuiteResult result = run_suite(platform, &network, fast_options());

    ASSERT_EQ(result.cache_levels.size(), 2u);
    EXPECT_EQ(result.cache_levels[0].size, 16 * KiB);
    EXPECT_EQ(result.cache_levels[1].size, 256 * KiB);

    ASSERT_TRUE(result.has_shared_caches);
    ASSERT_EQ(result.shared_caches.size(), 2u);
    ASSERT_EQ(result.shared_caches[1].groups.size(), 2u);
    EXPECT_EQ(result.shared_caches[1].groups[0], (std::vector<CoreId>{0, 1}));

    ASSERT_TRUE(result.has_mem_overhead);
    EXPECT_GT(result.mem_overhead.reference_bandwidth, 0.0);

    ASSERT_TRUE(result.has_comm);
    EXPECT_EQ(result.comm.probe_message, 16 * KiB);  // the detected L1 size
    EXPECT_EQ(result.comm.layers.size(), 2u);

    // Table I bookkeeping: all four phases timed.
    EXPECT_EQ(result.phase_seconds.size(), 4u);
    for (const auto& [phase, seconds] : result.phase_seconds) EXPECT_GE(seconds, 0.0);
}

TEST(Suite, UnicoreSkipsPairwisePhases) {
    SimPlatform platform(sim::zoo::athlon3200());
    SuiteOptions options = fast_options();
    const SuiteResult result = run_suite(platform, nullptr, options);
    EXPECT_FALSE(result.has_shared_caches);
    EXPECT_FALSE(result.has_mem_overhead);
    EXPECT_FALSE(result.has_comm);
    EXPECT_EQ(result.cache_levels.size(), 2u);
}

TEST(Suite, NullNetworkSkipsComm) {
    SimPlatform platform(small_machine());
    const SuiteResult result = run_suite(platform, nullptr, fast_options());
    EXPECT_FALSE(result.has_comm);
    EXPECT_TRUE(result.has_mem_overhead);
}

TEST(Suite, PhaseTogglesRespected) {
    SimPlatform platform(small_machine());
    msg::SimNetwork network(platform.spec());
    SuiteOptions options = fast_options();
    options.run_shared_cache = false;
    options.run_mem_overhead = false;
    const SuiteResult result = run_suite(platform, &network, options);
    EXPECT_FALSE(result.has_shared_caches);
    EXPECT_FALSE(result.has_mem_overhead);
    EXPECT_TRUE(result.has_comm);
}

TEST(Suite, ParallelJobsMatchSerialOnSmallMachine) {
    // Cheap determinism check that rides in the fast tier (and under
    // TSan in CI); the heavyweight zoo machines live in
    // test_parallel_suite.cpp.
    SuiteOptions serial_options = fast_options();
    SuiteOptions parallel_options = fast_options();
    parallel_options.jobs = 3;

    SimPlatform serial_platform(small_machine());
    msg::SimNetwork serial_network(serial_platform.spec());
    const SuiteResult serial = run_suite(serial_platform, &serial_network, serial_options);

    SimPlatform parallel_platform(small_machine());
    msg::SimNetwork parallel_network(parallel_platform.spec());
    const SuiteResult parallel =
        run_suite(parallel_platform, &parallel_network, parallel_options);

    EXPECT_TRUE(serial.measurements_equal(parallel));
}

TEST(Suite, ToProfileCarriesEverything) {
    SimPlatform platform(small_machine());
    msg::SimNetwork network(platform.spec());
    const SuiteResult result = run_suite(platform, &network, fast_options());
    const Profile profile =
        result.to_profile(platform.name(), platform.core_count(), platform.page_size());

    EXPECT_EQ(profile.machine, platform.name());
    EXPECT_EQ(profile.cores, 4);
    ASSERT_EQ(profile.caches.size(), 2u);
    EXPECT_EQ(profile.caches[1].size, 256 * KiB);
    EXPECT_EQ(profile.caches[1].groups.size(), 2u);
    EXPECT_GT(profile.memory.reference_bandwidth, 0.0);
    EXPECT_EQ(profile.comm.size(), result.comm.layers.size());
    EXPECT_EQ(profile.phase_seconds.size(), 4u);

    // And the profile round-trips through the file format.
    const auto reparsed = Profile::parse(profile.serialize());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*reparsed, profile);
}

/// Forwards everything to a SimPlatform except the copy-bandwidth probes,
/// which always throw — only the mem_overhead phase uses those, so a
/// suite run through this wrapper fails exactly one phase.
class BrokenCopyPlatform final : public Platform {
  public:
    explicit BrokenCopyPlatform(Platform& inner) : inner_(&inner) {}

    [[nodiscard]] std::string name() const override {
        return "brokencopy(" + inner_->name() + ")";
    }
    [[nodiscard]] int core_count() const override { return inner_->core_count(); }
    [[nodiscard]] Bytes page_size() const override { return inner_->page_size(); }
    [[nodiscard]] std::uint64_t fingerprint() const override {
        const std::uint64_t inner = inner_->fingerprint();
        return inner == 0 ? 0 : inner ^ mix64(0xb20c3u);
    }
    [[nodiscard]] bool forkable() const override { return inner_->forkable(); }
    [[nodiscard]] std::unique_ptr<Platform> fork(std::uint64_t noise_salt,
                                                 std::uint64_t placement_salt) const override {
        std::unique_ptr<Platform> inner = inner_->fork(noise_salt, placement_salt);
        if (inner == nullptr) return nullptr;
        return std::unique_ptr<Platform>(new BrokenCopyPlatform(std::move(inner)));
    }

    [[nodiscard]] Cycles traverse_cycles(CoreId core, Bytes array_bytes, Bytes stride,
                                         int passes, bool fresh_placement) override {
        return inner_->traverse_cycles(core, array_bytes, stride, passes, fresh_placement);
    }
    [[nodiscard]] std::vector<Cycles> traverse_cycles_concurrent(
        const std::vector<CoreId>& cores, Bytes array_bytes, Bytes stride, int passes,
        bool fresh_placement) override {
        return inner_->traverse_cycles_concurrent(cores, array_bytes, stride, passes,
                                                  fresh_placement);
    }
    [[nodiscard]] BytesPerSecond copy_bandwidth(CoreId, Bytes) override {
        throw std::runtime_error("memory probe exploded");
    }
    [[nodiscard]] std::vector<BytesPerSecond> copy_bandwidth_concurrent(
        const std::vector<CoreId>&, Bytes) override {
        throw std::runtime_error("memory probe exploded");
    }

  private:
    explicit BrokenCopyPlatform(std::unique_ptr<Platform> owned)
        : inner_(owned.get()), owned_(std::move(owned)) {}

    Platform* inner_;
    std::unique_ptr<Platform> owned_;
};

TEST(PhaseIsolation, FailedPhaseIsRecordedWhileOthersComplete) {
    SimPlatform inner(small_machine());
    BrokenCopyPlatform platform(inner);
    msg::SimNetwork network(inner.spec());
    const SuiteResult result = run_suite(platform, &network, fast_options());

    ASSERT_TRUE(result.partial());
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].phase, "mem_overhead");
    EXPECT_NE(result.errors[0].message.find("memory probe exploded"), std::string::npos);

    // The failed phase keeps its defaults...
    EXPECT_FALSE(result.has_mem_overhead);
    // ...and every other phase still ran to completion.
    ASSERT_EQ(result.cache_levels.size(), 2u);
    EXPECT_EQ(result.cache_levels[0].size, 16 * KiB);
    EXPECT_TRUE(result.has_shared_caches);
    EXPECT_TRUE(result.has_comm);
}

/// A single-core machine whose mcalibrator curve is flat apart from two
/// steps: one at 1 KiB, read as the L1 peak, and one smeared over 2-8 KiB,
/// below every candidate size of the probabilistic estimator.
class SteppedCurvePlatform final : public Platform {
  public:
    [[nodiscard]] std::string name() const override { return "stepped-curve"; }
    [[nodiscard]] int core_count() const override { return 1; }
    [[nodiscard]] Bytes page_size() const override { return 4 * KiB; }
    [[nodiscard]] Cycles traverse_cycles(CoreId, Bytes array_bytes, Bytes, int, bool) override {
        if (array_bytes < 1 * KiB) return 2.0;
        if (array_bytes < 4 * KiB) return 6.0;
        return array_bytes < 8 * KiB ? 12.0 : 24.0;
    }
    [[nodiscard]] std::vector<Cycles> traverse_cycles_concurrent(
        const std::vector<CoreId>& cores, Bytes array_bytes, Bytes stride, int passes,
        bool fresh_placement) override {
        const Cycles cycles =
            traverse_cycles(cores.front(), array_bytes, stride, passes, fresh_placement);
        return std::vector<Cycles>(cores.size(), cycles);
    }
    [[nodiscard]] BytesPerSecond copy_bandwidth(CoreId, Bytes) override { return 1e9; }
    [[nodiscard]] std::vector<BytesPerSecond> copy_bandwidth_concurrent(
        const std::vector<CoreId>& cores, Bytes) override {
        return std::vector<BytesPerSecond>(cores.size(), 1e9);
    }
};

TEST(PhaseIsolation, DetectionErrorIsRecordedNotAborted) {
    SteppedCurvePlatform platform;
    SuiteOptions options;
    options.mcalibrator.min_size = 512;
    options.mcalibrator.max_size = 64 * KiB;
    options.mcalibrator.repeats = 1;
    const SuiteResult result = run_suite(platform, nullptr, options);

    ASSERT_TRUE(result.partial());
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].phase, "cache_size");
    EXPECT_EQ(result.errors[0].message.rfind("detect.no_candidate: ", 0), 0u)
        << result.errors[0].message;
    EXPECT_TRUE(result.cache_levels.empty());
    const Profile profile =
        result.to_profile(platform.name(), platform.core_count(), platform.page_size());
    EXPECT_EQ(profile.errors.count("cache_size"), 1u);
}

TEST(PhaseIsolation, PartialProfileRoundTripsErrorsSection) {
    SimPlatform inner(small_machine());
    BrokenCopyPlatform platform(inner);
    msg::SimNetwork network(inner.spec());
    const SuiteResult result = run_suite(platform, &network, fast_options());
    ASSERT_TRUE(result.partial());

    const Profile profile =
        result.to_profile(platform.name(), platform.core_count(), platform.page_size());
    ASSERT_EQ(profile.errors.count("mem_overhead"), 1u);

    const std::string text = profile.serialize();
    EXPECT_NE(text.find("[errors]"), std::string::npos);
    const auto reparsed = Profile::parse(text);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*reparsed, profile);
}

TEST(PhaseIsolation, MemoIsSavedDespitePhaseFailure) {
    // The successful phases' measurements must not be lost: a rerun after
    // fixing the failure should replay them from the memo file.
    SimPlatform inner(small_machine());
    BrokenCopyPlatform platform(inner);
    msg::SimNetwork network(inner.spec());
    SuiteOptions options = fast_options();
    const std::string path = testing::TempDir() + "memo_partial.txt";
    options.memo_path = path;
    const SuiteResult result = run_suite(platform, &network, options);
    ASSERT_TRUE(result.partial());

    exec::MemoCache memo;
    EXPECT_EQ(memo.load_file(path), exec::MemoLoad::Loaded);
    EXPECT_GT(memo.size(), 0u);
    std::remove(path.c_str());
}

TEST(Suite, ProfileQueriesWorkOnSuiteOutput) {
    SimPlatform platform(small_machine());
    msg::SimNetwork network(platform.spec());
    const SuiteResult result = run_suite(platform, &network, fast_options());
    const Profile profile = result.to_profile(platform.name(), 4, platform.page_size());

    EXPECT_TRUE(profile.shares_cache(1, {0, 1}));
    EXPECT_FALSE(profile.shares_cache(1, {1, 2}));
    EXPECT_EQ(profile.comm_layer_of({0, 1}), 0);  // shared-L2 layer is fastest
    EXPECT_TRUE(profile.comm_latency({0, 2}, 8 * KiB).has_value());
}

}  // namespace
}  // namespace servet::core
