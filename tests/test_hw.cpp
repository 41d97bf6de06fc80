#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include "base/fs.hpp"
#include "hw/affinity.hpp"
#include "hw/kernels.hpp"
#include "hw/timer.hpp"
#include "hw/topology.hpp"

namespace servet::hw {
namespace {

TEST(Timer, TimestampMonotone) {
    const auto t0 = timestamp();
    const auto t1 = timestamp();
    EXPECT_GE(t1, t0);
}

TEST(Timer, FrequencyPlausible) {
    const double f = timestamp_frequency();
    EXPECT_GT(f, 1e6);    // at least MHz
    EXPECT_LT(f, 1e11);   // below 100 GHz
}

TEST(Timer, TicksToSecondsScales) {
    const double one_second = ticks_to_seconds(
        static_cast<std::uint64_t>(timestamp_frequency()));
    EXPECT_NEAR(one_second, 1.0, 0.01);
}

TEST(Timer, StopwatchMeasuresElapsed) {
    Stopwatch watch;
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
    EXPECT_GT(watch.elapsed_ticks(), 0u);
    EXPECT_GT(watch.elapsed_seconds(), 0.0);
    EXPECT_LT(watch.elapsed_seconds(), 5.0);
}

TEST(Affinity, CoreCountPositive) { EXPECT_GE(online_core_count(), 1); }

TEST(Affinity, PinToCoreZero) {
    // Core 0 always exists; pinning to it should succeed on Linux.
    EXPECT_TRUE(pin_current_thread(0));
    const CoreId where = current_core();
    if (where >= 0) {
        EXPECT_EQ(where, 0);
    }
}

TEST(Affinity, PinToNegativeFails) { EXPECT_FALSE(pin_current_thread(-1)); }

TEST(Kernels, TraversalBufferAccessCount) {
    TraversalBuffer buffer(8 * KiB, 1 * KiB);
    EXPECT_EQ(buffer.accesses_per_pass(), 8u);
    EXPECT_EQ(buffer.size_bytes(), 8 * KiB);
}

TEST(Kernels, TraversalRoundsDownToElements) {
    TraversalBuffer buffer(1025, 1024);
    EXPECT_EQ(buffer.size_bytes(), 1024u);
    EXPECT_EQ(buffer.accesses_per_pass(), 1u);
}

TEST(Kernels, TraverseOnceAccumulates) {
    TraversalBuffer buffer(4 * KiB, 1 * KiB);
    const auto first = buffer.traverse_once();
    const auto second = buffer.traverse_once();
    EXPECT_GT(second, first);  // aux carries across passes
}

TEST(Kernels, MeasureCyclesPositiveAndStable) {
    TraversalBuffer buffer(64 * KiB, 1 * KiB);
    const Cycles c = buffer.measure_cycles_per_access(5);
    EXPECT_GT(c, 0.0);
    EXPECT_LT(c, 1e7);
}

TEST(Kernels, BiggerThanCacheIsSlower) {
    // Even without knowing this host's hierarchy, a 64MB strided walk
    // must cost more per access than a 16KB one.
    TraversalBuffer small(16 * KiB, 1 * KiB);
    TraversalBuffer big(64 * MiB, 1 * KiB);
    const Cycles fast = small.measure_cycles_per_access(20);
    const Cycles slow = big.measure_cycles_per_access(3);
    EXPECT_GT(slow, fast);
}

TEST(Kernels, CopyBandwidthPlausible) {
    const BytesPerSecond bw = measure_copy_bandwidth(8 * MiB, 3);
    EXPECT_GT(bw, 1e8);   // above 100 MB/s
    EXPECT_LT(bw, 1e13);  // below 10 TB/s
}

TEST(Kernels, FlushCachesRuns) { flush_caches(4 * MiB); }

// sysfs parsing helpers.

TEST(Topology, ParseCpulistSingles) {
    EXPECT_EQ(parse_cpulist("3"), (std::vector<CoreId>{3}));
    EXPECT_EQ(parse_cpulist("0,2,4"), (std::vector<CoreId>{0, 2, 4}));
}

TEST(Topology, ParseCpulistRanges) {
    EXPECT_EQ(parse_cpulist("0-3"), (std::vector<CoreId>{0, 1, 2, 3}));
    EXPECT_EQ(parse_cpulist("0-2,12-14\n"),
              (std::vector<CoreId>{0, 1, 2, 12, 13, 14}));
}

TEST(Topology, ParseCpulistRejectsGarbage) {
    EXPECT_FALSE(parse_cpulist("").has_value());
    EXPECT_FALSE(parse_cpulist("a-b").has_value());
    EXPECT_FALSE(parse_cpulist("3-1").has_value());
}

TEST(Topology, ParseSysfsSize) {
    EXPECT_EQ(parse_sysfs_size("32K"), 32 * KiB);
    EXPECT_EQ(parse_sysfs_size("12288K"), 12 * MiB);
    EXPECT_EQ(parse_sysfs_size("3M\n"), 3 * MiB);
    EXPECT_EQ(parse_sysfs_size("64"), 64u);
    EXPECT_FALSE(parse_sysfs_size("").has_value());
    EXPECT_FALSE(parse_sysfs_size("12Q").has_value());
    // A product past 2^64 bytes is refused, not wrapped to 0.
    EXPECT_FALSE(parse_sysfs_size("18014398509481984K").has_value());
    EXPECT_FALSE(parse_sysfs_size("18446744073709551616").has_value());
}

TEST(Topology, SysfsCachesDoNotCrash) {
    // Content depends on the host; the call must be safe everywhere and
    // never return instruction caches.
    const auto caches = sysfs_caches(0);
    for (const SysfsCache& cache : caches) {
        EXPECT_NE(cache.type, "Instruction");
        EXPECT_GE(cache.level, 1);
    }
}

// A fake sysfs cpu tree exercising the fixture-root overload.

class SysfsFixture : public ::testing::Test {
  protected:
    void SetUp() override {
        char pattern[] = "/tmp/servet-sysfs-XXXXXX";
        ASSERT_NE(::mkdtemp(pattern), nullptr);
        root_ = pattern;
    }
    void TearDown() override {
        // Best-effort recursive cleanup of the tiny fixed-shape tree.
        for (int index = 0; index < 8; ++index) {
            const std::string dir = root_ + "/cpu0/cache/index" + std::to_string(index);
            for (const char* file : {"level", "type", "size", "shared_cpu_list"})
                (void)::unlink((dir + "/" + file).c_str());
            (void)::rmdir(dir.c_str());
        }
        (void)::rmdir((root_ + "/cpu0/cache").c_str());
        (void)::rmdir((root_ + "/cpu0").c_str());
        (void)::rmdir(root_.c_str());
    }

    void add_index(int index, const std::string& level, const std::string& type,
                   const std::string& size, const std::string& shared) {
        const std::string dir = root_ + "/cpu0/cache/index" + std::to_string(index);
        ASSERT_TRUE(create_directories(dir));
        ASSERT_TRUE(write_file_atomic(dir + "/level", level));
        ASSERT_TRUE(write_file_atomic(dir + "/type", type));
        ASSERT_TRUE(write_file_atomic(dir + "/size", size));
        ASSERT_TRUE(write_file_atomic(dir + "/shared_cpu_list", shared));
    }

    std::string root_;
};

TEST_F(SysfsFixture, WellFormedTreeParses) {
    add_index(0, "1\n", "Data\n", "32K\n", "0\n");
    add_index(1, "1\n", "Instruction\n", "32K\n", "0\n");
    add_index(2, "2\n", "Unified\n", "6144K\n", "0-1\n");
    const auto caches = sysfs_caches(0, root_);
    ASSERT_EQ(caches.size(), 2u);  // the instruction cache is dropped
    EXPECT_EQ(caches[0].level, 1);
    EXPECT_EQ(caches[0].size, 32 * KiB);
    EXPECT_EQ(caches[1].level, 2);
    EXPECT_EQ(caches[1].size, 6 * MiB);
    EXPECT_EQ(caches[1].shared_with, (std::vector<CoreId>{0, 1}));
}

TEST_F(SysfsFixture, MalformedLevelIsSkippedNotLevelZero) {
    // A garbage `level` file used to go through unchecked atoi and come
    // back as a bogus level-0 cache; it must be skipped instead, without
    // hiding the well-formed indices after it.
    add_index(0, "1\n", "Data\n", "32K\n", "0\n");
    add_index(1, "not-a-number\n", "Unified\n", "256K\n", "0\n");
    add_index(2, "\n", "Unified\n", "1024K\n", "0\n");
    add_index(3, "0\n", "Unified\n", "2048K\n", "0\n");  // level < 1 is garbage too
    add_index(4, "3\n", "Unified\n", "8192K\n", "0-3\n");
    const auto caches = sysfs_caches(0, root_);
    ASSERT_EQ(caches.size(), 2u);
    EXPECT_EQ(caches[0].level, 1);
    EXPECT_EQ(caches[1].level, 3);
    for (const SysfsCache& cache : caches) EXPECT_GE(cache.level, 1);
}

TEST_F(SysfsFixture, MissingTreeYieldsEmpty) {
    EXPECT_TRUE(sysfs_caches(0, root_ + "/nonexistent").empty());
    EXPECT_TRUE(sysfs_caches(7, root_).empty());  // no cpu7 directory
}

}  // namespace
}  // namespace servet::hw
