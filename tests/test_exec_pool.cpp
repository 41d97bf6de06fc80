// Stress and edge-case coverage for the servet::exec substrate: the
// cooperative thread pool (exception propagation, nesting, degenerate
// sizes), the memo cache (exact round-trips, first-store-wins), and the
// stable hashing that seeds measurement tasks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/hash.hpp"
#include "exec/memo_cache.hpp"
#include "exec/pool.hpp"
#include "exec/task_key.hpp"
#include "obs/metrics.hpp"

namespace servet::exec {
namespace {

TEST(ThreadPool, ClampsWorkerCount) {
    EXPECT_EQ(ThreadPool(0).thread_count(), 1);
    EXPECT_EQ(ThreadPool(-3).thread_count(), 1);
    EXPECT_EQ(ThreadPool(3).thread_count(), 3);
}

TEST(ThreadPool, ParallelForZeroTasksReturnsImmediately) {
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallel_for(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForSingleTaskRunsOnce) {
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallel_for(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, EveryIterationRunsExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<int>> counts(kN);
    pool.parallel_for(kN, [&](std::size_t i) { ++counts[i]; });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForReturnsOnlyAfterEveryIteration) {
    // Four oversubscribed pools, so helpers get preempted mid-claim. The
    // caller reads the iteration count right after parallel_for returns;
    // it must be complete every time, or a caller could read a result
    // slot before the iteration filling it has run.
    std::atomic<int> early_returns{0};
    std::vector<std::thread> callers;
    for (int d = 0; d < 4; ++d)
        callers.emplace_back([&] {
            ThreadPool pool(4);
            for (int round = 0; round < 20000; ++round) {
                std::atomic<int> done{0};
                pool.parallel_for(16, [&](std::size_t) {
                    volatile int sink = 0;
                    for (int s = 0; s < 300; ++s) sink = sink + 1;
                    ++done;
                });
                if (done.load() != 16) ++early_returns;
            }
        });
    for (std::thread& caller : callers) caller.join();
    EXPECT_EQ(early_returns.load(), 0);
}

TEST(ThreadPool, SingleWorkerPoolCompletes) {
    ThreadPool pool(1);
    std::atomic<int> calls{0};
    pool.parallel_for(100, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPool, SmallestIndexExceptionWins) {
    ThreadPool pool(4);
    const auto body = [](std::size_t i) {
        if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
    };
    // Iterations are claimed in index order, so index 3 is always claimed
    // and its exception must be the one rethrown, regardless of timing.
    try {
        pool.parallel_for(64, body);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "3");
    }
}

TEST(ThreadPool, ExceptionAbandonsUnclaimedIterations) {
    ThreadPool pool(2);
    constexpr std::size_t kN = 1000000;
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(pool.parallel_for(kN,
                                   [&](std::size_t i) {
                                       if (i == 0) throw std::runtime_error("boom");
                                       ++executed;
                                   }),
                 std::runtime_error);
    EXPECT_LT(executed.load(), kN - 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallel_for(4, [&](std::size_t) {
        pool.parallel_for(8, [&](std::size_t) { ++calls; });
    });
    EXPECT_EQ(calls.load(), 32);
}

TEST(ThreadPool, DeeplyNestedParallelFor) {
    ThreadPool pool(1);
    std::atomic<int> calls{0};
    pool.parallel_for(2, [&](std::size_t) {
        pool.parallel_for(2, [&](std::size_t) {
            pool.parallel_for(2, [&](std::size_t) { ++calls; });
        });
    });
    EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, SubmittedTasksRun) {
    std::atomic<int> calls{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 16; ++i)
            pool.submit([&] { ++calls; });
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(calls.load(), 16);
}

TEST(MemoCache, StoreThenLookup) {
    obs::Counter& hits = obs::counter("exec.memo.hits", obs::Stability::Stable);
    obs::Counter& misses = obs::counter("exec.memo.misses", obs::Stability::Stable);
    const std::uint64_t hits_before = hits.value();
    const std::uint64_t misses_before = misses.value();
    MemoCache memo;
    EXPECT_FALSE(memo.lookup("k").has_value());
    memo.store("k", {1.5, -2.25});
    const auto hit = memo.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, (std::vector<double>{1.5, -2.25}));
    EXPECT_EQ(hits.value() - hits_before, 1u);
    EXPECT_EQ(misses.value() - misses_before, 1u);
}

TEST(MemoCache, FirstStoreWins) {
    MemoCache memo;
    memo.store("k", {1.0});
    memo.store("k", {2.0});
    EXPECT_EQ(memo.lookup("k")->front(), 1.0);
    EXPECT_EQ(memo.size(), 1u);
}

TEST(MemoCache, FileRoundTripIsExact) {
    const std::string path = testing::TempDir() + "memo_roundtrip.txt";
    const std::vector<double> gnarly{1.0 / 3.0, 6.62607015e-34, -0.0, 1e300,
                                     0x1.fffffffffffffp+1023};
    {
        MemoCache memo;
        memo.store("b/key", gnarly);
        memo.store("a/key", {42.0});
        ASSERT_TRUE(memo.save_file(path));
    }
    MemoCache loaded;
    ASSERT_EQ(loaded.load_file(path), MemoLoad::Loaded);
    EXPECT_EQ(loaded.size(), 2u);
    const auto hit = loaded.lookup("b/key");
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(hit->size(), gnarly.size());
    for (std::size_t i = 0; i < gnarly.size(); ++i) {
        // Byte-exact: compare representations, not approximate values.
        EXPECT_EQ((*hit)[i], gnarly[i]) << i;
    }
    std::remove(path.c_str());
}

TEST(MemoCache, LoadMergeKeepsExistingRecords) {
    const std::string path = testing::TempDir() + "memo_merge.txt";
    {
        MemoCache memo;
        memo.store("shared", {1.0});
        memo.store("fresh", {2.0});
        ASSERT_TRUE(memo.save_file(path));
    }
    MemoCache memo;
    memo.store("shared", {99.0});
    ASSERT_EQ(memo.load_file(path), MemoLoad::Loaded);
    EXPECT_EQ(memo.lookup("shared")->front(), 99.0);  // existing record kept
    EXPECT_EQ(memo.lookup("fresh")->front(), 2.0);
    std::remove(path.c_str());
}

TEST(MemoCache, RejectsMissingAndMalformedFiles) {
    MemoCache memo;
    EXPECT_EQ(memo.load_file("/nonexistent/memo.txt"), MemoLoad::Absent);

    const std::string path = testing::TempDir() + "memo_bad.txt";
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not-a-memo-header\nk 1 0x1p+0\n", f);
    std::fclose(f);
    EXPECT_EQ(memo.load_file(path), MemoLoad::Malformed);
    EXPECT_EQ(memo.size(), 0u);
    std::remove(path.c_str());
}

TEST(Hashing, Fnv1aIsStableAcrossRuns) {
    // Pinned value: task keys and memo files depend on this never moving.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("servet"), fnv1a64(std::string("servet")));
}

TEST(Hashing, SeedOfSeparatesNearbyKeys) {
    std::set<std::uint64_t> seeds;
    for (int i = 0; i < 1000; ++i)
        seeds.insert(seed_of("mcal/c0/b" + std::to_string(i)));
    EXPECT_EQ(seeds.size(), 1000u);
}

TEST(Hashing, FingerprintOrderAndValueSensitive) {
    Fingerprint a;
    a.add(1);
    a.add(2);
    Fingerprint b;
    b.add(2);
    b.add(1);
    EXPECT_NE(a.value(), b.value());

    Fingerprint c;
    c.add(1.0);
    Fingerprint d;
    d.add(1.5);
    EXPECT_NE(c.value(), d.value());
}

}  // namespace
}  // namespace servet::exec
