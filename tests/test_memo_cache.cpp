// Memo-file robustness: the cache must load only well-formed files in
// their entirety, reject every corruption mode without importing a valid
// prefix, write atomically (a crash mid-save can never leave a truncated
// memo in place), and refuse keys that would break the whitespace-
// delimited record format.
#include "exec/memo_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/suite.hpp"
#include "msg/sim_network.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"

namespace servet::exec {
namespace {

void write_text(const std::string& path, const char* text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
}

TEST(MemoFile, TruncatedRecordIsMalformedAndLoadsNothing) {
    const std::string path = testing::TempDir() + "memo_truncated.txt";
    // First record is valid; second claims 3 values but carries 2. The
    // valid prefix must NOT be imported — a partial memo silently skews
    // which measurements replay.
    write_text(path.c_str(),
               "servet-memo 1\ngood/key 1 0x1p+0\nbad/key 3 0x1p+0 0x1p+1\n");
    MemoCache memo;
    EXPECT_EQ(memo.load_file(path), MemoLoad::Malformed);
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_FALSE(memo.lookup("good/key").has_value());
    std::remove(path.c_str());
}

TEST(MemoFile, CorruptValueTokenIsMalformed) {
    const std::string path = testing::TempDir() + "memo_corrupt_value.txt";
    write_text(path.c_str(), "servet-memo 1\nk 2 0x1p+0 not-a-float\n");
    MemoCache memo;
    EXPECT_EQ(memo.load_file(path), MemoLoad::Malformed);
    EXPECT_EQ(memo.size(), 0u);
    std::remove(path.c_str());
}

TEST(MemoFile, ImpossibleCountIsMalformedAndNeverThrows) {
    // The count is checked against the values the line carries before
    // anything is sized by it: a huge or negative count must not reach
    // an allocation.
    for (const char* record :
         {"k -1 0x1p+0\n", "k 18446744073709551615 0x1p+0\n", "k 99999999999 0x1p+0\n",
          "k 1 0x1p+0 0x1p+1\n", "k 2 0x1p+0\n"}) {
        const std::string path = testing::TempDir() + "memo_bad_count.txt";
        write_text(path.c_str(), (std::string("servet-memo 1\n") + record).c_str());
        MemoCache memo;
        MemoLoad load = MemoLoad::Loaded;
        EXPECT_NO_THROW(load = memo.load_file(path)) << record;
        EXPECT_EQ(load, MemoLoad::Malformed) << record;
        EXPECT_EQ(memo.size(), 0u) << record;
        std::remove(path.c_str());
    }
}

TEST(MemoFile, HeaderMismatchIsMalformed) {
    const std::string path = testing::TempDir() + "memo_bad_header.txt";
    write_text(path.c_str(), "servet-memo 2\nk 1 0x1p+0\n");  // future version
    MemoCache memo;
    EXPECT_EQ(memo.load_file(path), MemoLoad::Malformed);
    EXPECT_EQ(memo.size(), 0u);
    std::remove(path.c_str());
}

TEST(MemoFile, SaveIsAtomicAndLeavesNoTempResidue) {
    const std::string path = testing::TempDir() + "memo_atomic.txt";
    MemoCache memo;
    memo.store("k", {1.25, -0.5});
    ASSERT_TRUE(memo.save_file(path));

    // The temporary sibling must have been renamed away.
    std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "r");
    EXPECT_EQ(tmp, nullptr) << "save_file left its temporary behind";
    if (tmp != nullptr) std::fclose(tmp);

    MemoCache reloaded;
    EXPECT_EQ(reloaded.load_file(path), MemoLoad::Loaded);
    EXPECT_EQ(reloaded.size(), 1u);
    std::remove(path.c_str());
}

TEST(MemoFile, SaveToUnwritablePathFails) {
    MemoCache memo;
    memo.store("k", {1.0});
    EXPECT_FALSE(memo.save_file("/nonexistent-dir/deeper/memo.txt"));
}

TEST(MemoFileDeath, KeysWithWhitespaceAreRejected) {
    // The file format is whitespace-delimited: a key with a space would
    // serialize into a record that parses back wrong (or not at all).
    MemoCache memo;
    EXPECT_DEATH(memo.store("bad key", {1.0}), "whitespace");
    EXPECT_DEATH(memo.store("bad\tkey", {1.0}), "whitespace");
}

TEST(MemoFile, SuiteMemoRoundTripsThroughDisk) {
    // Regression for the key format: every key a real suite run generates
    // must survive the save/load cycle (no whitespace, values exact).
    sim::zoo::SyntheticOptions synth;
    synth.cores = 4;
    synth.l1_size = 16 * KiB;
    synth.l2_size = 256 * KiB;
    synth.jitter = 0.01;
    const sim::MachineSpec spec = sim::zoo::synthetic(synth);
    SimPlatform platform(spec);
    msg::SimNetwork network(spec);

    core::SuiteOptions options;
    options.mcalibrator.max_size = 2 * MiB;
    options.mcalibrator.repeats = 3;
    const std::string path = testing::TempDir() + "memo_suite.txt";
    options.memo_path = path;
    const core::SuiteResult result = core::run_suite(platform, &network, options);
    EXPECT_FALSE(result.partial());

    MemoCache reloaded;
    ASSERT_EQ(reloaded.load_file(path), MemoLoad::Loaded);
    EXPECT_GT(reloaded.size(), 0u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace servet::exec
