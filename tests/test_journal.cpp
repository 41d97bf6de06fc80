// The crash-safety layer: base/fs atomic writes, phase payload codecs,
// the write-ahead run journal, and checkpoint/resume through run_suite.
#include "core/journal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "base/fs.hpp"
#include "base/hash.hpp"
#include "core/phase_codec.hpp"
#include "exec/memo_cache.hpp"
#include "msg/sim_network.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"

namespace servet::core {
namespace {

std::string unique_dir(const std::string& stem) {
    static int serial = 0;
    // The pid keeps reruns from resuming a previous run's leftovers.
    return testing::TempDir() + stem + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(++serial);
}

std::string slurp(const std::string& path) {
    std::string text;
    EXPECT_EQ(read_file(path, &text), FileRead::Ok);
    return text;
}

void spit(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    ASSERT_TRUE(static_cast<bool>(out));
}

// ---- base/fs ----

TEST(Fs, WriteFileAtomicRoundTripsAndReplaces) {
    const std::string path = testing::TempDir() + "fs_atomic.txt";
    ASSERT_TRUE(write_file_atomic(path, "first"));
    EXPECT_EQ(slurp(path), "first");
    ASSERT_TRUE(write_file_atomic(path, "second, longer content"));
    EXPECT_EQ(slurp(path), "second, longer content");
    std::remove(path.c_str());
}

TEST(Fs, CreateParentDirsMakesNestedPathWritable) {
    const std::string dir = unique_dir("fs_nested");
    const std::string path = dir + "/a/b/out.txt";
    ASSERT_TRUE(create_parent_dirs(path));
    EXPECT_TRUE(write_file_atomic(path, "x"));
    // A bare filename has no parent to create: trivially fine.
    EXPECT_TRUE(create_parent_dirs("plainfile.txt"));
}

TEST(Fs, ReadFileDistinguishesAbsent) {
    std::string text;
    EXPECT_EQ(read_file(unique_dir("fs_absent") + "/missing.txt", &text), FileRead::Absent);
}

TEST(Fs, AppendSyncedCreatesOnlyWhenAsked) {
    const std::string path = unique_dir("fs_append") + ".txt";
    EXPECT_FALSE(append_synced(path, "a\n", /*create=*/false));
    std::string text;
    EXPECT_EQ(read_file(path, &text), FileRead::Absent);
    ASSERT_TRUE(append_synced(path, "a\n", /*create=*/true));
    ASSERT_TRUE(append_synced(path, "b\n", /*create=*/false));
    EXPECT_EQ(slurp(path), "a\nb\n");
    std::remove(path.c_str());
}

// ---- phase codecs: exact round trips ----

// Doubles chosen to stress the hexfloat path: non-terminating binary
// fractions, negative zero, denormals, huge magnitudes.
constexpr double kUgly[] = {1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308, 3.141592653589793};

TEST(PhaseCodec, CacheSizeRoundTripsExactly) {
    CacheSizePayload payload;
    payload.curve.sizes = {1024, 2048, 4096};
    payload.curve.cycles = {kUgly[0], kUgly[2], kUgly[4]};
    payload.levels.push_back({16 * KiB, "peak", 3, 7});
    payload.levels.push_back({2 * MiB, "probabilistic", 9, 12});
    const auto decoded = decode_cache_size(encode_cache_size(payload));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, payload);
}

TEST(PhaseCodec, SharedCachesRoundTripsExactly) {
    SharedCacheLevelResult level;
    level.cache_size = 256 * KiB;
    level.array_bytes = 170 * KiB;
    level.reference_cycles = kUgly[0];
    level.pairs = {{{0, 1}, 1.9}, {{0, 2}, kUgly[4]}};
    level.sharing_pairs = {{0, 1}};
    level.groups = {{0, 1}, {2, 3}};
    SharedCacheLevelResult bare;  // empty pairs/groups must survive too
    bare.cache_size = 16 * KiB;
    const std::vector<SharedCacheLevelResult> levels{level, bare};
    const auto decoded = decode_shared_caches(encode_shared_caches(levels));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, levels);
}

TEST(PhaseCodec, MemOverheadRoundTripsExactly) {
    MemOverheadResult result;
    result.reference_bandwidth = 2.99e9;
    result.pairs = {{{0, 1}, kUgly[3]}, {{1, 2}, kUgly[2]}};
    MemOverheadTier tier;
    tier.bandwidth = 1.5e9;
    tier.pairs = {{0, 1}};
    tier.groups = {{0, 1, 2}};
    result.tiers = {tier, MemOverheadTier{}};
    result.scalability = {{0, {0, 1, 2}, {2.9e9, 1.4e9, kUgly[0]}}, {1, {3}, {}}};
    const auto decoded = decode_mem_overhead(encode_mem_overhead(result));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, result);
}

TEST(PhaseCodec, CommCostsRoundTripsExactly) {
    CommCostsResult result;
    result.probe_message = 16 * KiB;
    result.pairs = {{{0, 1}, 1.2e-6}, {{0, 2}, kUgly[0]}};
    CommLayer layer;
    layer.latency = 1.2e-6;
    layer.pairs = {{0, 1}, {2, 3}};
    layer.representative = {0, 1};
    layer.p2p = {{1024, 1e-6}, {4096, kUgly[4]}};
    layer.slowdown_by_n = {1.0, 1.5, kUgly[0]};
    CommLayer empty_layer;
    empty_layer.latency = 5e-6;
    empty_layer.representative = {0, 3};
    result.layers = {layer, empty_layer};
    const auto decoded = decode_comm_costs(encode_comm_costs(result));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, result);
}

TEST(PhaseCodec, RejectsGarbageAndTruncation) {
    EXPECT_FALSE(decode_cache_size("bogus 1 2\n").has_value());
    EXPECT_FALSE(decode_cache_size("point 1024\n").has_value());      // missing field
    EXPECT_FALSE(decode_cache_size("point 1024 0x1p+1 junk\n").has_value());  // extra
    EXPECT_FALSE(decode_shared_caches("pair 0 1 0x1p+0\n").has_value());  // pair before level
    EXPECT_FALSE(decode_mem_overhead("tier-pair 0 1\n").has_value());
    EXPECT_FALSE(decode_comm_costs("p2p 1024 0x1p-20\n").has_value());
}

// ---- suite_options_hash ----

TEST(OptionsHash, IgnoresSchedulingAndPlumbingKnobs) {
    SuiteOptions a;
    SuiteOptions b;
    b.jobs = 8;
    b.use_memo = false;
    b.memo_path = "/somewhere/memo.servet";
    b.profile_counters = true;
    b.task_deadline = 5.0;
    b.run_dir = "/somewhere/run";
    b.resume = true;
    b.remeasure = {"cache_size"};
    // A resumed run may legally change any of these; the journal must
    // still accept it.
    EXPECT_EQ(suite_options_hash(a), suite_options_hash(b));
}

TEST(OptionsHash, SeparatesMeasurementRelevantChanges) {
    const SuiteOptions base;
    const std::uint64_t base_hash = suite_options_hash(base);
    SuiteOptions repeats = base;
    repeats.mcalibrator.repeats += 1;
    EXPECT_NE(suite_options_hash(repeats), base_hash);
    SuiteOptions threshold = base;
    threshold.detect.gradient_threshold *= 2;
    EXPECT_NE(suite_options_hash(threshold), base_hash);
    SuiteOptions phases = base;
    phases.run_comm = false;
    EXPECT_NE(suite_options_hash(phases), base_hash);
    SuiteOptions sweep = base;
    sweep.comm.sweep_sizes.push_back(123);
    EXPECT_NE(suite_options_hash(sweep), base_hash);
}

// ---- RunJournal ----

RunJournal::Header test_header() {
    RunJournal::Header header;
    header.options_hash = 0x1111;
    header.fingerprint = 0x2222;
    header.machine = "sim:test";
    header.cores = 4;
    header.page_size = 4096;
    return header;
}

TEST(RunJournal, AppendThenResumeRoundTripsRecords) {
    const std::string dir = unique_dir("journal_rt");
    {
        RunJournal journal(dir, test_header(), RunJournal::Mode::Create);
        ASSERT_TRUE(journal.append("cache_size", "point 1024 0x1p+1\n", 1.0 / 3.0, 42));
        ASSERT_TRUE(journal.append("comm_costs", "probe 16384\n", 2.5, 43));
    }
    RunJournal journal(dir, test_header(), RunJournal::Mode::Resume);
    EXPECT_FALSE(journal.dropped_torn_tail());
    ASSERT_EQ(journal.records().size(), 2u);
    const RunJournal::Record* cache = journal.find("cache_size");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->payload, "point 1024 0x1p+1\n");
    EXPECT_EQ(cache->seconds, 1.0 / 3.0);  // bit-exact through the hexfloat
    EXPECT_EQ(journal.find("missing"), nullptr);
}

TEST(RunJournal, AppendFailsWhenFileVanished) {
    const std::string dir = unique_dir("journal_vanished");
    RunJournal journal(dir, test_header(), RunJournal::Mode::Create);
    ASSERT_EQ(std::remove(RunJournal::file_path(dir).c_str()), 0);
    // A recreated file would hold a record but no header, which no later
    // resume could load.
    EXPECT_FALSE(journal.append("cache_size", "point 1024 0x1p+1\n", 1.0, 42));
    std::string text;
    EXPECT_EQ(read_file(RunJournal::file_path(dir), &text), FileRead::Absent);
}

TEST(RunJournal, CreateModeTruncatesExistingJournal) {
    const std::string dir = unique_dir("journal_trunc");
    {
        RunJournal journal(dir, test_header(), RunJournal::Mode::Create);
        ASSERT_TRUE(journal.append("cache_size", "x\n", 1.0, 0));
    }
    RunJournal journal(dir, test_header(), RunJournal::Mode::Create);
    EXPECT_TRUE(journal.records().empty());
    RunJournal reopened(dir, test_header(), RunJournal::Mode::Resume);
    EXPECT_TRUE(reopened.records().empty());
}

TEST(RunJournal, TornTailIsDroppedNotFatal) {
    const std::string dir = unique_dir("journal_torn");
    {
        RunJournal journal(dir, test_header(), RunJournal::Mode::Create);
        ASSERT_TRUE(journal.append("cache_size", "good payload\n", 1.0, 0));
    }
    const std::string path = RunJournal::file_path(dir);
    // A crash mid-append: the framing line landed, the payload did not.
    spit(path, slurp(path) + "phase comm_costs 500 0x1p+0\ntruncated...");
    RunJournal journal(dir, test_header(), RunJournal::Mode::Resume);
    EXPECT_TRUE(journal.dropped_torn_tail());
    EXPECT_EQ(journal.records().size(), 1u);
    EXPECT_NE(journal.find("cache_size"), nullptr);
    EXPECT_EQ(journal.find("comm_costs"), nullptr);
}

TEST(RunJournal, CorruptedPayloadHashIsDropped) {
    const std::string dir = unique_dir("journal_hash");
    {
        RunJournal journal(dir, test_header(), RunJournal::Mode::Create);
        ASSERT_TRUE(journal.append("cache_size", "payload A\n", 1.0, 0));
    }
    const std::string path = RunJournal::file_path(dir);
    std::string text = slurp(path);
    // Flip one payload byte; the commit line's content hash must notice.
    text.replace(text.find("payload A"), 9, "payload B");
    spit(path, text);
    RunJournal journal(dir, test_header(), RunJournal::Mode::Resume);
    EXPECT_TRUE(journal.dropped_torn_tail());
    EXPECT_EQ(journal.find("cache_size"), nullptr);
}

TEST(RunJournal, MidFileCorruptSecondsSkipsOnlyThatRecord) {
    const std::string dir = unique_dir("journal_midsec");
    {
        RunJournal journal(dir, test_header(), RunJournal::Mode::Create);
        ASSERT_TRUE(journal.append("cache_size", "payload A\n", 1.0, 0));
        ASSERT_TRUE(journal.append("comm_costs", "payload B\n", 1.0, 0));
    }
    const std::string path = RunJournal::file_path(dir);
    std::string text = slurp(path);
    // Damage the FIRST record's seconds field (the commit hash covers only
    // the payload, so the record still frames as committed). Same-length
    // garbage keeps every later offset valid.
    const std::size_t seconds_at = text.find("0x1p+0");
    ASSERT_NE(seconds_at, std::string::npos);
    text.replace(seconds_at, 6, "0xQp+0");
    spit(path, text);

    RunJournal journal(dir, test_header(), RunJournal::Mode::Resume);
    // Mid-file damage must not be treated as a torn tail: the bad record
    // is skipped in memory, the committed record after it survives, and
    // nothing is physically truncated.
    EXPECT_FALSE(journal.dropped_torn_tail());
    EXPECT_EQ(journal.find("cache_size"), nullptr);
    ASSERT_NE(journal.find("comm_costs"), nullptr);
    EXPECT_EQ(journal.find("comm_costs")->payload, "payload B\n");
    EXPECT_EQ(slurp(path), text);
}

TEST(RunJournal, TailCorruptSecondsTruncatesOnlyTheTail) {
    const std::string dir = unique_dir("journal_tailsec");
    {
        RunJournal journal(dir, test_header(), RunJournal::Mode::Create);
        ASSERT_TRUE(journal.append("cache_size", "payload A\n", 1.0, 0));
        ASSERT_TRUE(journal.append("comm_costs", "payload B\n", 2.5, 0));
    }
    const std::string path = RunJournal::file_path(dir);
    std::string text = slurp(path);
    // Damage the LAST record's seconds (2.5 formats as 0x1.4p+1): a
    // genuine tail, dropped and truncated so appends land after the
    // surviving record.
    const std::size_t seconds_at = text.find("0x1.4p+1");
    ASSERT_NE(seconds_at, std::string::npos);
    text.replace(seconds_at, 8, "0xQ.4p+1");
    spit(path, text);

    RunJournal journal(dir, test_header(), RunJournal::Mode::Resume);
    EXPECT_TRUE(journal.dropped_torn_tail());
    ASSERT_NE(journal.find("cache_size"), nullptr);
    EXPECT_EQ(journal.find("comm_costs"), nullptr);
    EXPECT_LT(slurp(path).size(), text.size());
}

TEST(RunJournal, RefusesIncompatibleHeaders) {
    const std::string dir = unique_dir("journal_compat");
    { RunJournal journal(dir, test_header(), RunJournal::Mode::Create); }

    RunJournal::Header options = test_header();
    options.options_hash = 0x9999;
    EXPECT_THROW(RunJournal(dir, options, RunJournal::Mode::Resume), JournalError);
    try {
        RunJournal journal(dir, options, RunJournal::Mode::Resume);
        FAIL() << "incompatible options hash must throw";
    } catch (const JournalError& e) {
        EXPECT_NE(std::string(e.what()).find("options hash"), std::string::npos);
    }

    RunJournal::Header machine = test_header();
    machine.fingerprint = 0xdead;
    EXPECT_THROW(RunJournal(dir, machine, RunJournal::Mode::Resume), JournalError);

    RunJournal::Header cores = test_header();
    cores.cores = 8;
    EXPECT_THROW(RunJournal(dir, cores, RunJournal::Mode::Resume), JournalError);
}

TEST(RunJournal, MachineNameChecksOnlyWithoutFingerprint) {
    // Content-addressable substrates may rename (decorators do); the
    // fingerprint is the identity. Real hardware (fingerprint 0) has only
    // its name.
    const std::string with_fp = unique_dir("journal_name_fp");
    { RunJournal journal(with_fp, test_header(), RunJournal::Mode::Create); }
    RunJournal::Header renamed = test_header();
    renamed.machine = "flaky(sim:test)";
    EXPECT_NO_THROW(RunJournal(with_fp, renamed, RunJournal::Mode::Resume));

    const std::string no_fp = unique_dir("journal_name_nofp");
    RunJournal::Header native = test_header();
    native.fingerprint = 0;
    { RunJournal journal(no_fp, native, RunJournal::Mode::Create); }
    RunJournal::Header other = native;
    other.machine = "other-host";
    EXPECT_THROW(RunJournal(no_fp, other, RunJournal::Mode::Resume), JournalError);
}

TEST(RunJournal, MalformedHeaderThrows) {
    const std::string dir = unique_dir("journal_badheader");
    ASSERT_TRUE(create_directories(dir));
    spit(RunJournal::file_path(dir), "not a journal at all\n");
    EXPECT_THROW(RunJournal(dir, test_header(), RunJournal::Mode::Resume), JournalError);
}

TEST(RunJournal, DropRemovesRecordAndPersists) {
    const std::string dir = unique_dir("journal_drop");
    {
        RunJournal journal(dir, test_header(), RunJournal::Mode::Create);
        ASSERT_TRUE(journal.append("cache_size", "a\n", 1.0, 0));
        ASSERT_TRUE(journal.append("comm_costs", "b\n", 2.0, 0));
        ASSERT_TRUE(journal.drop("cache_size"));
        ASSERT_TRUE(journal.drop("never_there"));  // dropping nothing is fine
    }
    RunJournal journal(dir, test_header(), RunJournal::Mode::Resume);
    EXPECT_EQ(journal.find("cache_size"), nullptr);
    ASSERT_NE(journal.find("comm_costs"), nullptr);
    EXPECT_EQ(journal.find("comm_costs")->payload, "b\n");
    // And the journal stays appendable after the atomic rewrite.
    EXPECT_TRUE(journal.append("cache_size", "a2\n", 3.0, 0));
}

// ---- the series journal (`servet watch` time series) ----

TEST(SeriesJournal, AppendThenResumeKeepsTickOrder) {
    const std::string dir = unique_dir("series_rt");
    {
        SeriesJournal series(dir, test_header(), SeriesJournal::Mode::Create);
        ASSERT_TRUE(series.append("metric a 0x1p+0\n"));
        ASSERT_TRUE(series.append("metric a 0x1.8p+0\n"));
        ASSERT_TRUE(series.append("metric a 0x1p+1\n"));
    }
    SeriesJournal series(dir, test_header(), SeriesJournal::Mode::Resume);
    EXPECT_FALSE(series.dropped_torn_tail());
    ASSERT_EQ(series.samples().size(), 3u);
    EXPECT_EQ(series.samples()[0], "metric a 0x1p+0\n");
    EXPECT_EQ(series.samples()[2], "metric a 0x1p+1\n");
}

TEST(SeriesJournal, TornTailIsTruncatedSoLaterAppendsSurvive) {
    const std::string dir = unique_dir("series_torn");
    {
        SeriesJournal series(dir, test_header(), SeriesJournal::Mode::Create);
        ASSERT_TRUE(series.append("tick zero\n"));
    }
    const std::string path = SeriesJournal::file_path(dir);
    const std::string committed = slurp(path);
    // A crash mid-append: frame line landed, payload tore off.
    spit(path, committed + "sample 1 400\nhalf a payl");
    {
        SeriesJournal series(dir, test_header(), SeriesJournal::Mode::Resume);
        EXPECT_TRUE(series.dropped_torn_tail());
        ASSERT_EQ(series.samples().size(), 1u);
        // The torn bytes must be physically gone: an append that lands
        // after garbage would be discarded by the *next* load.
        EXPECT_EQ(slurp(path), committed);
        ASSERT_TRUE(series.append("tick one, after the crash\n"));
    }
    SeriesJournal series(dir, test_header(), SeriesJournal::Mode::Resume);
    EXPECT_FALSE(series.dropped_torn_tail());
    ASSERT_EQ(series.samples().size(), 2u);
    EXPECT_EQ(series.samples()[1], "tick one, after the crash\n");
}

TEST(SeriesJournal, TickMismatchDiscardsFromThereOn) {
    const std::string dir = unique_dir("series_tickmismatch");
    {
        SeriesJournal series(dir, test_header(), SeriesJournal::Mode::Create);
        ASSERT_TRUE(series.append("first\n"));
    }
    const std::string path = SeriesJournal::file_path(dir);
    // A structurally valid record whose tick key skips ahead: positional
    // ticks make it untrustworthy, like a torn tail.
    const std::string payload = "out of order\n";
    char commit[64];
    std::snprintf(commit, sizeof commit, "commit 7 %016llx\n",
                  static_cast<unsigned long long>(fnv1a64(payload)));
    spit(path, slurp(path) + "sample 7 " + std::to_string(payload.size()) + "\n" +
                   payload + "\n" + commit);
    SeriesJournal series(dir, test_header(), SeriesJournal::Mode::Resume);
    EXPECT_TRUE(series.dropped_torn_tail());
    ASSERT_EQ(series.samples().size(), 1u);
    EXPECT_EQ(series.samples()[0], "first\n");
}

TEST(SeriesJournal, RefusesIncompatibleHeaderAndRunJournalMagic) {
    const std::string dir = unique_dir("series_compat");
    { SeriesJournal series(dir, test_header(), SeriesJournal::Mode::Create); }
    RunJournal::Header other = test_header();
    other.options_hash = 0x7777;
    EXPECT_THROW(SeriesJournal(dir, other, SeriesJournal::Mode::Resume), JournalError);

    // A run journal dropped where a series is expected (or vice versa)
    // must be refused by magic, not half-parsed.
    const std::string crossed = unique_dir("series_crossed");
    ASSERT_TRUE(create_directories(crossed));
    spit(SeriesJournal::file_path(crossed), "servet-journal 1\noptions = 0\n");
    EXPECT_THROW(SeriesJournal(crossed, test_header(), SeriesJournal::Mode::Resume),
                 JournalError);
}

TEST(RunJournal, TornTailIsPhysicallyTruncated) {
    const std::string dir = unique_dir("journal_torn_trunc");
    {
        RunJournal journal(dir, test_header(), RunJournal::Mode::Create);
        ASSERT_TRUE(journal.append("cache_size", "good\n", 1.0, 0));
    }
    const std::string path = RunJournal::file_path(dir);
    const std::string committed = slurp(path);
    spit(path, committed + "phase comm_costs 99 0x1p+0\ntorn");
    {
        RunJournal journal(dir, test_header(), RunJournal::Mode::Resume);
        EXPECT_TRUE(journal.dropped_torn_tail());
        EXPECT_EQ(slurp(path), committed);
        // An append after the crash lands after the *committed* prefix…
        ASSERT_TRUE(journal.append("comm_costs", "measured again\n", 2.0, 0));
    }
    // …so the next load keeps both records instead of discarding the new
    // one as part of the old torn tail.
    RunJournal journal(dir, test_header(), RunJournal::Mode::Resume);
    EXPECT_FALSE(journal.dropped_torn_tail());
    EXPECT_EQ(journal.records().size(), 2u);
    ASSERT_NE(journal.find("comm_costs"), nullptr);
    EXPECT_EQ(journal.find("comm_costs")->payload, "measured again\n");
}

// ---- MemoCache incremental journal ----

TEST(MemoJournal, AppendsSurviveTornTail) {
    const std::string path = testing::TempDir() + "memo_journal_torn.servet";
    std::remove(path.c_str());
    {
        exec::MemoCache memo;
        ASSERT_TRUE(memo.journal_to(path));
        memo.store("k1", {1.0 / 3.0, -0.0});
        memo.store("k2", {5e-324});
        memo.store("k1", {9.9});  // duplicate: not journaled twice
    }
    // Simulate a crash mid-append: chop the last record in half.
    std::string text = slurp(path);
    spit(path, text.substr(0, text.size() - 4));

    exec::MemoCache reloaded;
    EXPECT_EQ(reloaded.load_file(path, exec::MemoLoadMode::TornTailOk),
              exec::MemoLoad::Loaded);
    EXPECT_EQ(reloaded.size(), 1u);  // k1 intact, k2's torn record dropped
    const auto values = reloaded.lookup("k1");
    ASSERT_TRUE(values.has_value());
    EXPECT_EQ((*values)[0], 1.0 / 3.0);
    // Strict parsing of the very same file demonstrates the hazard the
    // newline-truncation exists for: 5e-324 prints as
    // "0x0.0000000000001p-1022", and chopped four bytes short it reads
    // "...p-1" — a *valid* hexfloat with a wildly wrong value. Token-level
    // validation cannot catch that; only the missing final '\n' can.
    exec::MemoCache strict;
    EXPECT_EQ(strict.load_file(path), exec::MemoLoad::Loaded);
    const auto wrong = strict.lookup("k2");
    ASSERT_TRUE(wrong.has_value());
    EXPECT_NE((*wrong)[0], 5e-324);
    std::remove(path.c_str());
}

TEST(MemoJournal, ReopenedJournalAppendsWithoutDuplicatingHeader) {
    const std::string path = testing::TempDir() + "memo_journal_reopen.servet";
    std::remove(path.c_str());
    {
        exec::MemoCache memo;
        ASSERT_TRUE(memo.journal_to(path));
        memo.store("k1", {1.0});
    }
    {
        exec::MemoCache memo;
        EXPECT_EQ(memo.load_file(path, exec::MemoLoadMode::TornTailOk),
                  exec::MemoLoad::Loaded);
        ASSERT_TRUE(memo.journal_to(path));
        memo.store("k1", {1.0});  // already present: no journal append
        memo.store("k2", {2.0});
    }
    exec::MemoCache reloaded;
    EXPECT_EQ(reloaded.load_file(path), exec::MemoLoad::Loaded);
    EXPECT_EQ(reloaded.size(), 2u);
    std::remove(path.c_str());
}

// ---- checkpoint/resume through run_suite ----

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

TEST(SuiteResume, ReplaysEveryCommittedPhaseBitExactly) {
    SimPlatform platform(small_machine());
    msg::SimNetwork network(platform.spec());
    SuiteOptions options = fast_options();
    options.run_dir = unique_dir("suite_resume");

    const SuiteResult first = run_suite(platform, &network, options);
    ASSERT_FALSE(first.partial());
    EXPECT_EQ(first.counter("suite.journal.phases.appended"), 4u);
    EXPECT_EQ(first.counter("suite.journal.phases.replayed"), 0u);

    options.resume = true;
    const SuiteResult resumed = run_suite(platform, &network, options);
    EXPECT_EQ(resumed.counter("suite.journal.phases.replayed"), 4u);
    EXPECT_EQ(resumed.counter("suite.journal.phases.appended"), 0u);
    EXPECT_TRUE(first.measurements_equal(resumed));
    // Replay restores the producing run's wall clock bit-exactly.
    EXPECT_EQ(first.phase_seconds, resumed.phase_seconds);
}

TEST(SuiteResume, RemeasuresOnlyDroppedPhases) {
    SimPlatform platform(small_machine());
    msg::SimNetwork network(platform.spec());
    SuiteOptions options = fast_options();
    options.run_dir = unique_dir("suite_remeasure");

    const SuiteResult first = run_suite(platform, &network, options);
    ASSERT_EQ(first.counter("suite.journal.phases.appended"), 4u);

    options.resume = true;
    options.remeasure = {"comm_costs"};
    const SuiteResult repaired = run_suite(platform, &network, options);
    EXPECT_EQ(repaired.counter("suite.journal.phases.replayed"), 3u);
    EXPECT_EQ(repaired.counter("suite.journal.phases.appended"), 1u);
    EXPECT_TRUE(first.measurements_equal(repaired));
}

TEST(SuiteResume, RefusesJournalOfDifferentOptions) {
    SimPlatform platform(small_machine());
    msg::SimNetwork network(platform.spec());
    SuiteOptions options = fast_options();
    options.run_dir = unique_dir("suite_refuse");
    (void)run_suite(platform, &network, options);

    SuiteOptions changed = options;
    changed.resume = true;
    changed.mcalibrator.repeats += 1;
    EXPECT_THROW(run_suite(platform, &network, changed), JournalError);
}

TEST(SuiteResume, ResumeWithoutJournalIsAFreshRun) {
    SimPlatform platform(small_machine());
    msg::SimNetwork network(platform.spec());
    SuiteOptions options = fast_options();
    options.run_dir = unique_dir("suite_cold_resume");
    options.resume = true;
    const SuiteResult result = run_suite(platform, &network, options);
    EXPECT_FALSE(result.partial());
    EXPECT_EQ(result.counter("suite.journal.phases.replayed"), 0u);
    EXPECT_EQ(result.counter("suite.journal.phases.appended"), 4u);
}

}  // namespace
}  // namespace servet::core
