// Content-addressed measurement memo cache. A deterministic measurement
// is a pure function of (machine fingerprint, task key), so its result
// can be stored and replayed: repeated probes inside one suite run (the
// comm phase re-prices a pair the layer scan already measured), across
// runs in one process (warm reruns), and across servet_tool invocations
// via the text file format:
//
//   servet-memo 1
//   <key> <count> <v0> <v1> ...
//
// one record per line; keys contain no whitespace; values are C hexfloats
// (base/text.hpp), which round-trip doubles exactly — byte-identical
// results are the whole point.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace servet::exec {

/// Outcome of MemoCache::load_file. Absent is routine (first run, cold
/// cache); Malformed means a file existed but was rejected — callers
/// should surface that, since silently dropping a memo repeats every
/// measurement.
enum class MemoLoad { Loaded, Absent, Malformed };

/// Strict rejects the whole file on any malformed record — right for
/// memo files produced by the atomic save_file, where corruption means
/// something rewrote the file. TornTailOk keeps the valid prefix and
/// discards everything from the first bad record on — right for the
/// incremental journal (journal_to), whose tail is legitimately torn
/// when the process was killed mid-append.
enum class MemoLoadMode { Strict, TornTailOk };

class MemoCache {
  public:
    MemoCache() = default;
    ~MemoCache();
    MemoCache(const MemoCache&) = delete;
    MemoCache& operator=(const MemoCache&) = delete;
    /// Returns the stored values, or nullopt (and counts a miss).
    [[nodiscard]] std::optional<std::vector<double>> lookup(const std::string& key) const;

    /// Stores the result of `key`. First store wins: a concurrent
    /// duplicate (two tasks racing on the same key) must carry the same
    /// values by determinism, so the duplicate is simply dropped.
    void store(const std::string& key, std::vector<double> values);

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::uint64_t hits() const;
    [[nodiscard]] std::uint64_t misses() const;

    /// Merge records from `path` (existing keys keep their values).
    /// Strict mode: a malformed file (bad header, truncated record,
    /// unparseable value) loads nothing, even from its valid prefix.
    /// TornTailOk mode: the valid prefix loads and the torn tail is
    /// dropped; only a bad header is Malformed.
    MemoLoad load_file(const std::string& path, MemoLoadMode mode = MemoLoadMode::Strict);

    /// Task-level write-ahead journal: from this call on, every fresh
    /// store() appends its record to `path` immediately (creating the
    /// file with its header when absent, appending to an existing one).
    /// Appends are plain write(2)s — they survive the process being
    /// killed, which is the crash model here; load the file back with
    /// MemoLoadMode::TornTailOk. Returns false when the file cannot be
    /// opened (the cache still works, it just isn't journaled).
    [[nodiscard]] bool journal_to(const std::string& path);

    /// Write every record to `path` (sorted by key, so the file is
    /// deterministic). Returns false on I/O failure. The write is atomic:
    /// a temporary sibling is renamed over `path`, so a crash mid-write
    /// can never leave a truncated memo where a good one stood.
    [[nodiscard]] bool save_file(const std::string& path) const;

  private:
    void journal_append_locked(const std::string& key, const std::vector<double>& values);

    mutable std::mutex mutex_;
    std::map<std::string, std::vector<double>> entries_;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
    int journal_fd_ = -1;
};

}  // namespace servet::exec
