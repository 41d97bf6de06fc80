// Write-ahead run journal: crash-safe checkpointing for suite runs. A
// full-suite measurement campaign takes minutes to hours (the paper's
// Table I), so the single most expensive failure left after in-process
// phase isolation is the process dying mid-run — a SIGKILL, an OOM, a
// node reboot. The journal makes that survivable: under a run directory
// it records the suite's options hash, the measured machine's identity,
// and each phase's complete serialized result as it lands, each append
// fsync'd and framed with a content hash so a torn tail from a crash is
// detected and discarded, never replayed. A resumed run (`servet profile
// --run-dir D --resume`) replays every committed phase bit-exactly and
// re-measures only the missing or previously failed ones; a journal whose
// options hash or machine fingerprint disagrees with the resuming run is
// refused with a diagnostic rather than silently mixing measurements of
// different configurations.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/suite.hpp"

namespace servet::core {

/// A journal could not be created, read, or safely resumed. The message
/// is the user-facing diagnostic (`servet profile --resume` prints it and
/// exits non-zero).
struct JournalError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// Hash of every SuiteOptions field that can change a measured value
/// (sweep grids, thresholds, phase selection). Scheduling and plumbing
/// knobs — jobs, memo paths, deadlines, run_dir itself — are excluded by
/// design: a run may legally resume with a different --jobs. Hash the
/// options exactly as the caller passed them, before run_suite derives
/// per-phase sizes from the cache-size result.
[[nodiscard]] std::uint64_t suite_options_hash(const SuiteOptions& options);

class RunJournal {
  public:
    /// Identity block written at creation and verified on resume.
    struct Header {
        std::uint64_t options_hash = 0;
        /// Platform fingerprint (0 = not content-addressable, e.g. real
        /// hardware; then the machine name carries the identity check).
        std::uint64_t fingerprint = 0;
        std::string machine;
        int cores = 0;
        Bytes page_size = 0;
    };

    /// One committed phase: its serialized payload (core/phase_codec.hpp)
    /// and the wall-clock seconds the phase took in the producing run.
    struct Record {
        std::string payload;
        Seconds seconds = 0;
    };

    enum class Mode {
        Create,  ///< fresh journal; truncates any existing one
        Resume,  ///< replay an existing compatible journal (absent = fresh)
    };

    /// Journal file inside a run directory.
    [[nodiscard]] static std::string file_path(const std::string& run_dir);

    /// Opens the journal under `run_dir` (created if missing). Resume
    /// loads committed records and verifies `header` compatibility;
    /// throws JournalError with a clear diagnostic on a malformed file,
    /// an options-hash or machine mismatch, or any I/O failure.
    RunJournal(const std::string& run_dir, const Header& header, Mode mode);

    RunJournal(const RunJournal&) = delete;
    RunJournal& operator=(const RunJournal&) = delete;

    /// The committed record of `phase`, or nullptr. Pointers stay valid
    /// until drop() is called on that phase.
    [[nodiscard]] const Record* find(const std::string& phase) const;

    [[nodiscard]] const std::map<std::string, Record>& records() const { return records_; }
    [[nodiscard]] const Header& header() const { return header_; }

    /// True when loading discarded a torn trailing record — the signature
    /// of a crash mid-append. Harmless (the phase re-runs) but logged.
    [[nodiscard]] bool dropped_torn_tail() const { return dropped_torn_tail_; }

    /// Appends one committed phase record and fsyncs it; `digest` is the
    /// run's current Stable-counter digest, recorded on the commit line
    /// for forensics. Thread-safe (concurrent phases append through
    /// one journal). Returns false on I/O failure — the run carries on,
    /// it just loses crash protection for this phase.
    [[nodiscard]] bool append(const std::string& phase, const std::string& payload,
                              Seconds seconds, std::uint64_t digest);

    /// Removes a phase's record and rewrites the journal atomically —
    /// `servet validate --repair` invalidates exactly the implicated
    /// phases this way, then a resumed run re-measures them. Returns
    /// false on I/O failure (the record is then still present on disk).
    [[nodiscard]] bool drop(const std::string& phase);

  private:
    void load(const std::string& text);
    [[nodiscard]] std::string serialize_all() const;

    std::string path_;
    Header header_;
    std::map<std::string, Record> records_;
    bool dropped_torn_tail_ = false;
    std::mutex mutex_;
};

/// Append-only time-series journal: the run journal's framed-record
/// format with a `sample` record kind. `servet watch` commits one sample
/// per re-measurement tick — fsync'd, length- and hash-framed exactly
/// like a phase record, so a watch killed mid-append loses at most the
/// in-flight tick: the torn tail is discarded (and physically truncated)
/// on the next open, and the resumed watch continues at the next tick.
/// Ticks are positional — sample k is the k-th committed record — which
/// keeps the stream append-only and byte-comparable across resumes.
class SeriesJournal {
  public:
    /// Same identity block as the run journal; an existing series whose
    /// options hash or machine identity disagrees is refused.
    using Header = RunJournal::Header;
    using Mode = RunJournal::Mode;

    /// Series file inside a run directory.
    [[nodiscard]] static std::string file_path(const std::string& run_dir);

    /// Opens the series under `run_dir` (created if missing). Resume
    /// loads committed samples and verifies `header` compatibility;
    /// throws JournalError on a malformed header, an identity mismatch,
    /// or any I/O failure. A torn trailing record (crash mid-append) is
    /// discarded and truncated away, never fatal.
    SeriesJournal(const std::string& run_dir, const Header& header, Mode mode);

    SeriesJournal(const SeriesJournal&) = delete;
    SeriesJournal& operator=(const SeriesJournal&) = delete;

    /// Committed sample payloads, in tick order (index == tick).
    [[nodiscard]] const std::vector<std::string>& samples() const { return samples_; }
    [[nodiscard]] const Header& header() const { return header_; }

    /// True when opening discarded a torn trailing record.
    [[nodiscard]] bool dropped_torn_tail() const { return dropped_torn_tail_; }

    /// Appends the next sample (tick = samples().size()) and fsyncs it.
    /// Returns false on I/O failure — the watch carries on, the tick just
    /// loses crash protection.
    [[nodiscard]] bool append(const std::string& payload);

  private:
    void load(const std::string& text);

    std::string path_;
    Header header_;
    std::vector<std::string> samples_;
    bool dropped_torn_tail_ = false;
    std::mutex mutex_;
};

}  // namespace servet::core
