// Suite driver: runs the four benchmarks in dependency order (cache sizes
// feed the shared-cache probe, the LLC sizes the memory arrays, the L1
// size the comm probe message), times each phase like Table I, and folds
// everything into a Profile.
//
// Parallelism: with jobs > 1, each phase fans its measurement tasks out
// over a thread pool, and the three phases downstream of cache-size
// detection — mutually independent once the sizes are known — fan out
// over the same pool's parallel_for. On deterministic (forkable) platforms,
// every task's RNG seeds derive from its stable key, never from
// scheduling order, so a parallel run's Profile is byte-identical to the
// serial one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/cache_size.hpp"
#include "core/comm_costs.hpp"
#include "core/mcalibrator.hpp"
#include "core/mem_overhead.hpp"
#include "core/profile.hpp"
#include "core/shared_cache.hpp"
#include "msg/network.hpp"
#include "obs/trace.hpp"

namespace servet::core {

/// Accumulates wall-clock seconds per phase into a shared sink. Repeated
/// timings of one phase add up (a phase that runs in several pieces
/// reports its total, not the last piece), and recording is thread-safe
/// so concurrent phases can share one sink.
class PhaseTimer {
  public:
    explicit PhaseTimer(std::map<std::string, Seconds>& sink) : sink_(&sink) {}

    template <typename F>
    auto time(const std::string& phase, F&& body) {
        SERVET_TRACE_SPAN("phase/" + phase);
        const auto start = std::chrono::steady_clock::now();
        auto result = std::forward<F>(body)();
        const auto elapsed = std::chrono::steady_clock::now() - start;
        record(phase,
               std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count());
        return result;
    }

    void record(const std::string& phase, Seconds elapsed);

    /// Accumulated seconds of `phase` so far (0 when never recorded).
    [[nodiscard]] Seconds total(const std::string& phase);

  private:
    std::mutex mutex_;
    std::map<std::string, Seconds>* sink_;
};

struct SuiteOptions {
    McalibratorOptions mcalibrator;
    CacheDetectOptions detect;
    SharedCacheOptions shared_cache;
    MemOverheadOptions mem_overhead;
    CommCostsOptions comm;
    /// Skip phases (a unicore machine has no pairs to probe; a node
    /// without a network skips comm). Skipping cache-size detection (a
    /// cluster run that only needs the network phase) also skips the
    /// phases that consume its sizes — shared-cache and mem-overhead —
    /// and requires an explicit comm probe_message, since the L1-size
    /// default for it is no longer measured.
    bool run_cache_size = true;
    bool run_shared_cache = true;
    bool run_mem_overhead = true;
    bool run_comm = true;
    /// Concurrent measurement tasks (1 = serial). Only deterministic
    /// (forkable) platforms parallelize; results are byte-identical to a
    /// serial run either way.
    int jobs = 1;
    /// Reuse measurements within the run (content-addressable platforms
    /// only; repeated probes of one (machine, task) pair replay the
    /// stored values).
    bool use_memo = true;
    /// When non-empty, merge the memo from this file before the run and
    /// save it back after — measurement reuse across tool invocations.
    std::string memo_path;
    /// Embed the run's deterministic counter block (SuiteResult::counters)
    /// in the profile produced by to_profile — golden tests pin it.
    bool profile_counters = false;
    /// Cooperative per-measurement-task deadline in seconds (0 = none).
    /// Deadline-aware substrates abort a task that overruns it with
    /// TaskDeadlineExceeded, which phase isolation then records instead
    /// of letting one hung probe stall the whole suite.
    Seconds task_deadline = 0;
    /// When non-empty, the run keeps a write-ahead phase journal under
    /// this directory (core/journal.hpp): each completed phase's full
    /// result is committed and fsync'd as it lands, and the measurement
    /// memo is journaled incrementally, so a run killed mid-suite loses
    /// at most the in-flight work.
    std::string run_dir;
    /// Resume from the journal found under run_dir: committed phases are
    /// replayed bit-exactly without re-measurement (their wall-clock
    /// restored from the producing run), and only missing or previously
    /// failed phases re-run. run_suite throws JournalError when the
    /// journal's options hash or machine identity disagrees with this
    /// run — resuming must never mix measurements of two configurations.
    /// Requires run_dir; an absent journal degrades to a fresh run.
    bool resume = false;
    /// Phases to drop from the journal before replay (resume mode only):
    /// `servet validate --repair` lists the phases its violations
    /// implicate here, so exactly those re-measure while the rest replay.
    std::vector<std::string> remeasure;
};

/// One failed phase of a suite run: the phase's timing name plus the
/// message of the exception that ended it.
struct PhaseError {
    std::string phase;
    std::string message;

    friend bool operator==(const PhaseError&, const PhaseError&) = default;
};

struct SuiteResult {
    McalibratorCurve curve;
    std::vector<CacheLevelEstimate> cache_levels;
    std::vector<SharedCacheLevelResult> shared_caches;
    MemOverheadResult mem_overhead;
    CommCostsResult comm;
    bool has_shared_caches = false;
    bool has_mem_overhead = false;
    bool has_comm = false;
    std::map<std::string, Seconds> phase_seconds;  ///< Table I rows
    /// This run's deltas of every Stable obs counter (nonzero ones only):
    /// schedule-invariant, so --jobs 1 and --jobs N report identical maps.
    /// Memo hits and misses, journal replays and appends: read them here.
    std::map<std::string, std::uint64_t> counters;
    /// Copy `counters` into the profile (SuiteOptions::profile_counters).
    bool embed_counters = false;
    /// Phases that threw, sorted by phase name. Phase isolation: a failed
    /// phase is recorded here — its result fields keep their defaults and
    /// its has_* flag stays false — while every other phase still runs.
    /// Empty means a fully successful run.
    std::vector<PhaseError> errors;

    /// This run's delta of the Stable counter `name`; 0 when it did not
    /// move (`counters` holds nonzero deltas only).
    [[nodiscard]] std::uint64_t counter(const std::string& name) const;

    /// True when at least one phase failed (the result is partial).
    [[nodiscard]] bool partial() const { return !errors.empty(); }

    /// Every measured quantity equal (phase timings and counters
    /// excluded — wall clock can never repeat, and a warm run counts memo
    /// hits where a cold one measured). This is the determinism contract
    /// a parallel run is tested against.
    [[nodiscard]] bool measurements_equal(const SuiteResult& other) const;

    /// Aggregate into the installable profile file.
    [[nodiscard]] Profile to_profile(const std::string& machine_name, int cores,
                                     Bytes page_size) const;
};

/// Run the full suite. `network` may be null (comm phase is skipped); on
/// single-core platforms the pairwise phases skip themselves.
///
/// Fault tolerance: a phase that throws does not abort the run. Its error
/// lands in SuiteResult::errors, the remaining phases execute, the memo
/// (when configured) is still saved, and to_profile emits a partial
/// profile whose [errors] section names the failed phases.
///
/// Crash safety: with SuiteOptions::run_dir set, completed phases are
/// journaled as they land and a resumed run (SuiteOptions::resume)
/// replays them bit-exactly. Throws JournalError when an existing journal
/// is incompatible with this run's options or machine.
[[nodiscard]] SuiteResult run_suite(Platform& platform, msg::Network* network,
                                    SuiteOptions options = {});

}  // namespace servet::core
