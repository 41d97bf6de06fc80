// Shared scaffolding of bench_suite: the run settings, the report every
// workload fills, and the op loop that spends a run's time budget.
//
// A workload is a sequence of operations a servet user waits on (a
// profile pass, a request). Untraced ops give the
// end-to-end numbers; in a trace run every second op runs with the obs
// tracer on, so the per-layer numbers and the tracing overhead come from
// one process.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "accounting.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "stats/summary.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Seed 0 measures the zoo machines with their own seeds, exactly as
/// `servet profile` does; the profile digests in profile_workloads.cpp
/// are pinned at it.
inline constexpr std::uint64_t kDefaultSeed = 0;

struct Settings {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 30;  ///< measured time budget of the run
    bool trace = false;   ///< per-layer run: every second op is traced
    bool smoke = false;   ///< one op per workload (0.2 s of serve traffic)
    std::string scratch;  ///< private scratch root, removed at exit
};

/// A zoo machine under the run seed (MachineSpec::seed drives the
/// simulated noise and page placement).
[[nodiscard]] servet::sim::MachineSpec seeded(servet::sim::MachineSpec spec,
                                              std::uint64_t seed);

/// Stable obs counters, read before and after an op.
using Counters = std::map<std::string, std::uint64_t>;
[[nodiscard]] Counters counter_delta(const Counters& before, const Counters& after);

struct Report {
    std::vector<double> setup_s;       ///< one sample per set-up
    std::vector<double> op_ms;         ///< untraced ops: the end-to-end numbers
    std::vector<double> traced_op_ms;  ///< traced ops (trace runs only)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t failed_checks = 0;
    std::vector<std::string> failures;  ///< first few failed checks, for stderr

    /// Times the forks of the decorated platforms and networks.
    ForkClock fork_clock;
    /// Summed over traced ops.
    SpanTotals spans;
    std::uint64_t trace_dropped = 0;
    ForkTotals forks;
    /// Stable counter deltas of one op (every op must repeat them).
    std::optional<Counters> op_counters;
    /// Per-layer values a workload computes itself (phase rows, serve
    /// shares), keyed by metric name.
    std::map<std::string, double> layer;

    /// Records the outcome of one check.
    void check(bool ok, const std::string& what);
    [[nodiscard]] bool correct() const { return failed == 0 && failed_checks == 0; }
    /// One attempted op, failed when `ok` is false.
    void count_op(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }
    /// Requires every op of the run to repeat the first op's counters.
    void check_counters(const Counters& delta);
    /// Adds the tracer's spans and drops since its last reset.
    void collect_trace() {
        spans += span_totals(servet::obs::tracer().snapshot());
        trace_dropped += servet::obs::tracer().dropped();
    }
};

/// What one op measured: its set-ups and the timed part a user waits on.
struct OpTimes {
    std::vector<double> setup_s;
    double op_ms = 0;
};

/// Runs `make()` `times` times, adds each run's time to `samples`, and
/// returns what the last one made.
template <typename Make>
auto repeat_setup(int times, std::vector<double>& samples, Make&& make) {
    for (int k = 1;; ++k) {
        const auto start = Clock::now();
        auto made = make();
        samples.push_back(seconds_since(start));
        if (k >= times) return made;
    }
}

/// Untimed ops at the start of a run: they repeat until this much time
/// has passed, at least one op. A fresh process runs its first passes up
/// to 2-3x slower (allocator, page tables, caches).
inline constexpr double kWarmupSeconds = 2;

/// Runs `op(traced) -> OpTimes` until the budget is spent: a new op
/// starts only while the previous one still fits. Warm-up ops (see
/// kWarmupSeconds) are checked but not timed; smoke runs skip them. Trace
/// runs then alternate untraced and traced ops and need at least one of
/// each. An op fails when any check inside it fails, or when its Stable
/// counter deltas differ from the first op's.
template <typename Op>
void run_ops(const Settings& settings, Report& report, Op&& op) {
    const std::size_t min_ops = settings.trace ? 2 : 1;
    bool warming = !settings.smoke;
    std::size_t timed = 0;
    auto start = Clock::now();
    double last_s = 0;
    for (;;) {
        const bool spent = seconds_since(start) + last_s > settings.seconds;
        if (!warming && timed >= min_ops && (settings.smoke || spent)) break;
        const bool traced = settings.trace && !warming && timed % 2 == 1;
        servet::obs::tracer().reset();
        servet::obs::tracer().set_enabled(traced);
        const auto op_start = Clock::now();
        const std::uint64_t failed_checks = report.failed_checks;
        const Counters before = servet::obs::registry().stable_counters();
        const OpTimes times = op(traced);
        servet::obs::tracer().set_enabled(false);
        report.check_counters(counter_delta(before, servet::obs::registry().stable_counters()));
        report.count_op(report.failed_checks == failed_checks);
        ForkTotals untraced;
        report.fork_clock.drain_into(traced ? report.forks : untraced);
        last_s = seconds_since(op_start);
        if (warming) {
            warming = seconds_since(start) < kWarmupSeconds;
            if (!warming) start = Clock::now();
            continue;
        }
        ++timed;
        report.setup_s.insert(report.setup_s.end(), times.setup_s.begin(), times.setup_s.end());
        (traced ? report.traced_op_ms : report.op_ms).push_back(times.op_ms);
        if (traced) report.collect_trace();
    }
}

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
/// stats::median, or 0 when there are no samples.
[[nodiscard]] inline double median(std::vector<double> samples) {
    return samples.empty() ? 0 : servet::stats::median(std::move(samples));
}

// The workloads (one file each).
void run_profile_smp(const Settings& settings, Report& report);
void run_profile_cluster(const Settings& settings, Report& report);
void run_serve_mixed(const Settings& settings, Report& report);

}  // namespace bench
