// Stream prefetcher model. Section III-A motivates the 1 KiB probe stride
// precisely because "current prefetchers work with strides up to 256 or 512
// bytes": a smaller stride lets the prefetcher hide capacity misses and
// corrupts the size estimate. This model captures that: it detects a stable
// stride and, once confident, pulls the next line(s) into the hierarchy
// ahead of the demand access — but only for strides it can track.
//
// Two entry points drive the same state machine:
//  - observe(): one demand access at a time (the scalar oracle path).
//  - plan_run(): a whole constant-stride run at once (the batched engine).
//    The run's per-access emission schedule is closed-form — streaks grow
//    by one per access — so the plan advances internal state to the end of
//    the run and tells the caller exactly which accesses would have
//    emitted prefetches, byte-for-byte equal to calling observe() per
//    access (tests/test_prefetcher.cpp pins the equivalence).
#pragma once

#include <cstdint>

#include "base/hash.hpp"
#include "base/types.hpp"

namespace servet::sim {

struct PrefetcherSpec {
    bool enabled = true;
    Bytes max_stride = 512;   ///< largest stride the unit can follow
    int trigger_streak = 2;   ///< same-stride repeats before prefetching starts
    int degree = 2;           ///< lines fetched ahead once streaming
};

/// Emission schedule for one constant-stride run of demand accesses, as
/// plan_run() computes it. Access 0 (whose incoming stride is the boundary
/// step from whatever preceded the run) is described separately from the
/// steady accesses 1..count-1.
struct StreamRunPlan {
    bool first_emits = false;       ///< access 0 emits `degree` prefetches
    std::int64_t first_stride = 0;  ///< tracked stride behind access 0's emission
    /// Smallest index >= 1 that emits; every later access emits too.
    /// >= count means no steady-state emission in this run.
    std::uint64_t emit_from = 0;
    std::int64_t emit_stride = 0;   ///< tracked stride for accesses >= 1

    friend bool operator==(const StreamRunPlan&, const StreamRunPlan&) = default;
};

class StreamPrefetcher {
  public:
    explicit StreamPrefetcher(const PrefetcherSpec& spec) : spec_(spec) {}

    /// Observe a demand access at virtual address `vaddr`. Returns the
    /// number of prefetch addresses written into `out` (caller provides
    /// space for at least spec.degree entries); those addresses should be
    /// filled into the cache hierarchy by the engine.
    int observe(std::uint64_t vaddr, std::uint64_t* out);

    /// Observe a whole run of `count` accesses at `start`, `start +
    /// stride`, ..., advancing internal state exactly as `count` observe()
    /// calls would, and return which accesses emit prefetches. An emitting
    /// access i issues spec().degree addresses `addr_i + d * stride'` for
    /// d = 1..degree, with stride' the plan's stride for that access.
    [[nodiscard]] StreamRunPlan plan_run(std::uint64_t start, std::int64_t stride,
                                         std::uint64_t count);

    void reset();

    /// The stride-tracking state: all that observe() and plan_run() read.
    /// Two prefetchers of one spec in the same state plan every run alike.
    struct State {
        std::uint64_t last_addr = 0;
        std::int64_t last_stride = 0;
        int streak = 0;
        bool has_last = false;

        friend bool operator==(const State&, const State&) = default;
    };
    [[nodiscard]] State state() const { return {last_addr_, last_stride_, streak_, has_last_}; }

    /// Feeds the stride-tracking state to `fp`.
    void digest(Fingerprint& fp) const {
        fp.add(has_last_);
        fp.add(last_addr_);
        fp.add(static_cast<std::int64_t>(last_stride_));
        fp.add(streak_);
    }

    [[nodiscard]] const PrefetcherSpec& spec() const { return spec_; }
    [[nodiscard]] bool streaming() const { return streak_ >= spec_.trigger_streak; }

  private:
    PrefetcherSpec spec_;
    std::uint64_t last_addr_ = 0;
    std::int64_t last_stride_ = 0;
    int streak_ = 0;
    bool has_last_ = false;
};

}  // namespace servet::sim
