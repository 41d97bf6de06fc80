// Platform decorators.
//
// RobustPlatform: repeats every measurement and takes the per-element
// median — the standard defence against descheduling, interrupts and
// frequency excursions on real hosts. Sampling is adaptive: after a
// minimum window it keeps measuring until the relative MAD of every
// element converges below a target (or a hard cap), so quiet machines pay
// the minimum and noisy ones buy precision with repetition. Non-finite
// samples (a fault injector's NaN, a timer glitch) are rejected before
// statistics ever see them, with a bounded re-measure budget. Wrap a
// NativePlatform in it for production runs.
//
// FlakyPlatform: deterministic fault injection for tests, driven by a
// FaultPlan — measurement spikes (a benchmark thread that lost its core
// for a timeslice), NaN returns (a broken timer read), thrown probe
// errors (a measurement that died outright) and simulated hangs cut off
// by the engine's cooperative deadline. Every decision derives from the
// plan's seed (mixed per replica with the task-key salt), so faulty runs
// are reproducible and parallel ≡ serial. Detection must survive
// FlakyPlatform when measured through RobustPlatform.
//
// Both decorators forward fork(): wrapping a forkable platform keeps the
// engine's parallel, memoized path, with the decorator re-applied around
// each replica. Forwarding is also what carries inner-platform modes
// through a decorator stack — in particular SimPlatform's traversal
// engine selection (batched vs reference, docs/simulator.md) survives
// wrapping and forking without the decorators knowing it exists.
#pragma once

#include <memory>

#include "base/fault_plan.hpp"
#include "base/rng.hpp"
#include "platform/platform.hpp"

namespace servet {

/// Sampling policy of RobustPlatform. The fixed policy of the original
/// decorator is min_samples == max_samples.
struct RobustOptions {
    int min_samples = 3;   ///< window measured before convergence is judged
    int max_samples = 15;  ///< hard cap per aggregation
    /// Converged when every element's mad/|median| is at or below this;
    /// 0 accepts only noise-free windows (simulators without jitter).
    double target_rel_mad = 0.05;
    /// Whole-window re-measures allowed when a sample comes back
    /// non-finite; exhausting the budget throws ProbeFault.
    int max_retries = 8;
};

class RobustPlatform final : public Platform {
  public:
    /// Fixed policy: exactly `samples` measurements per probe, medians per
    /// element for concurrent probes. `inner` must outlive this decorator.
    RobustPlatform(Platform& inner, int samples);
    /// Adaptive policy (see RobustOptions).
    RobustPlatform(Platform& inner, const RobustOptions& options);

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] int core_count() const override { return inner_->core_count(); }
    [[nodiscard]] Bytes page_size() const override { return inner_->page_size(); }
    [[nodiscard]] std::uint64_t fingerprint() const override;
    [[nodiscard]] bool forkable() const override { return inner_->forkable(); }
    [[nodiscard]] std::unique_ptr<Platform> fork(std::uint64_t noise_salt,
                                                 std::uint64_t placement_salt) const override;

    [[nodiscard]] Cycles traverse_cycles(CoreId core, Bytes array_bytes, Bytes stride,
                                         int passes, bool fresh_placement) override;
    [[nodiscard]] std::vector<Cycles> traverse_cycles_concurrent(
        const std::vector<CoreId>& cores, Bytes array_bytes, Bytes stride, int passes,
        bool fresh_placement) override;
    [[nodiscard]] BytesPerSecond copy_bandwidth(CoreId core, Bytes array_bytes) override;
    [[nodiscard]] std::vector<BytesPerSecond> copy_bandwidth_concurrent(
        const std::vector<CoreId>& cores, Bytes array_bytes) override;

  private:
    RobustPlatform(std::unique_ptr<Platform> owned, const RobustOptions& options);

    /// Samples `measure_run` (one run = `width` scalars, one per probed
    /// core) until convergence, rejecting non-finite runs; returns the
    /// per-element medians.
    template <typename MeasureRun>
    [[nodiscard]] std::vector<double> aggregate(std::size_t width, MeasureRun&& measure_run);

    Platform* inner_;
    std::unique_ptr<Platform> owned_;  ///< set on forked replicas only
    RobustOptions options_;
};

class FlakyPlatform final : public Platform {
  public:
    /// Injects the platform-side faults of `plan` (spike/nan/throw/hang),
    /// one decision per scalar measurement, deterministic per plan.seed.
    /// Spikes inflate traversal cycles and deflate bandwidths, as
    /// interference does.
    FlakyPlatform(Platform& inner, const FaultPlan& plan);
    /// Spike-only convenience, the original decorator's signature.
    FlakyPlatform(Platform& inner, double spike_probability, double spike_factor,
                  std::uint64_t seed);

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] int core_count() const override { return inner_->core_count(); }
    [[nodiscard]] Bytes page_size() const override { return inner_->page_size(); }
    [[nodiscard]] std::uint64_t fingerprint() const override;
    [[nodiscard]] bool forkable() const override { return inner_->forkable(); }
    [[nodiscard]] std::unique_ptr<Platform> fork(std::uint64_t noise_salt,
                                                 std::uint64_t placement_salt) const override;

    [[nodiscard]] Cycles traverse_cycles(CoreId core, Bytes array_bytes, Bytes stride,
                                         int passes, bool fresh_placement) override;
    [[nodiscard]] std::vector<Cycles> traverse_cycles_concurrent(
        const std::vector<CoreId>& cores, Bytes array_bytes, Bytes stride, int passes,
        bool fresh_placement) override;
    [[nodiscard]] BytesPerSecond copy_bandwidth(CoreId core, Bytes array_bytes) override;
    [[nodiscard]] std::vector<BytesPerSecond> copy_bandwidth_concurrent(
        const std::vector<CoreId>& cores, Bytes array_bytes) override;

  private:
    FlakyPlatform(std::unique_ptr<Platform> owned, const FaultPlan& plan);

    /// Draws one fault decision and applies it to `value`. `inflate`
    /// selects the spike direction (cycles up, bandwidth down). May throw
    /// ProbeFault or TaskDeadlineExceeded, or stall (simulated hang).
    [[nodiscard]] double filter(double value, bool inflate);
    void simulate_hang();

    Platform* inner_;
    std::unique_ptr<Platform> owned_;  ///< set on forked replicas only
    FaultPlan plan_;
    Rng rng_;
};

}  // namespace servet
