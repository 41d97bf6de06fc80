#include "platform/decorators.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "base/check.hpp"
#include "base/deadline.hpp"
#include "base/hash.hpp"
#include "obs/metrics.hpp"
#include "stats/summary.hpp"

namespace servet {

namespace {

// Stable: every count below is a function of the measured values and the
// plan seeds, never of scheduling — forked replicas derive their streams
// from stable task keys.
obs::Counter& robust_samples() {
    static obs::Counter& c =
        obs::counter("platform.robust.samples", obs::Stability::Stable);
    return c;
}
obs::Counter& robust_discarded() {
    static obs::Counter& c =
        obs::counter("platform.robust.discarded", obs::Stability::Stable);
    return c;
}
obs::Counter& robust_rejected() {
    static obs::Counter& c =
        obs::counter("platform.robust.rejected", obs::Stability::Stable);
    return c;
}
obs::Counter& robust_retries() {
    static obs::Counter& c =
        obs::counter("platform.robust.retries", obs::Stability::Stable);
    return c;
}
obs::Counter& fault_spikes() {
    static obs::Counter& c = obs::counter("platform.fault.spikes", obs::Stability::Stable);
    return c;
}
obs::Counter& fault_nans() {
    static obs::Counter& c = obs::counter("platform.fault.nans", obs::Stability::Stable);
    return c;
}
obs::Counter& fault_throws() {
    static obs::Counter& c = obs::counter("platform.fault.throws", obs::Stability::Stable);
    return c;
}
obs::Counter& fault_hangs() {
    static obs::Counter& c = obs::counter("platform.fault.hangs", obs::Stability::Stable);
    return c;
}

/// Largest mad/|median| across the per-element sample windows; a window
/// around a zero median converges only when its spread is exactly zero.
double worst_rel_mad(const std::vector<std::vector<double>>& per_element) {
    double worst = 0.0;
    for (const std::vector<double>& window : per_element) {
        const double m = stats::median(window);
        const double d = stats::mad(window);
        if (m == 0.0) {
            if (d != 0.0) return std::numeric_limits<double>::infinity();
            continue;
        }
        worst = std::max(worst, d / std::abs(m));
    }
    return worst;
}

}  // namespace

RobustPlatform::RobustPlatform(Platform& inner, int samples)
    : inner_(&inner), options_{samples, samples, 0.0, 8} {
    SERVET_CHECK(samples >= 1);
}

RobustPlatform::RobustPlatform(Platform& inner, const RobustOptions& options)
    : inner_(&inner), options_(options) {
    SERVET_CHECK(options.min_samples >= 1);
    SERVET_CHECK(options.max_samples >= options.min_samples);
    SERVET_CHECK(options.target_rel_mad >= 0.0);
    SERVET_CHECK(options.max_retries >= 0);
}

RobustPlatform::RobustPlatform(std::unique_ptr<Platform> owned, const RobustOptions& options)
    : inner_(owned.get()), owned_(std::move(owned)), options_(options) {}

std::string RobustPlatform::name() const {
    if (options_.min_samples == options_.max_samples)
        return "robust(" + inner_->name() + ", " + std::to_string(options_.min_samples) + ")";
    return "robust(" + inner_->name() + ", " + std::to_string(options_.min_samples) + ".." +
           std::to_string(options_.max_samples) + ")";
}

std::uint64_t RobustPlatform::fingerprint() const {
    const std::uint64_t inner = inner_->fingerprint();
    if (inner == 0) return 0;
    Fingerprint fp;
    fp.add(std::string_view("robust"));
    fp.add(options_.min_samples);
    fp.add(options_.max_samples);
    fp.add(options_.target_rel_mad);
    fp.add(options_.max_retries);
    fp.add(inner);
    return fp.value();
}

std::unique_ptr<Platform> RobustPlatform::fork(std::uint64_t noise_salt,
                                               std::uint64_t placement_salt) const {
    std::unique_ptr<Platform> inner = inner_->fork(noise_salt, placement_salt);
    if (inner == nullptr) return nullptr;
    return std::unique_ptr<Platform>(new RobustPlatform(std::move(inner), options_));
}

template <typename MeasureRun>
std::vector<double> RobustPlatform::aggregate(std::size_t width, MeasureRun&& measure_run) {
    std::vector<std::vector<double>> per_element(width);
    for (std::vector<double>& window : per_element)
        window.reserve(static_cast<std::size_t>(options_.max_samples));

    int runs = 0;
    int retries_left = options_.max_retries;
    while (true) {
        const std::vector<double> run = measure_run();
        SERVET_CHECK(run.size() == width);

        std::size_t bad = 0;
        for (const double v : run)
            if (!std::isfinite(v)) ++bad;
        if (bad > 0) {
            // One bad scalar poisons the whole run (its siblings shared
            // the machine state of a failed measurement): reject and
            // re-measure, within budget.
            robust_rejected().add(bad);
            if (retries_left == 0)
                throw ProbeFault(
                    "robust sampler: non-finite measurements persisted past the retry "
                    "budget");
            --retries_left;
            robust_retries().increment();
            continue;
        }

        // Counters reflect scalar measurements, not aggregations: a
        // concurrent probe of C cores contributes C scalars per run.
        robust_samples().add(width);
        for (std::size_t i = 0; i < width; ++i) per_element[i].push_back(run[i]);
        ++runs;

        if (runs < options_.min_samples) continue;
        if (runs >= options_.max_samples) break;
        if (worst_rel_mad(per_element) <= options_.target_rel_mad) break;
    }
    // All but the median-defining scalar of each element were discarded as
    // potential outliers.
    robust_discarded().add(static_cast<std::uint64_t>(runs - 1) * width);

    std::vector<double> result(width);
    for (std::size_t i = 0; i < width; ++i)
        result[i] = stats::median(std::move(per_element[i]));
    return result;
}

Cycles RobustPlatform::traverse_cycles(CoreId core, Bytes array_bytes, Bytes stride,
                                       int passes, bool fresh_placement) {
    return aggregate(1, [&] {
        return std::vector<double>{
            inner_->traverse_cycles(core, array_bytes, stride, passes, fresh_placement)};
    })[0];
}

std::vector<Cycles> RobustPlatform::traverse_cycles_concurrent(
    const std::vector<CoreId>& cores, Bytes array_bytes, Bytes stride, int passes,
    bool fresh_placement) {
    return aggregate(cores.size(), [&] {
        return inner_->traverse_cycles_concurrent(cores, array_bytes, stride, passes,
                                                  fresh_placement);
    });
}

BytesPerSecond RobustPlatform::copy_bandwidth(CoreId core, Bytes array_bytes) {
    return aggregate(1, [&] {
        return std::vector<double>{inner_->copy_bandwidth(core, array_bytes)};
    })[0];
}

std::vector<BytesPerSecond> RobustPlatform::copy_bandwidth_concurrent(
    const std::vector<CoreId>& cores, Bytes array_bytes) {
    return aggregate(cores.size(),
                     [&] { return inner_->copy_bandwidth_concurrent(cores, array_bytes); });
}

FlakyPlatform::FlakyPlatform(Platform& inner, const FaultPlan& plan)
    : inner_(&inner), plan_(plan), rng_(plan.seed) {
    SERVET_CHECK(plan.spike_probability >= 0 && plan.spike_probability <= 1);
    SERVET_CHECK(plan.nan_probability >= 0 && plan.nan_probability <= 1);
    SERVET_CHECK(plan.throw_probability >= 0 && plan.throw_probability <= 1);
    SERVET_CHECK(plan.hang_probability >= 0 && plan.hang_probability <= 1);
    SERVET_CHECK_MSG(plan.spike_probability + plan.nan_probability +
                             plan.throw_probability + plan.hang_probability <=
                         1.0,
                     "platform fault probabilities must sum to at most 1");
    SERVET_CHECK(plan.spike_factor >= 1.0);
    SERVET_CHECK(plan.hang_seconds > 0.0);
}

FlakyPlatform::FlakyPlatform(Platform& inner, double spike_probability, double spike_factor,
                             std::uint64_t seed)
    : FlakyPlatform(inner, FaultPlan{.spike_probability = spike_probability,
                                     .spike_factor = spike_factor,
                                     .seed = seed}) {}

FlakyPlatform::FlakyPlatform(std::unique_ptr<Platform> owned, const FaultPlan& plan)
    : inner_(owned.get()), owned_(std::move(owned)), plan_(plan), rng_(plan.seed) {}

std::string FlakyPlatform::name() const { return "flaky(" + inner_->name() + ")"; }

std::uint64_t FlakyPlatform::fingerprint() const {
    const std::uint64_t inner = inner_->fingerprint();
    if (inner == 0) return 0;
    // Only value-perturbing plans change what this substrate *measures*.
    // A throw/hang-only plan reports the inner platform's true values, so
    // it keeps the inner fingerprint: its surviving measurements are
    // memo- and journal-compatible with clean runs — which is what lets a
    // suite killed mid-hang resume without re-injecting the faults.
    if (!plan_.perturbs_platform_values()) return inner;
    return inner ^ mix64(plan_.fingerprint());
}

std::unique_ptr<Platform> FlakyPlatform::fork(std::uint64_t noise_salt,
                                              std::uint64_t placement_salt) const {
    std::unique_ptr<Platform> inner = inner_->fork(noise_salt, placement_salt);
    if (inner == nullptr) return nullptr;
    // The replica's fault stream derives from (plan seed, task salt) —
    // never from scheduling order — so parallel runs inject the same
    // faults into the same tasks as serial ones.
    FaultPlan plan = plan_;
    plan.seed = mix64(plan_.seed ^ noise_salt);
    return std::unique_ptr<Platform>(new FlakyPlatform(std::move(inner), plan));
}

void FlakyPlatform::simulate_hang() {
    const auto start = std::chrono::steady_clock::now();
    const auto budget = std::chrono::duration<double>(plan_.hang_seconds);
    while (std::chrono::steady_clock::now() - start < budget) {
        check_deadline();  // the engine's per-task deadline cuts hangs off
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

double FlakyPlatform::filter(double value, bool inflate) {
    const double u = rng_.next_double();
    double band = plan_.spike_probability;
    if (u < band) {
        fault_spikes().increment();
        return inflate ? value * plan_.spike_factor : value / plan_.spike_factor;
    }
    band += plan_.nan_probability;
    if (u < band) {
        fault_nans().increment();
        return std::numeric_limits<double>::quiet_NaN();
    }
    band += plan_.throw_probability;
    if (u < band) {
        fault_throws().increment();
        throw ProbeFault("injected probe fault");
    }
    band += plan_.hang_probability;
    if (u < band) {
        fault_hangs().increment();
        simulate_hang();
    }
    return value;
}

Cycles FlakyPlatform::traverse_cycles(CoreId core, Bytes array_bytes, Bytes stride,
                                      int passes, bool fresh_placement) {
    return filter(inner_->traverse_cycles(core, array_bytes, stride, passes, fresh_placement),
                  /*inflate=*/true);
}

std::vector<Cycles> FlakyPlatform::traverse_cycles_concurrent(const std::vector<CoreId>& cores,
                                                              Bytes array_bytes, Bytes stride,
                                                              int passes,
                                                              bool fresh_placement) {
    std::vector<Cycles> result = inner_->traverse_cycles_concurrent(
        cores, array_bytes, stride, passes, fresh_placement);
    for (Cycles& c : result) c = filter(c, /*inflate=*/true);
    return result;
}

BytesPerSecond FlakyPlatform::copy_bandwidth(CoreId core, Bytes array_bytes) {
    return filter(inner_->copy_bandwidth(core, array_bytes), /*inflate=*/false);
}

std::vector<BytesPerSecond> FlakyPlatform::copy_bandwidth_concurrent(
    const std::vector<CoreId>& cores, Bytes array_bytes) {
    std::vector<BytesPerSecond> result =
        inner_->copy_bandwidth_concurrent(cores, array_bytes);
    for (BytesPerSecond& b : result) b = filter(b, /*inflate=*/false);
    return result;
}

}  // namespace servet
