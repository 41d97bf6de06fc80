// Cache level/size detection: the first-peak rule for the virtually
// indexed L1, the probabilistic estimator for physically indexed lower
// levels (Fig. 3), and the overall level-detection driver (Fig. 4).
//
// The probabilistic estimator is the paper's key contribution over
// X-Ray/P-Ray: on an OS without page coloring, random physical backing
// smears the miss-rate transition of an L2/L3 sweep over a wide size
// range. But the *shape* of the smear is fully determined by the binomial
// page-set occupancy model — with NP pages touched and a K-way cache of
// size CS, a page set holds X ~ B(NP, K*PS/CS) pages and overflows when
// X > K — so scanning candidate (CS, K) pairs for the best-fitting
// predicted miss-rate curve recovers the true size even though no single
// array size marks it.
//
// Two refinements over the paper's pseudocode (both documented in
// DESIGN.md):
//  * miss-rate model — the paper uses P(X > K) as the expected miss rate;
//    accesses land on page sets in proportion to their occupancy, so the
//    per-access rate is really the size-biased tail E[X; X > K]/E[X].
//    Both models are available (MissRateModel); the size-biased one is the
//    default and the ablation bench quantifies the difference.
//  * window selection — adjacent levels of big LLC machines (e.g. the
//    Dunnington 3MB L2 / 12MB L3) produce overlapping smears that merge
//    into one above-threshold gradient run. Runs are split at interior
//    gradient minima when both sides carry a prominent rise of their own,
//    recovering the paper's per-level windows ("[256KB,4MB]" for Dempsey,
//    "[3MB,14MB]" for Dunnington) automatically.
#pragma once

#include <string>
#include <vector>

#include "core/mcalibrator.hpp"
#include "core/probe_common.hpp"

namespace servet::core {

/// Expected miss rate of a page set under X ~ B(NP, K*PS/CS).
enum class MissRateModel {
    SizeBiased,  ///< E[X; X > K] / E[X]: per-access expectation (default)
    PaperTail,   ///< P(X > K): the paper's Fig. 3 formula
};

struct CacheDetectOptions {
    Bytes page_size = 4 * KiB;
    /// Gradient above this marks a rising sample. The paper uses
    /// "gradient > 1"; the margin keeps averaged measurement noise from
    /// fabricating levels.
    double gradient_threshold = 1.05;
    /// Regions whose total cycle rise is below this are noise, not levels.
    double min_total_rise = 1.25;
    /// Split a gradient run at an interior local minimum when the peak
    /// rise on each side is at least this multiple of the minimum's rise.
    double split_prominence = 3.0;
    /// Candidate associativities scanned by the probabilistic estimator.
    std::vector<int> associativities = {2, 4, 6, 8, 12, 16, 24, 32};
    /// How many lowest-divergence (CS, K) entries vote for the final size
    /// (Fig. 3 takes the mode of the best five).
    int mode_votes = 5;
    MissRateModel model = MissRateModel::SizeBiased;
};

/// One detected cache level.
struct CacheLevelEstimate {
    Bytes size = 0;
    /// "peak": single-sample gradient peak (virtually indexed cache or OS
    /// with page coloring); "probabilistic": Fig. 3 estimator.
    std::string method;
    /// Sample window [first, last] of the mcalibrator curve the estimate
    /// was derived from (indices into sizes/cycles).
    std::size_t window_first = 0;
    std::size_t window_last = 0;

    [[nodiscard]] bool operator==(const CacheLevelEstimate&) const = default;
};

/// Candidate cache sizes scanned by the probabilistic estimator: the
/// realistic cache-size universe {1, 3, 5, 9} * 2^k within [16KB,
/// max_size] (covers 256KB, 512KB, 2MB, 3MB, 9MB, 12MB, ... — every size
/// in the paper's evaluation), sorted ascending.
[[nodiscard]] std::vector<Bytes> default_size_candidates(Bytes max_size);

/// Expected miss rate for NP pages under candidate (CS given as
/// probability p = K*PS/CS) — exposed for tests and the ablation bench.
[[nodiscard]] double expected_miss_rate(MissRateModel model, std::int64_t pages, double p,
                                        int k);

/// The Fig. 3 estimator over one transition window of the curve.
/// Samples [window_first, window_last] span the rise; `hit_time` and
/// `miss_time` anchor the 0%- and 100%-miss cycle levels (pass the
/// plateau values flanking the window). Throws DetectError when the
/// curve's values defeat the estimator.
[[nodiscard]] Bytes probabilistic_cache_size(const McalibratorCurve& curve,
                                             std::size_t window_first,
                                             std::size_t window_last, double hit_time,
                                             double miss_time,
                                             const CacheDetectOptions& options);

/// Convenience overload anchoring hit/miss at the window endpoints.
[[nodiscard]] Bytes probabilistic_cache_size(const McalibratorCurve& curve,
                                             std::size_t window_first,
                                             std::size_t window_last,
                                             const CacheDetectOptions& options);

/// The Fig. 4 driver: find gradient rise regions, apply the first-peak
/// rule for L1 and the position rule for single-sample peaks, split merged
/// multi-level regions, and run the probabilistic estimator on smeared
/// ones. Levels are returned in ascending size. Throws DetectError
/// `detect.bad_sample` when a sample is not a positive, finite cycle count
/// (a memo or native platform can hand one in).
[[nodiscard]] std::vector<CacheLevelEstimate> detect_cache_levels(
    const McalibratorCurve& curve, const CacheDetectOptions& options);

/// Convenience: run mcalibrator and detect levels in one call.
[[nodiscard]] std::vector<CacheLevelEstimate> detect_cache_levels(
    Platform& platform, const McalibratorOptions& mc_options,
    CacheDetectOptions detect_options = {});

}  // namespace servet::core
