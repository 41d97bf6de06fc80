#include "core/cache_size.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"
#include "base/log.hpp"
#include "base/text.hpp"
#include "stats/binomial.hpp"
#include "stats/gradient.hpp"
#include "stats/summary.hpp"

namespace servet::core {

std::vector<Bytes> default_size_candidates(Bytes max_size) {
    std::vector<Bytes> candidates;
    for (const Bytes m : {1u, 3u, 5u, 9u}) {
        for (Bytes cs = m * 16 * KiB; cs <= max_size; cs *= 2) {
            if (cs >= 16 * KiB) candidates.push_back(cs);
        }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    return candidates;
}

double expected_miss_rate(MissRateModel model, std::int64_t pages, double p, int k) {
    SERVET_CHECK(pages >= 0 && p >= 0.0 && p <= 1.0 && k >= 0);
    if (model == MissRateModel::PaperTail) return stats::binomial_tail_above(pages, p, k);

    // Size-biased tail E[X; X > K] / E[X]: accesses hit page sets in
    // proportion to occupancy. Identity: E[X; X > K] for X ~ B(n, p) equals
    // n*p*P(Y > K-1) with Y ~ B(n-1, p) (thinning), so the ratio is simply
    // P(Y >= K), avoiding an explicit sum.
    if (pages == 0) return 0.0;
    return stats::binomial_tail_above(pages - 1, p, k - 1);
}

namespace {

/// Median of curve samples [lo, hi] (inclusive, clamped).
double plateau_level(const McalibratorCurve& curve, std::ptrdiff_t lo, std::ptrdiff_t hi) {
    lo = std::max<std::ptrdiff_t>(lo, 0);
    hi = std::min<std::ptrdiff_t>(hi, static_cast<std::ptrdiff_t>(curve.points()) - 1);
    SERVET_CHECK(lo <= hi);
    std::vector<double> window(curve.cycles.begin() + lo, curve.cycles.begin() + hi + 1);
    return stats::median(std::move(window));
}

/// Minimum of curve samples [lo, hi] (inclusive, clamped). The right
/// statistic for "does the curve *stay* elevated after this rise": a real
/// transition keeps every following sample up; an isolated measurement
/// spike drops straight back.
double floor_level(const McalibratorCurve& curve, std::ptrdiff_t lo, std::ptrdiff_t hi) {
    lo = std::max<std::ptrdiff_t>(lo, 0);
    hi = std::min<std::ptrdiff_t>(hi, static_cast<std::ptrdiff_t>(curve.points()) - 1);
    SERVET_CHECK(lo <= hi);
    std::vector<double> window(curve.cycles.begin() + lo, curve.cycles.begin() + hi + 1);
    return stats::min_value(window);
}

/// A maximal run of above-threshold gradient samples: the rise between
/// samples `first` and `last + 1` of the curve.
struct Region {
    std::size_t first;  ///< first gradient index of the run
    std::size_t last;   ///< last gradient index of the run
};

/// Split a region at interior gradient minima separating two prominent
/// rises (overlapping transitions of adjacent cache levels). Appends the
/// resulting (possibly recursive) subregions to `out` in ascending order.
void split_region(const Region& region, const std::vector<double>& gradient,
                  const CacheDetectOptions& options, std::vector<Region>& out) {
    // Find the interior local minimum with the most prominent rise on
    // both sides.
    std::size_t best = 0;
    double best_score = 0.0;
    for (std::size_t m = region.first + 1; m < region.last; ++m) {
        if (gradient[m] > gradient[m - 1] || gradient[m] > gradient[m + 1]) continue;
        double left_max = 1.0;
        for (std::size_t i = region.first; i < m; ++i) left_max = std::max(left_max, gradient[i]);
        double right_max = 1.0;
        for (std::size_t i = m + 1; i <= region.last; ++i)
            right_max = std::max(right_max, gradient[i]);
        const double dip = std::max(gradient[m] - 1.0, 1e-9);
        const double score = std::min(left_max - 1.0, right_max - 1.0) / dip;
        if (score > best_score) {
            best_score = score;
            best = m;
        }
    }
    if (best_score >= options.split_prominence) {
        split_region({region.first, best - 1}, gradient, options, out);
        split_region({best, region.last}, gradient, options, out);
    } else {
        out.push_back(region);
    }
}

}  // namespace

Bytes probabilistic_cache_size(const McalibratorCurve& curve, std::size_t window_first,
                               std::size_t window_last, double hit_time, double miss_time,
                               const CacheDetectOptions& options) {
    SERVET_CHECK(window_first < window_last && window_last < curve.points());
    const Bytes page = options.page_size;
    SERVET_CHECK(page > 0);
    if (!(miss_time > hit_time))
        throw DetectError("detect.no_rise", "window does not span a cycle rise");

    // Miss rate and page count per window sample (the MR/NP arrays of Fig. 3).
    struct Sample {
        double miss_rate;
        std::int64_t pages;
    };
    std::vector<Sample> samples;
    for (std::size_t i = window_first; i <= window_last; ++i) {
        const double mr =
            std::clamp((curve.cycles[i] - hit_time) / (miss_time - hit_time), 0.0, 1.0);
        const auto pages = static_cast<std::int64_t>(curve.sizes[i] / page);
        if (pages >= 1) samples.push_back({mr, pages});
    }
    if (samples.size() < 2)
        throw DetectError("detect.window_narrow",
                          "window too narrow for the probabilistic estimator");

    // The true size lies within the transition: miss rates only leave 0
    // once pages can overflow a page set, and only saturate once they far
    // exceed capacity. Constrain candidates accordingly.
    const Bytes lo = curve.sizes[window_first];
    const Bytes hi = curve.sizes[window_last];

    struct Entry {
        double divergence;
        Bytes size;
    };
    std::vector<Entry> entries;
    for (Bytes cs : default_size_candidates(hi)) {
        if (cs < lo || cs > hi) continue;
        for (int k : options.associativities) {
            const double p = static_cast<double>(k) * static_cast<double>(page) /
                             static_cast<double>(cs);
            if (p > 1.0) continue;  // more way-capacity than cache: nonsensical
            double divergence = 0.0;
            for (const Sample& s : samples)
                divergence +=
                    std::abs(s.miss_rate - expected_miss_rate(options.model, s.pages, p, k));
            entries.push_back({divergence, cs});
        }
    }
    if (entries.empty())
        throw DetectError("detect.no_candidate", "no size candidate fits the window");

    // Mode of the `mode_votes` lowest-divergence candidates; stable sort +
    // earliest-tie mode prefer the best fit.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) { return a.divergence < b.divergence; });
    std::vector<std::uint64_t> votes;
    const std::size_t n_votes =
        std::min(entries.size(), static_cast<std::size_t>(std::max(options.mode_votes, 1)));
    for (std::size_t i = 0; i < n_votes; ++i) votes.push_back(entries[i].size);
    return stats::mode(votes);
}

Bytes probabilistic_cache_size(const McalibratorCurve& curve, std::size_t window_first,
                               std::size_t window_last, const CacheDetectOptions& options) {
    SERVET_CHECK(window_first < window_last && window_last < curve.points());
    return probabilistic_cache_size(curve, window_first, window_last,
                                    curve.cycles[window_first], curve.cycles[window_last],
                                    options);
}

std::vector<CacheLevelEstimate> detect_cache_levels(const McalibratorCurve& curve,
                                                    const CacheDetectOptions& options) {
    SERVET_CHECK(curve.points() >= 3);
    for (std::size_t i = 0; i < curve.points(); ++i)
        if (!(curve.cycles[i] > 0) || !std::isfinite(curve.cycles[i]))
            throw DetectError("detect.bad_sample",
                              "sample at " + std::to_string(curve.sizes[i]) + " bytes is " +
                                  format_exact(curve.cycles[i]) + " cycles per access");
    const std::vector<double> gradient = curve.gradient();

    // Maximal above-threshold runs (the peaks of Fig. 4) ...
    std::vector<Region> raw_regions;
    {
        std::size_t i = 0;
        while (i < gradient.size()) {
            if (gradient[i] <= options.gradient_threshold) {
                ++i;
                continue;
            }
            Region region{i, i};
            while (i < gradient.size() && gradient[i] > options.gradient_threshold)
                region.last = i++;
            raw_regions.push_back(region);
        }
    }

    // ... significant ones only, split where two levels' smears merged.
    // Significance is judged plateau-to-plateau: a genuine level transition
    // leaves the curve elevated, while an isolated measurement spike (one
    // inflated sample) returns to the old plateau and must not register.
    std::vector<Region> regions;
    for (const Region& region : raw_regions) {
        const double before =
            floor_level(curve, static_cast<std::ptrdiff_t>(region.first) - 2,
                        static_cast<std::ptrdiff_t>(region.first));
        const double after =
            floor_level(curve, static_cast<std::ptrdiff_t>(region.last) + 1,
                        static_cast<std::ptrdiff_t>(region.last) + 3);
        if (after / before < options.min_total_rise) continue;
        split_region(region, gradient, options, regions);
    }

    std::vector<CacheLevelEstimate> levels;
    for (std::size_t r = 0; r < regions.size(); ++r) {
        const Region& region = regions[r];
        CacheLevelEstimate estimate;
        estimate.window_first = region.first;
        estimate.window_last = region.last + 1;

        if (r == 0 || region.first == region.last) {
            // First region: the virtually indexed L1 (Fig. 4 always uses
            // the peak position for it); single-sample regions elsewhere
            // mean page coloring made the level behave virtually indexed.
            // Position rule: the rise happens between samples k and k+1,
            // so the largest size that still fits is at the apex index.
            std::size_t apex = region.first;
            for (std::size_t i = region.first; i <= region.last; ++i)
                if (gradient[i] > gradient[apex]) apex = i;
            estimate.size = curve.sizes[apex];
            estimate.method = "peak";
        } else {
            // Plateau-anchored hit/miss levels: medians of up to three
            // samples flanking the window — but only when the flank really
            // is a plateau. When this region was split off a neighbouring
            // level's smear, the boundary sample itself is the best anchor
            // available (the inter-level plateau barely exists there).
            const auto first = static_cast<std::ptrdiff_t>(region.first);
            const auto last = static_cast<std::ptrdiff_t>(region.last);
            const bool plateau_before =
                region.first == 0 ||
                gradient[region.first - 1] <= options.gradient_threshold;
            const double hit_time = plateau_before
                                        ? plateau_level(curve, first - 2, first)
                                        : curve.cycles[region.first];
            const bool plateau_after =
                region.last + 1 < gradient.size() &&
                gradient[region.last + 1] <= options.gradient_threshold;
            const double miss_time = plateau_after
                                         ? plateau_level(curve, last + 2, last + 4)
                                         : curve.cycles[region.last + 1];
            estimate.size =
                probabilistic_cache_size(curve, estimate.window_first, estimate.window_last,
                                         std::min(hit_time, curve.cycles[region.first]),
                                         std::max(miss_time, curve.cycles[region.last + 1]),
                                         options);
            estimate.method = "probabilistic";
        }
        SERVET_LOG_DEBUG("cache level %zu: %llu bytes (%s)", levels.size(),
                         static_cast<unsigned long long>(estimate.size),
                         estimate.method.c_str());
        levels.push_back(estimate);
    }
    return levels;
}

std::vector<CacheLevelEstimate> detect_cache_levels(Platform& platform,
                                                    const McalibratorOptions& mc_options,
                                                    CacheDetectOptions detect_options) {
    detect_options.page_size = platform.page_size();
    const McalibratorCurve curve = run_mcalibrator(platform, mc_options);
    return detect_cache_levels(curve, detect_options);
}

}  // namespace servet::core
