#include "core/cache_size.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "stats/binomial.hpp"

namespace servet::core {
namespace {

TEST(SizeCandidates, ContainPaperSizes) {
    const auto candidates = default_size_candidates(32 * MiB);
    for (const Bytes size : {256 * KiB, 512 * KiB, 2 * MiB, 3 * MiB, 9 * MiB, 12 * MiB}) {
        EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), size))
            << size;
    }
}

TEST(SizeCandidates, SortedUniqueWithinRange) {
    const auto candidates = default_size_candidates(8 * MiB);
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    EXPECT_EQ(std::adjacent_find(candidates.begin(), candidates.end()), candidates.end());
    EXPECT_LE(candidates.back(), 8 * MiB);
    EXPECT_GE(candidates.front(), 16 * KiB);
}

TEST(ExpectedMissRate, PaperTailMatchesBinomial) {
    EXPECT_DOUBLE_EQ(expected_miss_rate(MissRateModel::PaperTail, 512, 1.0 / 64, 8),
                     stats::binomial_tail_above(512, 1.0 / 64, 8));
}

TEST(ExpectedMissRate, SizeBiasedIdentity) {
    // E[X; X > K]/E[X] computed directly must equal the thinning identity
    // the implementation uses.
    const std::int64_t n = 200;
    const double p = 0.05;
    const int k = 12;
    double direct = 0;
    for (std::int64_t j = k + 1; j <= n; ++j)
        direct += static_cast<double>(j) * stats::binomial_pmf(n, p, j);
    direct /= static_cast<double>(n) * p;
    EXPECT_NEAR(expected_miss_rate(MissRateModel::SizeBiased, n, p, k), direct, 1e-10);
}

TEST(ExpectedMissRate, SizeBiasedDominatesPaperTail) {
    // Overflowing sets hold more lines than average, so the per-access
    // rate exceeds the per-set probability.
    for (const std::int64_t pages : {64, 256, 1024}) {
        const double p = 1.0 / 64;
        const double biased = expected_miss_rate(MissRateModel::SizeBiased, pages, p, 8);
        const double tail = expected_miss_rate(MissRateModel::PaperTail, pages, p, 8);
        EXPECT_GE(biased, tail);
    }
}

TEST(ExpectedMissRate, MonotoneInPages) {
    double previous = 0;
    for (std::int64_t pages = 64; pages <= 2048; pages *= 2) {
        const double mr = expected_miss_rate(MissRateModel::SizeBiased, pages, 1.0 / 64, 8);
        EXPECT_GE(mr, previous);
        previous = mr;
    }
    EXPECT_GT(previous, 0.95);  // saturates
}

// Analytic curve builder: generates mcalibrator output directly from the
// binomial model for a given hierarchy, so the estimator is tested against
// its own assumptions over a wide parameter sweep without simulation cost.
struct AnalyticLevel {
    Bytes size;
    int assoc;
    double hit;
};

McalibratorCurve analytic_curve(const std::vector<AnalyticLevel>& levels, double memory,
                                Bytes page, Bytes max_size) {
    McalibratorCurve curve;
    curve.sizes = mcalibrator_size_grid(4 * KiB, max_size);
    for (const Bytes s : curve.sizes) {
        // L1 (levels[0]) is virtually indexed: sharp.
        double cost;
        if (s <= levels[0].size) {
            cost = levels[0].hit;
        } else {
            cost = levels[1].hit;
            for (std::size_t l = 1; l < levels.size(); ++l) {
                const double next = l + 1 < levels.size() ? levels[l + 1].hit : memory;
                const double p = static_cast<double>(levels[l].assoc) *
                                 static_cast<double>(page) /
                                 static_cast<double>(levels[l].size);
                const double mr = expected_miss_rate(
                    MissRateModel::SizeBiased, static_cast<std::int64_t>(s / page), p,
                    levels[l].assoc);
                cost += mr * (next - cost);
            }
        }
        curve.cycles.push_back(cost);
    }
    return curve;
}

struct ProbCase {
    Bytes l2_size;
    int l2_assoc;
    Bytes page;
};

// Names each case by its fields; the default byte dump would include the
// uninitialised padding and vary between builds.
void PrintTo(const ProbCase& c, std::ostream* os) {
    *os << "L2 " << c.l2_size << " B " << c.l2_assoc << " ways " << c.page << " B pages";
}

class ProbabilisticSweep : public ::testing::TestWithParam<ProbCase> {};

TEST_P(ProbabilisticSweep, RecoversTrueSize) {
    const auto& param = GetParam();
    const McalibratorCurve curve =
        analytic_curve({{32 * KiB, 8, 3.0}, {param.l2_size, param.l2_assoc, 15.0}}, 250.0,
                       param.page, 8 * param.l2_size);
    CacheDetectOptions options;
    options.page_size = param.page;
    const auto levels = detect_cache_levels(curve, options);
    ASSERT_EQ(levels.size(), 2u) << "expected L1 + L2";
    EXPECT_EQ(levels[0].size, 32 * KiB);
    EXPECT_EQ(levels[1].size, param.l2_size)
        << "L2 " << param.l2_size << " assoc " << param.l2_assoc << " page " << param.page;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ProbabilisticSweep,
    ::testing::Values(ProbCase{512 * KiB, 8, 4 * KiB}, ProbCase{512 * KiB, 16, 4 * KiB},
                      ProbCase{1 * MiB, 8, 4 * KiB}, ProbCase{2 * MiB, 8, 4 * KiB},
                      ProbCase{2 * MiB, 16, 4 * KiB}, ProbCase{3 * MiB, 12, 4 * KiB},
                      ProbCase{4 * MiB, 16, 4 * KiB}, ProbCase{2 * MiB, 8, 16 * KiB},
                      ProbCase{1 * MiB, 4, 4 * KiB}, ProbCase{6 * MiB, 24, 4 * KiB}));

TEST(DetectLevels, SharpCurveUsesPositions) {
    // A page-coloring OS produces cliff transitions: every level must be
    // found positionally ("peak" method).
    McalibratorCurve curve;
    curve.sizes = mcalibrator_size_grid(4 * KiB, 8 * MiB);
    for (const Bytes s : curve.sizes) {
        double cost = s <= 32 * KiB ? 2.0 : (s <= 2 * MiB ? 16.0 : 220.0);
        curve.cycles.push_back(cost);
    }
    CacheDetectOptions options;
    const auto levels = detect_cache_levels(curve, options);
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_EQ(levels[0].size, 32 * KiB);
    EXPECT_EQ(levels[0].method, "peak");
    EXPECT_EQ(levels[1].size, 2 * MiB);
    EXPECT_EQ(levels[1].method, "peak");
}

TEST(DetectLevels, FlatCurveHasNoLevels) {
    McalibratorCurve curve;
    curve.sizes = mcalibrator_size_grid(4 * KiB, 1 * MiB);
    curve.cycles.assign(curve.sizes.size(), 3.0);
    EXPECT_TRUE(detect_cache_levels(curve, {}).empty());
}

TEST(DetectLevels, NoiseBumpsIgnored) {
    // A 10% wiggle is not a cache level (min_total_rise filter).
    McalibratorCurve curve;
    curve.sizes = mcalibrator_size_grid(4 * KiB, 1 * MiB);
    curve.cycles.assign(curve.sizes.size(), 3.0);
    curve.cycles[4] = 3.3;
    EXPECT_TRUE(detect_cache_levels(curve, {}).empty());
}

TEST(DetectLevels, MergedSmearsSplitIntoTwoLevels) {
    // Two overlapping transitions (the Dunnington L2/L3 shape) must yield
    // two levels even though the gradient never returns to 1 between them.
    const McalibratorCurve curve = analytic_curve(
        {{32 * KiB, 8, 3.0}, {3 * MiB, 12, 12.0}, {12 * MiB, 16, 48.0}}, 250.0, 4 * KiB,
        36 * MiB);
    CacheDetectOptions options;
    const auto levels = detect_cache_levels(curve, options);
    ASSERT_EQ(levels.size(), 3u);
    EXPECT_EQ(levels[0].size, 32 * KiB);
    EXPECT_EQ(levels[1].size, 3 * MiB);
    EXPECT_EQ(levels[2].size, 12 * MiB);
}

TEST(DetectLevels, PaperTailModelStillClose) {
    // The ablation claim: with the paper's P(X>K) formula the estimate
    // lands within one candidate step of the truth.
    const McalibratorCurve curve =
        analytic_curve({{32 * KiB, 8, 3.0}, {2 * MiB, 8, 15.0}}, 250.0, 4 * KiB, 16 * MiB);
    CacheDetectOptions options;
    options.model = MissRateModel::PaperTail;
    const auto levels = detect_cache_levels(curve, options);
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_GE(levels[1].size, 1 * MiB);
    EXPECT_LE(levels[1].size, 3 * MiB);
}

/// The stable code of the DetectError that `estimate` throws, or "" when
/// it returns.
template <typename Estimate>
std::string detect_error_code(Estimate estimate) {
    try {
        (void)estimate();
    } catch (const DetectError& e) {
        return e.code;
    }
    return "";
}

TEST(ProbabilisticErrors, RejectsFlatWindow) {
    McalibratorCurve curve;
    curve.sizes = {4 * KiB, 8 * KiB, 16 * KiB};
    curve.cycles = {2.0, 2.0, 2.0};
    EXPECT_EQ(detect_error_code(
                  [&] { return probabilistic_cache_size(curve, 0, 2, CacheDetectOptions{}); }),
              "detect.no_rise");
}

TEST(ProbabilisticErrors, RejectsWindowWithUnderTwoWholePages) {
    McalibratorCurve curve;
    curve.sizes = {1 * KiB, 2 * KiB, 4 * KiB};
    curve.cycles = {2.0, 4.0, 8.0};
    EXPECT_EQ(detect_error_code(
                  [&] { return probabilistic_cache_size(curve, 0, 2, CacheDetectOptions{}); }),
              "detect.window_narrow");
}

TEST(ProbabilisticErrors, RejectsWindowBelowEveryCandidateSize) {
    // Every candidate size is at least 16 KiB; a window ending at 8 KiB
    // has none to fit.
    McalibratorCurve curve;
    curve.sizes = {2 * KiB, 4 * KiB, 8 * KiB};
    curve.cycles = {2.0, 4.0, 8.0};
    EXPECT_EQ(detect_error_code(
                  [&] { return probabilistic_cache_size(curve, 0, 2, CacheDetectOptions{}); }),
              "detect.no_candidate");
}

TEST(ProbabilisticErrors, RejectsSampleThatIsNoPositiveCycleCount) {
    // A memo file or a native platform can hand detection such a sample;
    // it must fail the phase with a stable code, not abort the run.
    for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
        McalibratorCurve curve;
        curve.sizes = {4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB};
        curve.cycles = {2.0, bad, 2.0, 9.0};
        EXPECT_EQ(detect_error_code([&] { return detect_cache_levels(curve, {}); }),
                  "detect.bad_sample")
            << bad;
    }
}

}  // namespace
}  // namespace servet::core
