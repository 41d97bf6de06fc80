#include "sim/cache.hpp"

#include <gtest/gtest.h>

namespace servet::sim {
namespace {

CacheGeometry small_cache() {
    // 4KB, 2-way, 64B lines -> 32 sets.
    return {.size = 4 * KiB, .line_size = 64, .associativity = 2,
            .physically_indexed = false};
}

TEST(CacheGeometry, SetCounts) {
    EXPECT_EQ(small_cache().set_count(), 32u);
    const CacheGeometry l3{.size = 12 * MiB, .line_size = 64, .associativity = 16};
    EXPECT_EQ(l3.set_count(), 12288u);  // non-power-of-two is legal
    EXPECT_TRUE(l3.valid());
}

TEST(CacheGeometry, PageSetCount) {
    // Section III-A2: CS / (K * PS).
    const CacheGeometry l2{.size = 2 * MiB, .line_size = 64, .associativity = 8};
    EXPECT_EQ(l2.page_set_count(4 * KiB), 64u);
    const CacheGeometry l3{.size = 9 * MiB, .line_size = 128, .associativity = 12};
    EXPECT_EQ(l3.page_set_count(16 * KiB), 48u);
}

struct GeometryCase {
    CacheGeometry geometry;
    bool valid;
};

// Names each case by its fields; the default byte dump would include the
// uninitialised padding and vary between builds.
void PrintTo(const GeometryCase& c, std::ostream* os) {
    const CacheGeometry& g = c.geometry;
    *os << g.size << " B " << g.line_size << " B lines " << g.associativity << " ways "
        << (g.physically_indexed ? "physical" : "virtual") << (c.valid ? " valid" : " invalid");
}

class GeometryValidity : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(GeometryValidity, Checks) {
    EXPECT_EQ(GetParam().geometry.valid(), GetParam().valid);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GeometryValidity,
    ::testing::Values(
        GeometryCase{{32 * KiB, 64, 8, false}, true},
        GeometryCase{{0, 64, 8, false}, false},          // no size
        GeometryCase{{32 * KiB, 0, 8, false}, false},    // no line
        GeometryCase{{32 * KiB, 96, 8, false}, false},   // non-pow2 line
        GeometryCase{{32 * KiB, 64, 0, false}, false},   // no ways
        GeometryCase{{100000, 64, 8, false}, false},     // not multiple of way bytes
        GeometryCase{{3 * MiB, 64, 12, true}, true},     // Dunnington L2
        GeometryCase{{64, 64, 1, false}, true}));        // minimal single set

TEST(CacheGeometry, DegenerateGeometriesReportInvalidWithoutAborting) {
    // valid() must be safe to call on any shape — it is the guard callers
    // use before the CHECK-protected accessors.
    const CacheGeometry zero_sets{.size = 256, .line_size = 64, .associativity = 8};
    EXPECT_FALSE(zero_sets.valid());  // way capacity 512 > size
    const CacheGeometry no_ways{.size = 4 * KiB, .line_size = 64, .associativity = 0};
    EXPECT_FALSE(no_ways.valid());
}

TEST(CacheGeometryDeath, SetCountChecksDegenerateShapes) {
    // A geometry whose way capacity exceeds its size has zero sets; using
    // it for indexing would divide by zero downstream, so set_count()
    // refuses outright rather than returning 0.
    const CacheGeometry zero_sets{.size = 256, .line_size = 64, .associativity = 8};
    EXPECT_DEATH((void)zero_sets.set_count(), "degenerate cache geometry");
    const CacheGeometry no_ways{.size = 4 * KiB, .line_size = 64, .associativity = 0};
    EXPECT_DEATH((void)no_ways.set_count(), "degenerate cache geometry");
    EXPECT_DEATH((void)no_ways.page_set_count(4 * KiB), "degenerate cache geometry");
}

TEST(SetAssocCache, MissesThenHits) {
    SetAssocCache cache(small_cache());
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1004));  // same line
    EXPECT_EQ(cache.hit_count(), 2u);
    EXPECT_EQ(cache.miss_count(), 1u);
}

TEST(SetAssocCache, WorkingSetWithinCapacityAllHits) {
    SetAssocCache cache(small_cache());
    // Touch every line of exactly the cache size.
    for (std::uint64_t a = 0; a < 4 * KiB; a += 64) (void)cache.access(a);
    cache.reset_counters();
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint64_t a = 0; a < 4 * KiB; a += 64) (void)cache.access(a);
    EXPECT_EQ(cache.miss_count(), 0u);
}

TEST(SetAssocCache, CyclicOverflowThrashesUnderLru) {
    // 3 lines mapping to one 2-way set, accessed cyclically: LRU evicts
    // the line about to be used -> 100% misses. This is the mechanism
    // behind both the exact stride-divides-size property and the
    // shared-cache ratio.
    SetAssocCache cache(small_cache());
    const std::uint64_t set_stride = 32 * 64;  // same set, different tags
    for (int pass = 0; pass < 4; ++pass)
        for (int j = 0; j < 3; ++j) (void)cache.access(static_cast<std::uint64_t>(j) * set_stride);
    cache.reset_counters();
    for (int j = 0; j < 3; ++j) (void)cache.access(static_cast<std::uint64_t>(j) * set_stride);
    EXPECT_EQ(cache.miss_count(), 3u);
}

TEST(SetAssocCache, LruEvictsLeastRecent) {
    SetAssocCache cache(small_cache());
    const std::uint64_t set_stride = 32 * 64;
    (void)cache.access(0 * set_stride);  // A
    (void)cache.access(1 * set_stride);  // B
    (void)cache.access(0 * set_stride);  // A again (B is now LRU)
    (void)cache.access(2 * set_stride);  // C evicts B
    EXPECT_TRUE(cache.contains(0 * set_stride));
    EXPECT_FALSE(cache.contains(1 * set_stride));
    EXPECT_TRUE(cache.contains(2 * set_stride));
}

TEST(SetAssocCache, PrefetchFillInsertsWithoutCounting) {
    SetAssocCache cache(small_cache());
    cache.prefetch_fill(0x2000);
    EXPECT_EQ(cache.hit_count() + cache.miss_count(), 0u);
    EXPECT_TRUE(cache.contains(0x2000));
    EXPECT_TRUE(cache.access(0x2000));
}

TEST(SetAssocCache, ContainsDoesNotDisturbLru) {
    SetAssocCache cache(small_cache());
    const std::uint64_t set_stride = 32 * 64;
    (void)cache.access(0 * set_stride);  // A (LRU after B)
    (void)cache.access(1 * set_stride);  // B
    EXPECT_TRUE(cache.contains(0 * set_stride));  // must not refresh A
    (void)cache.access(2 * set_stride);           // evicts A, not B
    EXPECT_FALSE(cache.contains(0 * set_stride));
    EXPECT_TRUE(cache.contains(1 * set_stride));
}

TEST(SetAssocCache, InvalidateAllEmpties) {
    SetAssocCache cache(small_cache());
    (void)cache.access(0x40);
    cache.invalidate_all();
    EXPECT_FALSE(cache.contains(0x40));
    EXPECT_FALSE(cache.access(0x40));
}

TEST(SetAssocCache, DistinctSetsDoNotInterfere) {
    SetAssocCache cache(small_cache());
    // Fill set 0 beyond capacity; set 1 lines must stay resident.
    (void)cache.access(64);  // set 1
    const std::uint64_t set_stride = 32 * 64;
    for (int j = 0; j < 8; ++j) (void)cache.access(static_cast<std::uint64_t>(j) * set_stride);
    EXPECT_TRUE(cache.contains(64));
}

TEST(SetAssocCache, NonPowerOfTwoSetsIndexCorrectly) {
    // 3 sets of 1 way, 64B lines: 192 bytes.
    SetAssocCache cache({.size = 192, .line_size = 64, .associativity = 1});
    EXPECT_EQ(cache.geometry().set_count(), 3u);
    (void)cache.access(0 * 64);   // set 0
    (void)cache.access(1 * 64);   // set 1
    (void)cache.access(2 * 64);   // set 2
    EXPECT_TRUE(cache.contains(0));
    (void)cache.access(3 * 64);   // set 0 again (3 mod 3), evicts line 0
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.contains(64));
}

TEST(SetAssocCache, StrideDividesSizeProperty) {
    // The paper's stride rationale: with a 1KB stride that divides the
    // cache size, a strided working set of exactly the cache size fits
    // (per-set load == associativity) and one of twice the size thrashes.
    const CacheGeometry geometry{.size = 32 * KiB, .line_size = 64, .associativity = 8};
    SetAssocCache cache(geometry);
    const std::uint64_t stride = 1 * KiB;

    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 32 * KiB; a += stride) (void)cache.access(a);
    cache.reset_counters();
    for (std::uint64_t a = 0; a < 32 * KiB; a += stride) (void)cache.access(a);
    EXPECT_EQ(cache.miss_count(), 0u) << "32KB strided set must fit a 32KB cache";

    cache.invalidate_all();
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 64 * KiB; a += stride) (void)cache.access(a);
    cache.reset_counters();
    for (std::uint64_t a = 0; a < 64 * KiB; a += stride) (void)cache.access(a);
    EXPECT_EQ(cache.hit_count(), 0u) << "64KB strided set must thrash a 32KB cache";
}

}  // namespace
}  // namespace servet::sim
