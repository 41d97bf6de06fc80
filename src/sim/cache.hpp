// Set-associative LRU cache model. One instance models one physical cache
// (an L1, or one shared L2 serving a pair of cores, ...). The simulator
// builds one instance per cache in the machine and pushes the benchmark's
// access trace through them, so capacity misses, conflict misses from
// physical indexing, and inter-core thrashing in shared caches all emerge
// from the same mechanism that produces them on hardware.
//
// Replacement is age-stamp LRU: every way carries a monotonically
// increasing stamp rather than living in a recency-ordered list, so a hit
// is one store instead of a reorder. The batched engine (sim/engine.hpp)
// leans on that: access() and prefetch_fill() are defined inline here so
// the line-stream inner loop compiles down to a tag scan and a stamp
// write with no call overhead. State is stored structure-of-arrays (tags,
// stamps, and prefetch bits in separate set-major vectors) so the tag
// scan of an 8-way set reads one cache line of the host machine, not
// three.
#pragma once

#include <cstdint>
#include <vector>

#include "base/check.hpp"
#include "base/hash.hpp"
#include "base/types.hpp"

namespace servet::sim {

/// Static shape of a cache. Set counts need not be powers of two (real
/// LLCs like the 16-way 12MB Dunnington L3 have 3*2^k sets); indexing is
/// line % sets.
struct CacheGeometry {
    Bytes size = 0;
    Bytes line_size = 64;
    int associativity = 8;
    bool physically_indexed = false;

    [[nodiscard]] std::uint64_t set_count() const {
        const Bytes way_capacity = line_size * static_cast<Bytes>(associativity);
        SERVET_CHECK_MSG(way_capacity > 0 && size / way_capacity >= 1,
                         "degenerate cache geometry: zero sets");
        return size / way_capacity;
    }

    /// Page sets of Section III-A2: groups of sets that can receive data
    /// from one page. CS / (K * PS). Zero is a legal answer (a cache whose
    /// way capacity is below one page has no whole page set); only a zero
    /// divisor is degenerate.
    [[nodiscard]] std::uint64_t page_set_count(Bytes page_size) const {
        const Bytes way_pages = static_cast<Bytes>(associativity) * page_size;
        SERVET_CHECK_MSG(way_pages > 0, "degenerate cache geometry: zero-byte ways");
        return size / way_pages;
    }

    /// Line size a power of two, size an exact multiple of way capacity,
    /// and at least one set. Never aborts: degenerate geometries (the ones
    /// set_count() refuses) report false here.
    [[nodiscard]] bool valid() const;
};

/// Event counts of one cache since its last reset_counters().
struct CacheCounts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;        ///< valid lines displaced by any fill
    std::uint64_t prefetch_fills = 0;   ///< lines installed by prefetch_fill
    std::uint64_t prefetch_useful = 0;  ///< first demand hits on such lines
};

/// A cache's counts and LRU clock at one moment (SetAssocCache::mark()).
struct CacheMark {
    CacheCounts counts;
    std::uint64_t clock = 0;
};

/// LRU set-associative cache over line addresses.
class SetAssocCache {
  public:
    explicit SetAssocCache(const CacheGeometry& geometry);

    /// Look up the line containing `addr` (a byte address in whichever
    /// address space this cache is indexed by); on miss, fill it, evicting
    /// the LRU way. Returns true on hit.
    bool access(std::uint64_t addr) {
        const std::uint64_t line = addr >> line_shift_;
        const std::uint64_t tag = tag_of(line);
        const std::uint64_t base = set_index(line) * static_cast<std::uint64_t>(assoc_);
        ++clock_;
        const int hit_w = scan(base, tag);
        if (hit_w >= 0) {
            const std::uint64_t i = base + static_cast<std::uint64_t>(hit_w);
            stamps_[i] = clock_;
            ++counts_.hits;
            if (prefetched_[i] != 0) {
                ++counts_.prefetch_useful;
                prefetched_[i] = 0;
            }
            return true;
        }
        ++counts_.misses;
        const std::uint64_t v = victim_in(base);
        if (tags_[v] != kInvalidTag) ++counts_.evictions;
        tags_[v] = tag;
        stamps_[v] = clock_;
        prefetched_[v] = 0;
        return false;
    }

    /// Fill without counting a demand access (prefetch path). Touches LRU
    /// state like a normal fill. Returns true if the line was resident.
    bool prefetch_fill(std::uint64_t addr) {
        const std::uint64_t line = addr >> line_shift_;
        const std::uint64_t tag = tag_of(line);
        const std::uint64_t base = set_index(line) * static_cast<std::uint64_t>(assoc_);
        ++clock_;
        const int hit_w = scan(base, tag);
        if (hit_w >= 0) {
            stamps_[base + static_cast<std::uint64_t>(hit_w)] = clock_;
            return true;
        }
        const std::uint64_t v = victim_in(base);
        if (tags_[v] != kInvalidTag) ++counts_.evictions;
        tags_[v] = tag;
        stamps_[v] = clock_;
        prefetched_[v] = 1;
        ++counts_.prefetch_fills;
        return false;
    }

    /// Set index of the line holding `addr`.
    [[nodiscard]] std::uint64_t set_of(std::uint64_t addr) const {
        return set_index(addr >> line_shift_);
    }

    /// Writes way `way` of `addr`'s set directly: the line becomes resident
    /// with LRU stamp `stamp` and the given prefetch bit, with no lookup and
    /// no counting. The closed-form init sweep (sim/engine.cpp) builds an
    /// empty cache's end state this way, then calls settle().
    void place(std::uint64_t addr, int way, std::uint64_t stamp, bool prefetched) {
        const std::uint64_t line = addr >> line_shift_;
        const std::uint64_t i = set_index(line) * static_cast<std::uint64_t>(assoc_) +
                                static_cast<std::uint64_t>(way);
        tags_[i] = tag_of(line);
        stamps_[i] = stamp;
        prefetched_[i] = prefetched ? 1 : 0;
    }
    /// Adds the counts of events applied in closed form and sets the LRU
    /// clock to the number of lookups and fills those events made.
    void settle(const CacheCounts& counts, std::uint64_t clock);

    [[nodiscard]] CacheMark mark() const { return {counts_, clock_}; }
    /// Books the events since `since` `times` more times: adds that many
    /// copies of the counts and clock ticks gained since, and leaves the
    /// lines alone. Exact when those events leave the lines as they found
    /// them, as a collapsed pass does (sim/engine.cpp).
    void repeat_since(const CacheMark& since, std::uint64_t times);

    /// True iff the line is currently resident (no LRU update, no fill).
    [[nodiscard]] bool contains(std::uint64_t addr) const;

    void invalidate_all();

    /// Feeds the resident lines to `fp` with the LRU clock normalised away:
    /// per set, the tags and prefetch bits in LRU rank order. Two caches
    /// that would behave identically from here on digest the same, whatever
    /// their absolute stamps or way layout.
    void digest(Fingerprint& fp) const;

    [[nodiscard]] const CacheGeometry& geometry() const { return geometry_; }
    [[nodiscard]] std::uint64_t hit_count() const { return counts_.hits; }
    [[nodiscard]] std::uint64_t miss_count() const { return counts_.misses; }
    /// Valid lines displaced by demand or prefetch fills.
    [[nodiscard]] std::uint64_t eviction_count() const { return counts_.evictions; }
    /// Lines installed by prefetch_fill (cold installs, not LRU touches).
    [[nodiscard]] std::uint64_t prefetch_fill_count() const { return counts_.prefetch_fills; }
    /// Demand hits on lines a prefetch installed that no demand access had
    /// touched yet — the prefetcher's useful work.
    [[nodiscard]] std::uint64_t prefetch_useful_count() const {
        return counts_.prefetch_useful;
    }
    void reset_counters() { counts_ = {}; }

  private:
    static constexpr std::uint64_t kInvalidTag = ~0ULL;

    // Most real geometries have power-of-two set counts; that case gets a
    // shift/mask instead of div/mod, which matters because the traversal
    // engines do several set/tag computations per simulated access.
    [[nodiscard]] std::uint64_t set_index(std::uint64_t line) const {
        return sets_pow2_ ? (line & set_mask_) : (line % sets_);
    }
    [[nodiscard]] std::uint64_t tag_of(std::uint64_t line) const {
        return sets_pow2_ ? (line >> set_shift_) : (line / sets_);
    }
    /// Way index holding `tag` in the set starting at flat index `base`,
    /// or -1. A line lives in at most one way (fills only install absent
    /// lines), so the scan has no early exit: a branch-free full pass over
    /// the set's tags compiles to straight-line compare+cmov when the trip
    /// count is a compile-time constant, which the dispatch below arranges
    /// for the associativities real cache levels use. Large fully
    /// associative shapes (TLBs) take the generic loop; their scans are
    /// memory-bound either way.
    template <int kAssoc>
    [[nodiscard]] static int scan_fixed(const std::uint64_t* tags, std::uint64_t tag) {
        int hit_w = -1;
        for (int w = 0; w < kAssoc; ++w) hit_w = tags[w] == tag ? w : hit_w;
        return hit_w;
    }
    [[nodiscard]] int scan(std::uint64_t base, std::uint64_t tag) const {
        const std::uint64_t* tags = tags_.data() + base;
        switch (assoc_) {
            case 4: return scan_fixed<4>(tags, tag);
            case 8: return scan_fixed<8>(tags, tag);
            case 12: return scan_fixed<12>(tags, tag);
            case 16: return scan_fixed<16>(tags, tag);
            default: break;
        }
        int hit_w = -1;
        for (int w = 0; w < assoc_; ++w) hit_w = tags[w] == tag ? w : hit_w;
        return hit_w;
    }

    /// Index of the way to replace in the set starting at `base`: the
    /// first free way past way 0 if any, else the smallest stamp (way 0
    /// included, ties keep the lowest index — and a free way 0 wins the
    /// stamp comparison because free ways carry stamp 0).
    std::uint64_t victim_in(std::uint64_t base) const {
        std::uint64_t lru = base;
        for (int w = 1; w < assoc_; ++w) {
            const std::uint64_t i = base + static_cast<std::uint64_t>(w);
            if (tags_[i] == kInvalidTag) return i;  // free way first
            if (stamps_[i] < stamps_[lru]) lru = i;
        }
        return lru;
    }

    CacheGeometry geometry_;
    std::uint64_t line_shift_;
    std::uint64_t sets_;
    int assoc_;
    bool sets_pow2_;
    std::uint64_t set_shift_ = 0;  // valid when sets_pow2_
    std::uint64_t set_mask_ = 0;   // valid when sets_pow2_
    // Set-major structure-of-arrays: entry set * assoc + way of each
    // vector describes one way. tags_ holds kInvalidTag for free ways,
    // stamps_ the LRU age stamp (larger = more recent, 0 = never used),
    // prefetched_ a 0/1 "installed by prefetch, no demand hit yet" flag.
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint8_t> prefetched_;
    std::uint64_t clock_ = 0;
    CacheCounts counts_;
};

}  // namespace servet::sim
