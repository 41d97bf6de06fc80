#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "base/check.hpp"

namespace servet::sim {

bool CacheGeometry::valid() const {
    if (size == 0 || line_size == 0 || associativity <= 0) return false;
    if (!std::has_single_bit(line_size)) return false;
    const Bytes way_bytes = line_size * static_cast<Bytes>(associativity);
    // `size % way_bytes == 0 && size > 0` implies at least one set, so the
    // set_count() call below never trips its degenerate-geometry check.
    return size % way_bytes == 0 && set_count() >= 1;
}

SetAssocCache::SetAssocCache(const CacheGeometry& geometry) : geometry_(geometry) {
    SERVET_CHECK_MSG(geometry.valid(), "invalid cache geometry");
    line_shift_ = static_cast<std::uint64_t>(std::countr_zero(geometry.line_size));
    sets_ = geometry.set_count();
    assoc_ = geometry.associativity;
    sets_pow2_ = std::has_single_bit(sets_);
    if (sets_pow2_) {
        set_shift_ = static_cast<std::uint64_t>(std::countr_zero(sets_));
        set_mask_ = sets_ - 1;
    }
    const std::uint64_t n_ways = sets_ * static_cast<std::uint64_t>(geometry.associativity);
    tags_.assign(n_ways, kInvalidTag);
    stamps_.assign(n_ways, 0);
    prefetched_.assign(n_ways, 0);
}

bool SetAssocCache::contains(std::uint64_t addr) const {
    const std::uint64_t line = addr >> line_shift_;
    const std::uint64_t base = set_index(line) * static_cast<std::uint64_t>(assoc_);
    const std::uint64_t tag = tag_of(line);
    for (int w = 0; w < assoc_; ++w) {
        if (tags_[base + static_cast<std::uint64_t>(w)] == tag) return true;
    }
    return false;
}

void SetAssocCache::settle(const CacheCounts& counts, std::uint64_t clock) {
    counts_.hits += counts.hits;
    counts_.misses += counts.misses;
    counts_.evictions += counts.evictions;
    counts_.prefetch_fills += counts.prefetch_fills;
    counts_.prefetch_useful += counts.prefetch_useful;
    clock_ = clock;
}

void SetAssocCache::repeat_since(const CacheMark& since, std::uint64_t times) {
    counts_.hits += times * (counts_.hits - since.counts.hits);
    counts_.misses += times * (counts_.misses - since.counts.misses);
    counts_.evictions += times * (counts_.evictions - since.counts.evictions);
    counts_.prefetch_fills += times * (counts_.prefetch_fills - since.counts.prefetch_fills);
    counts_.prefetch_useful += times * (counts_.prefetch_useful - since.counts.prefetch_useful);
    clock_ += times * (clock_ - since.clock);
}

void SetAssocCache::digest(Fingerprint& fp) const {
    std::vector<std::uint64_t> ways;  // way indices of one set, LRU first
    for (std::uint64_t set = 0; set < sets_; ++set) {
        const std::uint64_t base = set * static_cast<std::uint64_t>(assoc_);
        ways.clear();
        for (int w = 0; w < assoc_; ++w) {
            const std::uint64_t i = base + static_cast<std::uint64_t>(w);
            if (tags_[i] != kInvalidTag) ways.push_back(i);
        }
        std::sort(ways.begin(), ways.end(),
                  [&](std::uint64_t a, std::uint64_t b) { return stamps_[a] < stamps_[b]; });
        fp.add(static_cast<std::uint64_t>(ways.size()));
        for (const std::uint64_t i : ways) {
            fp.add(tags_[i]);
            fp.add(prefetched_[i] != 0);
        }
    }
}

void SetAssocCache::invalidate_all() {
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    std::fill(prefetched_.begin(), prefetched_.end(), 0);
    clock_ = 0;
}

}  // namespace servet::sim
