// Virtual→physical page mapping. This is the mechanism behind the paper's
// central measurement problem (Section III-A2): L2/L3 caches are physically
// indexed, and an OS without page coloring backs contiguous virtual pages
// with arbitrary physical frames, smearing the miss-rate transition of a
// cache-size sweep across a wide range of array sizes. The simulator
// reproduces that honestly: frames are drawn uniformly at random (no two
// virtual pages share a frame), or — when modelling a page-coloring OS —
// chosen so the frame's cache color matches the virtual page's.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "base/hash.hpp"
#include "base/rng.hpp"
#include "base/types.hpp"

namespace servet::sim {

enum class PagePolicy {
    Random,    ///< uniform random frames (Linux-like, no coloring)
    Coloring,  ///< frame color == virtual color (the OSs of Section III-A2)
};

class PageMapper {
  public:
    /// `physical_pages` bounds the frame pool; keep it much larger than any
    /// working set so random placement stays near-uniform. `colors` is the
    /// number of page colors honoured by a Coloring policy (page sets of the
    /// largest physically indexed cache).
    PageMapper(PagePolicy policy, Bytes page_size, std::uint64_t physical_pages,
               std::uint64_t colors, std::uint64_t seed);

    /// Translate a virtual byte address to a physical byte address. Frames
    /// are assigned lazily on first touch and remain stable thereafter.
    [[nodiscard]] std::uint64_t translate(std::uint64_t vaddr);

    /// Physical frame backing a virtual page number. Deterministic in
    /// (seed, vpage) — independent of the order pages are touched, except
    /// on rare frame collisions.
    [[nodiscard]] std::uint64_t frame_of(std::uint64_t vpage);

    /// Forget all mappings (a fresh process image).
    void reset();

    /// Feeds every (virtual page, frame) mapping to `fp`, in page order.
    void digest(Fingerprint& fp) const;

    [[nodiscard]] Bytes page_size() const { return page_size_; }
    [[nodiscard]] std::uint64_t page_shift() const { return page_shift_; }
    [[nodiscard]] PagePolicy policy() const { return policy_; }
    [[nodiscard]] std::size_t mapped_pages() const { return map_.size(); }
    /// translate() calls since construction/reset. mapped_pages() is the
    /// fault count (lazy first-touch assignments) of the same window.
    [[nodiscard]] std::uint64_t translation_count() const { return translations_; }

  private:
    PagePolicy policy_;
    Bytes page_size_;
    std::uint64_t page_shift_;
    std::uint64_t physical_pages_;
    std::uint64_t colors_;
    std::uint64_t seed_;
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
    std::unordered_set<std::uint64_t> used_frames_;
    std::uint64_t translations_ = 0;
};

}  // namespace servet::sim
