#include "sim/page_mapper.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "base/check.hpp"

namespace servet::sim {

PageMapper::PageMapper(PagePolicy policy, Bytes page_size, std::uint64_t physical_pages,
                       std::uint64_t colors, std::uint64_t seed)
    : policy_(policy),
      page_size_(page_size),
      physical_pages_(physical_pages),
      colors_(colors == 0 ? 1 : colors),
      seed_(seed) {
    SERVET_CHECK_MSG(std::has_single_bit(page_size), "page size must be a power of two");
    SERVET_CHECK_MSG(physical_pages >= 16, "physical memory too small");
    SERVET_CHECK_MSG(colors_ <= physical_pages_, "more colors than frames");
    page_shift_ = static_cast<std::uint64_t>(std::countr_zero(page_size));
}

std::uint64_t PageMapper::frame_of(std::uint64_t vpage) {
    if (const auto it = map_.find(vpage); it != map_.end()) return it->second;

    // The candidate sequence is a function of (seed, vpage) alone, so a
    // page's frame does not depend on the order pages were first touched.
    // This is what lets a statically placed buffer behave identically in a
    // solo reference run and in a concurrent pair run (whose interleaved
    // initialization touches pages in a different global order). Only on a
    // frame collision (rare: working sets are far smaller than physical
    // memory) does the resolution depend on which page claimed it first.
    Rng page_rng(seed_ ^ (vpage * 0x9e3779b97f4a7c15ULL));
    std::uint64_t frame = 0;
    if (policy_ == PagePolicy::Coloring) {
        // Pick a random frame of the right color. Frames of color c are
        // c, c + colors, c + 2*colors, ...
        const std::uint64_t color = vpage % colors_;
        const std::uint64_t per_color = physical_pages_ / colors_;
        for (;;) {
            frame = color + colors_ * page_rng.next_below(per_color);
            if (used_frames_.insert(frame).second) break;
        }
    } else {
        for (;;) {
            frame = page_rng.next_below(physical_pages_);
            if (used_frames_.insert(frame).second) break;
        }
    }
    map_.emplace(vpage, frame);
    return frame;
}

std::uint64_t PageMapper::translate(std::uint64_t vaddr) {
    ++translations_;
    const std::uint64_t vpage = vaddr >> page_shift_;
    const std::uint64_t offset = vaddr & (page_size_ - 1);
    return (frame_of(vpage) << page_shift_) | offset;
}

void PageMapper::digest(Fingerprint& fp) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pages(map_.begin(), map_.end());
    std::sort(pages.begin(), pages.end());
    fp.add(static_cast<std::uint64_t>(pages.size()));
    for (const auto& [vpage, frame] : pages) {
        fp.add(vpage);
        fp.add(frame);
    }
}

void PageMapper::reset() {
    map_.clear();
    used_frames_.clear();
    translations_ = 0;
}

}  // namespace servet::sim
