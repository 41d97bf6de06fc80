#include "core/tlb_detect.hpp"

#include <algorithm>
#include <vector>

#include "base/check.hpp"
#include "core/probe_common.hpp"
#include "stats/gradient.hpp"

namespace servet::core {

std::optional<TlbEstimate> detect_tlb(Platform& platform, const TlbDetectOptions& options) {
    SERVET_CHECK(options.min_pages >= 2 && options.max_pages > options.min_pages);
    SERVET_CHECK(options.repeats > 0 && options.passes > 0);
    SERVET_CHECK(options.l1_size >= 4 * options.l1_line);
    const Bytes page = platform.page_size();
    const Bytes stride = page + options.l1_line;

    // Stay cache-clean: at most half the L1's line capacity in probe pages.
    const int page_cap = static_cast<int>(options.l1_size / options.l1_line / 2);
    const int max_pages = std::min(options.max_pages, page_cap);
    if (max_pages < 2 * options.min_pages) return std::nullopt;  // no probe room

    std::vector<int> pages;
    std::vector<Cycles> cycles;
    for (int n = options.min_pages; n <= max_pages; n *= 2) {
        const Bytes array_bytes = static_cast<Bytes>(n) * stride;
        Cycles total = 0;
        for (int r = 0; r < options.repeats; ++r)
            total += checked_traverse(&platform, options.core, array_bytes, stride,
                                      options.passes, /*fresh_placement=*/true);
        pages.push_back(n);
        cycles.push_back(total / options.repeats);
    }

    const std::vector<double> gradient = stats::ratio_gradient(cycles);
    const std::vector<stats::Peak> peaks =
        stats::find_peaks(gradient, options.gradient_threshold);
    if (peaks.empty()) return std::nullopt;

    // The reach crossing is the first step; the TLB is virtually indexed,
    // so the apex position marks the last fitting page count exactly.
    const stats::Peak& peak = peaks.front();
    TlbEstimate estimate;
    estimate.entries = pages[peak.apex];
    estimate.reach_bytes = static_cast<Bytes>(estimate.entries) * page;
    // Beyond reach every probe access misses the TLB: the plateau shift is
    // the walk penalty itself.
    estimate.miss_cycles = cycles[peak.last + 1] - cycles[peak.first];
    if (estimate.miss_cycles <= 0) return std::nullopt;
    return estimate;
}

}  // namespace servet::core
