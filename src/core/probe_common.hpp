// Small helpers shared by the detection probes: the error a probe raises
// when its measured data is unusable, the pair schedule of the pairwise
// probes (shared-cache, memory-overhead), and the checked traversal sample.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/check.hpp"
#include "base/text.hpp"
#include "base/types.hpp"
#include "platform/platform.hpp"

namespace servet::core {

/// Measured data a detector cannot use: the data, not the caller, is at
/// fault, so the suite records it as a failed phase instead of aborting.
/// `code` is stable: `detect.bad_sample` (a cycle count, bandwidth or
/// latency that is not positive and finite), `detect.no_rise` (the
/// window's miss level is not above its hit level), `detect.window_narrow`
/// (fewer than two window samples span a page) or `detect.no_candidate`
/// (no candidate size and associativity fits the window). what() reads
/// "<code>: <detail>".
struct DetectError : std::runtime_error {
    DetectError(std::string error_code, const std::string& detail)
        : std::runtime_error(error_code + ": " + detail), code(std::move(error_code)) {}
    std::string code;
};

/// The probe's pair schedule: every canonical pair of distinct cores, or —
/// when `only_with_core` is a valid core id — just the pairs containing it
/// (the cheaper star schedule the paper uses on large node counts).
[[nodiscard]] inline std::vector<CorePair> probe_pairs(int n_cores, CoreId only_with_core) {
    if (only_with_core < 0) return all_core_pairs(n_cores);
    SERVET_CHECK(only_with_core < n_cores);
    std::vector<CorePair> pairs;
    pairs.reserve(static_cast<std::size_t>(n_cores > 0 ? n_cores - 1 : 0));
    for (CoreId j = 0; j < n_cores; ++j)
        if (j != only_with_core) pairs.push_back(CorePair{only_with_core, j}.canonical());
    return pairs;
}

/// One traversal sample with the probe-wide sanity check applied: a cycle
/// count that is not positive (NaN included) can only come from a broken
/// platform or a fault injected into one. It throws DetectError
/// `detect.bad_sample` rather than skew a ratio.
[[nodiscard]] inline Cycles checked_traverse(Platform* platform, CoreId core, Bytes array_bytes,
                                             Bytes stride, int passes, bool fresh_placement) {
    const Cycles cycles =
        platform->traverse_cycles(core, array_bytes, stride, passes, fresh_placement);
    if (!(cycles > 0))
        throw DetectError("detect.bad_sample", "traversal of " + std::to_string(array_bytes) +
                                                   " bytes gave " + format_exact(cycles) +
                                                   " cycles per access");
    return cycles;
}

}  // namespace servet::core
