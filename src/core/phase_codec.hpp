// Exact-round-trip serialization of suite phase payloads, the currency of
// the run journal (core/journal.hpp). Each encoder turns one phase's
// complete result into a line-oriented text block and each decoder
// reconstructs a struct equal to the original — doubles travel as C
// hexfloats (base/text.hpp), which round-trip bit-exactly, so a resumed
// run that replays a journaled phase produces a profile byte-identical to
// the run that measured it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/cache_size.hpp"
#include "core/comm_costs.hpp"
#include "core/mcalibrator.hpp"
#include "core/mem_overhead.hpp"
#include "core/shared_cache.hpp"

namespace servet::core {

/// Payload of the cache_size phase: the mcalibrator curve plus the levels
/// detected from it (downstream phases are sized by these).
struct CacheSizePayload {
    McalibratorCurve curve;
    std::vector<CacheLevelEstimate> levels;

    friend bool operator==(const CacheSizePayload&, const CacheSizePayload&) = default;
};

[[nodiscard]] std::string encode_cache_size(const CacheSizePayload& payload);
[[nodiscard]] std::optional<CacheSizePayload> decode_cache_size(const std::string& text);

[[nodiscard]] std::string encode_shared_caches(
    const std::vector<SharedCacheLevelResult>& levels);
[[nodiscard]] std::optional<std::vector<SharedCacheLevelResult>> decode_shared_caches(
    const std::string& text);

[[nodiscard]] std::string encode_mem_overhead(const MemOverheadResult& result);
[[nodiscard]] std::optional<MemOverheadResult> decode_mem_overhead(const std::string& text);

[[nodiscard]] std::string encode_comm_costs(const CommCostsResult& result);
[[nodiscard]] std::optional<CommCostsResult> decode_comm_costs(const std::string& text);

}  // namespace servet::core
