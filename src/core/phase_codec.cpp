#include "core/phase_codec.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "base/text.hpp"

namespace servet::core {

namespace {

using Fields = std::vector<std::string_view>;

/// Cores as "0,1,2"; the empty list as "-" (a field must not vanish from
/// a space-separated record).
std::string fmt_cores(const std::vector<CoreId>& cores) {
    if (cores.empty()) return "-";
    return join(cores, ',', [](CoreId core) { return std::to_string(core); });
}

/// Doubles as "a,b,c" hexfloats; empty as "-".
std::string fmt_doubles(const std::vector<double>& values) {
    if (values.empty()) return "-";
    return join(values, ',', format_hexfloat);
}

/// Inverse of fmt_cores/fmt_doubles: "-" is the empty list, anything else
/// a non-empty list whose every item `read` accepts.
template <typename Read>
auto parse_dashed_list(std::string_view text, Read read) {
    const bool dash = text == "-";
    auto values = parse_list(dash ? std::string_view{} : text, ',', read);
    if (values && values->empty() != dash) values.reset();
    return values;
}

std::optional<std::vector<CoreId>> parse_cores(std::string_view text) {
    return parse_dashed_list(text, [](std::string_view v) { return parse_int<CoreId>(v); });
}

std::optional<std::vector<double>> parse_doubles(std::string_view text) {
    return parse_dashed_list(text, parse_double);
}

std::optional<CorePair> parse_pair(std::string_view a, std::string_view b) {
    const auto first = parse_int<CoreId>(a);
    const auto second = parse_int<CoreId>(b);
    if (!first || !second) return std::nullopt;
    return CorePair{*first, *second};
}

/// Line-dispatch loop shared by every decoder: feeds each non-empty line's
/// space-separated fields, tag first, to `handle`, which returns false to
/// reject the payload. An empty field (doubled or stray space) rejects it
/// too.
template <typename Handler>
bool for_each_record(const std::string& text, Handler&& handle) {
    for (const std::string_view line : split(text, '\n')) {
        if (line.empty()) continue;
        const Fields fields = split(line, ' ');
        if (std::ranges::any_of(fields, &std::string_view::empty) || !handle(fields))
            return false;
    }
    return true;
}

}  // namespace

std::string encode_cache_size(const CacheSizePayload& payload) {
    SERVET_CHECK(payload.curve.sizes.size() == payload.curve.cycles.size());
    std::string out;
    for (std::size_t i = 0; i < payload.curve.sizes.size(); ++i)
        out += "point " + std::to_string(payload.curve.sizes[i]) + ' ' +
               format_hexfloat(payload.curve.cycles[i]) + '\n';
    for (const CacheLevelEstimate& level : payload.levels) {
        SERVET_CHECK_MSG(!level.method.empty() &&
                             level.method.find_first_of(" \t\n\r") == std::string::npos,
                         "cache level method must be a single token");
        out += "level " + std::to_string(level.size) + ' ' + level.method + ' ' +
               std::to_string(level.window_first) + ' ' + std::to_string(level.window_last) +
               '\n';
    }
    return out;
}

std::optional<CacheSizePayload> decode_cache_size(const std::string& text) {
    CacheSizePayload payload;
    const bool ok = for_each_record(text, [&](const Fields& f) {
        if (f[0] == "point" && f.size() == 3) {
            const auto size = parse_int<Bytes>(f[1]);
            const auto cycles = parse_double(f[2]);
            if (!size || !cycles) return false;
            payload.curve.sizes.push_back(*size);
            payload.curve.cycles.push_back(*cycles);
            return true;
        }
        if (f[0] == "level" && f.size() == 5) {
            const auto size = parse_int<Bytes>(f[1]);
            const auto first = parse_int<std::size_t>(f[3]);
            const auto last = parse_int<std::size_t>(f[4]);
            if (!size || !first || !last) return false;
            payload.levels.push_back({*size, std::string(f[2]), *first, *last});
            return true;
        }
        return false;
    });
    if (!ok) return std::nullopt;
    return payload;
}

std::string encode_shared_caches(const std::vector<SharedCacheLevelResult>& levels) {
    std::string out;
    for (const SharedCacheLevelResult& level : levels) {
        out += "level " + std::to_string(level.cache_size) + ' ' +
               std::to_string(level.array_bytes) + ' ' +
               format_hexfloat(level.reference_cycles) + '\n';
        for (const SharedCachePairResult& pair : level.pairs)
            out += "pair " + std::to_string(pair.pair.a) + ' ' + std::to_string(pair.pair.b) +
                   ' ' + format_hexfloat(pair.ratio) + '\n';
        for (const CorePair& pair : level.sharing_pairs)
            out += "sharing " + std::to_string(pair.a) + ' ' + std::to_string(pair.b) + '\n';
        for (const std::vector<CoreId>& group : level.groups)
            out += "group " + fmt_cores(group) + '\n';
    }
    return out;
}

std::optional<std::vector<SharedCacheLevelResult>> decode_shared_caches(
    const std::string& text) {
    std::vector<SharedCacheLevelResult> levels;
    const bool ok = for_each_record(text, [&](const Fields& f) {
        if (f[0] == "level" && f.size() == 4) {
            const auto cache_size = parse_int<Bytes>(f[1]);
            const auto array_bytes = parse_int<Bytes>(f[2]);
            const auto reference = parse_double(f[3]);
            if (!cache_size || !array_bytes || !reference) return false;
            SharedCacheLevelResult level;
            level.cache_size = *cache_size;
            level.array_bytes = *array_bytes;
            level.reference_cycles = *reference;
            levels.push_back(std::move(level));
            return true;
        }
        if (levels.empty()) return false;  // every other tag attaches to a level
        SharedCacheLevelResult& level = levels.back();
        if (f[0] == "pair" && f.size() == 4) {
            const auto pair = parse_pair(f[1], f[2]);
            const auto ratio = parse_double(f[3]);
            if (!pair || !ratio) return false;
            level.pairs.push_back({*pair, *ratio});
            return true;
        }
        if (f[0] == "sharing" && f.size() == 3) {
            const auto pair = parse_pair(f[1], f[2]);
            if (!pair) return false;
            level.sharing_pairs.push_back(*pair);
            return true;
        }
        if (f[0] == "group" && f.size() == 2) {
            const auto group = parse_cores(f[1]);
            if (!group) return false;
            level.groups.push_back(*group);
            return true;
        }
        return false;
    });
    if (!ok) return std::nullopt;
    return levels;
}

std::string encode_mem_overhead(const MemOverheadResult& result) {
    std::string out = "reference " + format_hexfloat(result.reference_bandwidth) + '\n';
    for (const MemPairResult& pair : result.pairs)
        out += "pair " + std::to_string(pair.pair.a) + ' ' + std::to_string(pair.pair.b) +
               ' ' + format_hexfloat(pair.bandwidth) + '\n';
    for (const MemOverheadTier& tier : result.tiers) {
        out += "tier " + format_hexfloat(tier.bandwidth) + '\n';
        for (const CorePair& pair : tier.pairs)
            out += "tier-pair " + std::to_string(pair.a) + ' ' + std::to_string(pair.b) + '\n';
        for (const std::vector<CoreId>& group : tier.groups)
            out += "tier-group " + fmt_cores(group) + '\n';
    }
    for (const MemScalabilityCurve& scal : result.scalability)
        out += "scal " + std::to_string(scal.tier) + ' ' + fmt_cores(scal.group) + ' ' +
               fmt_doubles(scal.bandwidth_by_n) + '\n';
    return out;
}

std::optional<MemOverheadResult> decode_mem_overhead(const std::string& text) {
    MemOverheadResult result;
    const bool ok = for_each_record(text, [&](const Fields& f) {
        if (f[0] == "reference" && f.size() == 2) {
            const auto bandwidth = parse_double(f[1]);
            if (!bandwidth) return false;
            result.reference_bandwidth = *bandwidth;
            return true;
        }
        if (f[0] == "pair" && f.size() == 4) {
            const auto pair = parse_pair(f[1], f[2]);
            const auto bandwidth = parse_double(f[3]);
            if (!pair || !bandwidth) return false;
            result.pairs.push_back({*pair, *bandwidth});
            return true;
        }
        if (f[0] == "tier" && f.size() == 2) {
            const auto bandwidth = parse_double(f[1]);
            if (!bandwidth) return false;
            MemOverheadTier tier;
            tier.bandwidth = *bandwidth;
            result.tiers.push_back(std::move(tier));
            return true;
        }
        if (f[0] == "tier-pair" && f.size() == 3 && !result.tiers.empty()) {
            const auto pair = parse_pair(f[1], f[2]);
            if (!pair) return false;
            result.tiers.back().pairs.push_back(*pair);
            return true;
        }
        if (f[0] == "tier-group" && f.size() == 2 && !result.tiers.empty()) {
            const auto group = parse_cores(f[1]);
            if (!group) return false;
            result.tiers.back().groups.push_back(*group);
            return true;
        }
        if (f[0] == "scal" && f.size() == 4) {
            const auto tier = parse_int<std::size_t>(f[1]);
            const auto group = parse_cores(f[2]);
            const auto curve = parse_doubles(f[3]);
            if (!tier || !group || !curve) return false;
            result.scalability.push_back({*tier, *group, *curve});
            return true;
        }
        return false;
    });
    if (!ok) return std::nullopt;
    return result;
}

std::string encode_comm_costs(const CommCostsResult& result) {
    std::string out = "probe " + std::to_string(result.probe_message) + '\n';
    for (const CommPairLatency& pair : result.pairs)
        out += "pair " + std::to_string(pair.pair.a) + ' ' + std::to_string(pair.pair.b) +
               ' ' + format_hexfloat(pair.latency) + '\n';
    for (const CommLayer& layer : result.layers) {
        out += "layer " + format_hexfloat(layer.latency) + ' ' +
               std::to_string(layer.representative.a) + ' ' +
               std::to_string(layer.representative.b) + '\n';
        for (const CorePair& pair : layer.pairs)
            out += "layer-pair " + std::to_string(pair.a) + ' ' + std::to_string(pair.b) +
                   '\n';
        for (const auto& [size, latency] : layer.p2p)
            out += "p2p " + std::to_string(size) + ' ' + format_hexfloat(latency) + '\n';
        out += "slowdown " + fmt_doubles(layer.slowdown_by_n) + '\n';
    }
    return out;
}

std::optional<CommCostsResult> decode_comm_costs(const std::string& text) {
    CommCostsResult result;
    const bool ok = for_each_record(text, [&](const Fields& f) {
        if (f[0] == "probe" && f.size() == 2) {
            const auto bytes = parse_int<Bytes>(f[1]);
            if (!bytes) return false;
            result.probe_message = *bytes;
            return true;
        }
        if (f[0] == "pair" && f.size() == 4) {
            const auto pair = parse_pair(f[1], f[2]);
            const auto latency = parse_double(f[3]);
            if (!pair || !latency) return false;
            result.pairs.push_back({*pair, *latency});
            return true;
        }
        if (f[0] == "layer" && f.size() == 4) {
            const auto latency = parse_double(f[1]);
            const auto representative = parse_pair(f[2], f[3]);
            if (!latency || !representative) return false;
            CommLayer layer;
            layer.latency = *latency;
            layer.representative = *representative;
            result.layers.push_back(std::move(layer));
            return true;
        }
        if (result.layers.empty()) return false;
        CommLayer& layer = result.layers.back();
        if (f[0] == "layer-pair" && f.size() == 3) {
            const auto pair = parse_pair(f[1], f[2]);
            if (!pair) return false;
            layer.pairs.push_back(*pair);
            return true;
        }
        if (f[0] == "p2p" && f.size() == 3) {
            const auto size = parse_int<Bytes>(f[1]);
            const auto latency = parse_double(f[2]);
            if (!size || !latency) return false;
            layer.p2p.emplace_back(*size, *latency);
            return true;
        }
        if (f[0] == "slowdown" && f.size() == 2) {
            const auto values = parse_doubles(f[1]);
            if (!values) return false;
            layer.slowdown_by_n = *values;
            return true;
        }
        return false;
    });
    if (!ok) return std::nullopt;
    return result;
}

}  // namespace servet::core
