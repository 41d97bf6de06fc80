#include "core/profile.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "base/fs.hpp"
#include "base/text.hpp"
#include "sim/topology.hpp"

namespace servet::core {

namespace {

constexpr const char* kHeader = "servet-profile 1";

std::string fmt_ints(const std::vector<int>& values) {
    return join(values, ',', [](int v) { return std::to_string(v); });
}

std::string fmt_groups(const std::vector<std::vector<CoreId>>& groups) {
    return join(groups, ';', fmt_ints);
}

std::string fmt_pairs(const std::vector<CorePair>& pairs) {
    return join(pairs, ';', [](const CorePair& pair) {
        return std::to_string(pair.a) + '-' + std::to_string(pair.b);
    });
}

std::string fmt_curve(const std::vector<std::pair<Bytes, Seconds>>& curve) {
    return join(curve, ';', [](const std::pair<Bytes, Seconds>& point) {
        return std::to_string(point.first) + ':' + format_exact(point.second);
    });
}

std::string fmt_doubles(const std::vector<double>& values) {
    return join(values, ',', format_exact);
}

std::optional<std::vector<int>> parse_ints(std::string_view text) {
    return parse_list(text, ',', [](std::string_view v) { return parse_int<int>(v); });
}

std::optional<std::vector<double>> parse_doubles(std::string_view text) {
    return parse_list(text, ',', parse_double);
}

std::optional<std::vector<std::vector<CoreId>>> parse_groups(std::string_view text) {
    return parse_list(text, ';', [](std::string_view group) {
        auto cores = parse_ints(group);
        return cores && !cores->empty() ? cores : std::nullopt;
    });
}

std::optional<std::vector<CorePair>> parse_pairs(std::string_view text) {
    return parse_list(text, ';', [](std::string_view pair) -> std::optional<CorePair> {
        const auto dash = pair.find('-');
        if (dash == std::string_view::npos) return std::nullopt;
        const auto a = parse_int<CoreId>(pair.substr(0, dash));
        const auto b = parse_int<CoreId>(pair.substr(dash + 1));
        if (!a || !b) return std::nullopt;
        return CorePair{*a, *b};
    });
}

std::optional<std::vector<std::pair<Bytes, Seconds>>> parse_curve(std::string_view text) {
    return parse_list(
        text, ';', [](std::string_view point) -> std::optional<std::pair<Bytes, Seconds>> {
            const auto colon = point.find(':');
            if (colon == std::string_view::npos) return std::nullopt;
            const auto size = parse_int<Bytes>(point.substr(0, colon));
            const auto latency = parse_double(point.substr(colon + 1));
            if (!size || !latency) return std::nullopt;
            return std::pair{*size, *latency};
        });
}

}  // namespace

std::optional<Bytes> Profile::cache_size(std::size_t level) const {
    if (level >= caches.size()) return std::nullopt;
    return caches[level].size;
}

std::optional<Bytes> Profile::last_level_cache() const {
    if (caches.empty()) return std::nullopt;
    return caches.back().size;
}

bool Profile::shares_cache(std::size_t level, CorePair pair) const {
    if (level >= caches.size()) return false;
    for (const auto& group : caches[level].groups) {
        const bool has_a = std::find(group.begin(), group.end(), pair.a) != group.end();
        const bool has_b = std::find(group.begin(), group.end(), pair.b) != group.end();
        if (has_a && has_b) return true;
    }
    return false;
}

namespace {

int measured_layer_of(const std::vector<ProfileCommLayer>& comm, CorePair canonical) {
    for (std::size_t i = 0; i < comm.size(); ++i) {
        if (std::find(comm[i].pairs.begin(), comm[i].pairs.end(), canonical) !=
            comm[i].pairs.end())
            return static_cast<int>(i);
    }
    return -1;
}

/// Routing-only (tierless) topology spec rebuilt from the profile block;
/// nullopt when the block does not describe a routable shape (custom
/// topologies carry their link list only in the MachineSpec, not the
/// profile, so they get no analytic fallback).
std::optional<sim::TopologySpec> rebuild_topology(const ProfileTopology& topology) {
    sim::TopologySpec spec;
    if (!sim::topology_kind_parse(topology.kind, &spec.kind)) return std::nullopt;
    switch (spec.kind) {
        case sim::TopologyKind::FatTree:
            if (topology.dims.size() != 2) return std::nullopt;
            spec.arity = topology.dims[0];
            spec.levels = topology.dims[1];
            break;
        case sim::TopologyKind::Torus:
            spec.dims = topology.dims;
            break;
        case sim::TopologyKind::Dragonfly:
            if (topology.dims.size() != 3) return std::nullopt;
            spec.groups = topology.dims[0];
            spec.routers = topology.dims[1];
            spec.nodes_per_router = topology.dims[2];
            break;
        case sim::TopologyKind::None:
        case sim::TopologyKind::Custom:
            return std::nullopt;
    }
    if (!spec.validate().empty()) return std::nullopt;
    return spec;
}

}  // namespace

int Profile::comm_layer_of(CorePair pair) const {
    const CorePair canonical = pair.canonical();
    if (const int layer = measured_layer_of(comm, canonical); layer >= 0) return layer;
    if (!topology.enabled() || topology.cores_per_node < 1) return -1;

    const int cpn = topology.cores_per_node;
    const int node_a = canonical.a / cpn;
    const int node_b = canonical.b / cpn;
    if (node_a == node_b) {
        // Homogeneous nodes: an unsampled intra-node pair measures like
        // its node-0 translation (the sampled set covers node 0).
        const CorePair local =
            CorePair{canonical.a % cpn, canonical.b % cpn}.canonical();
        return local == canonical ? -1 : measured_layer_of(comm, local);
    }

    const std::optional<sim::TopologySpec> spec = rebuild_topology(topology);
    if (!spec || node_b >= spec->node_count()) return -1;
    const sim::RouteClass cls = sim::Topology(*spec).route_class(node_a, node_b);
    int tier_match = -1;
    for (const ProfileCommTier& record : comm_tiers) {
        if (record.tier != cls.tier) continue;
        if (record.hops == cls.hops) return record.layer;
        if (tier_match < 0) tier_match = record.layer;
    }
    // A class never sampled at this exact hop count still belongs to its
    // bottleneck tier's layer — the closest measured stand-in.
    return tier_match;
}

std::optional<Seconds> Profile::comm_latency(CorePair pair, Bytes size) const {
    return layer_latency(comm_layer_of(pair), size);
}

std::optional<Seconds> Profile::layer_latency(int layer, Bytes size) const {
    if (layer < 0 || layer >= static_cast<int>(comm.size())) return std::nullopt;
    const auto& curve = comm[static_cast<std::size_t>(layer)].p2p;
    if (curve.empty()) return std::nullopt;

    if (size <= curve.front().first) {
        const double scale =
            static_cast<double>(size) / static_cast<double>(curve.front().first);
        return curve.front().second * std::max(scale, 0.25);
    }
    if (size >= curve.back().first) {
        if (curve.size() < 2) return curve.back().second;
        const auto& [s1, t1] = curve[curve.size() - 2];
        const auto& [s2, t2] = curve.back();
        const double per_byte = (t2 - t1) / static_cast<double>(s2 - s1);
        return t2 + per_byte * static_cast<double>(size - s2);
    }
    for (std::size_t i = 1; i < curve.size(); ++i) {
        if (size > curve[i].first) continue;
        const auto& [s1, t1] = curve[i - 1];
        const auto& [s2, t2] = curve[i];
        const double f = static_cast<double>(size - s1) / static_cast<double>(s2 - s1);
        return t1 + f * (t2 - t1);
    }
    return curve.back().second;
}

int Profile::memory_tier_of(CorePair pair) const {
    for (std::size_t t = 0; t < memory.tiers.size(); ++t) {
        for (const auto& group : memory.tiers[t].groups) {
            const bool has_a = std::find(group.begin(), group.end(), pair.a) != group.end();
            const bool has_b = std::find(group.begin(), group.end(), pair.b) != group.end();
            if (has_a && has_b) return static_cast<int>(t);
        }
    }
    return -1;
}

std::optional<BytesPerSecond> Profile::memory_bandwidth_at(std::size_t tier, int n) const {
    if (tier >= memory.tiers.size() || n < 1) return std::nullopt;
    const auto& curve = memory.tiers[tier].scalability;
    if (curve.empty()) return std::nullopt;
    const std::size_t index =
        std::min(static_cast<std::size_t>(n - 1), curve.size() - 1);
    return curve[index];
}

namespace {

std::string json_groups(const std::vector<std::vector<CoreId>>& groups) {
    return '[' + join(groups, ',', [](const std::vector<CoreId>& group) {
               return '[' + fmt_ints(group) + ']';
           }) + ']';
}

std::string json_doubles(const std::vector<double>& values) {
    return '[' + fmt_doubles(values) + ']';
}

}  // namespace

std::string Profile::to_json() const {
    std::string out;
    out += "{\n";
    out += "  \"machine\": \"";
    out += json_escape(machine);
    out += "\",\n";
    out += "  \"cores\": ";
    out += std::to_string(cores);
    out += ",\n";
    out += "  \"page_size\": ";
    out += std::to_string(page_size);
    out += ",\n";

    out += "  \"caches\": [";
    for (std::size_t i = 0; i < caches.size(); ++i) {
        if (i) out += ",";
        out += "\n    {\"size\": ";
        out += std::to_string(caches[i].size);
        out += ", \"method\": \"";
        out += json_escape(caches[i].method);
        out += "\", \"groups\": ";
        out += json_groups(caches[i].groups);
        out += "}";
    }
    out += caches.empty() ? "],\n" : "\n  ],\n";

    out += "  \"memory\": {\"reference_bandwidth\": ";
    out += format_exact(memory.reference_bandwidth);
    out += ", \"tiers\": [";
    for (std::size_t t = 0; t < memory.tiers.size(); ++t) {
        const auto& tier = memory.tiers[t];
        if (t) out += ",";
        out += "\n    {\"bandwidth\": ";
        out += format_exact(tier.bandwidth);
        out += ", \"groups\": ";
        out += json_groups(tier.groups);
        out += ", \"scalability\": ";
        out += json_doubles(tier.scalability);
        out += "}";
    }
    out += memory.tiers.empty() ? "]},\n" : "\n  ]},\n";

    out += "  \"comm_layers\": [";
    for (std::size_t l = 0; l < comm.size(); ++l) {
        const auto& layer = comm[l];
        if (l) out += ",";
        out += "\n    {\"latency\": ";
        out += format_exact(layer.latency);
        out += ", \"pairs\": [";
        for (std::size_t p = 0; p < layer.pairs.size(); ++p) {
            if (p) out += ",";
            out += "[";
            out += std::to_string(layer.pairs[p].a);
            out += ",";
            out += std::to_string(layer.pairs[p].b);
            out += "]";
        }
        out += "], \"p2p\": [";
        for (std::size_t p = 0; p < layer.p2p.size(); ++p) {
            if (p) out += ",";
            out += "[";
            out += std::to_string(layer.p2p[p].first);
            out += ",";
            out += format_exact(layer.p2p[p].second);
            out += "]";
        }
        out += "], \"slowdown\": ";
        out += json_doubles(layer.slowdown);
        out += "}";
    }
    out += comm.empty() ? "],\n" : "\n  ],\n";

    // Cluster keys appear only on cluster profiles, mirroring the text
    // format's omitted sections.
    if (topology.enabled()) {
        out += "  \"topology\": {\"kind\": \"";
        out += json_escape(topology.kind);
        out += "\", \"cores_per_node\": ";
        out += std::to_string(topology.cores_per_node);
        out += ", \"dims\": [";
        for (std::size_t i = 0; i < topology.dims.size(); ++i) {
            if (i) out += ",";
            out += std::to_string(topology.dims[i]);
        }
        out += "]},\n";
        out += "  \"comm_tiers\": [";
        for (std::size_t i = 0; i < comm_tiers.size(); ++i) {
            if (i) out += ",";
            out += "\n    {\"name\": \"";
            out += json_escape(comm_tiers[i].name);
            out += "\", \"tier\": ";
            out += std::to_string(comm_tiers[i].tier);
            out += ", \"hops\": ";
            out += std::to_string(comm_tiers[i].hops);
            out += ", \"layer\": ";
            out += std::to_string(comm_tiers[i].layer);
            out += "}";
        }
        out += comm_tiers.empty() ? "],\n" : "\n  ],\n";
    }

    out += "  \"phase_seconds\": {";
    std::size_t index = 0;
    for (const auto& [phase, seconds] : phase_seconds) {
        if (index++) out += ", ";
        out += "\"";
        out += json_escape(phase);
        out += "\": ";
        out += format_exact(seconds);
    }
    out += "},\n";

    out += "  \"counters\": {";
    index = 0;
    for (const auto& [name, value] : counters) {
        if (index++) out += ", ";
        out += "\"";
        out += json_escape(name);
        out += "\": ";
        out += std::to_string(value);
    }
    out += "},\n";

    out += "  \"errors\": {";
    index = 0;
    for (const auto& [phase, message] : errors) {
        if (index++) out += ", ";
        out += "\"";
        out += json_escape(phase);
        out += "\": \"";
        out += json_escape(message);
        out += "\"";
    }
    out += "}\n}\n";
    return out;
}

std::string Profile::serialize() const {
    std::string out;
    out += kHeader;
    out += '\n';
    out += "machine = " + machine + '\n';
    out += "cores = " + std::to_string(cores) + '\n';
    out += "page_size = " + std::to_string(page_size) + '\n';

    for (std::size_t i = 0; i < caches.size(); ++i) {
        out += "\n[cache " + std::to_string(i) + "]\n";
        out += "size = " + std::to_string(caches[i].size) + '\n';
        out += "method = " + caches[i].method + '\n';
        out += "groups = " + fmt_groups(caches[i].groups) + '\n';
    }

    out += "\n[memory]\n";
    out += "reference = " + format_exact(memory.reference_bandwidth) + '\n';
    for (std::size_t i = 0; i < memory.tiers.size(); ++i) {
        out += "\n[memory-tier " + std::to_string(i) + "]\n";
        out += "bandwidth = " + format_exact(memory.tiers[i].bandwidth) + '\n';
        out += "groups = " + fmt_groups(memory.tiers[i].groups) + '\n';
        out += "scalability = " + fmt_doubles(memory.tiers[i].scalability) + '\n';
    }

    for (std::size_t i = 0; i < comm.size(); ++i) {
        out += "\n[comm-layer " + std::to_string(i) + "]\n";
        out += "latency = " + format_exact(comm[i].latency) + '\n';
        out += "pairs = " + fmt_pairs(comm[i].pairs) + '\n';
        out += "p2p = " + fmt_curve(comm[i].p2p) + '\n';
        out += "slowdown = " + fmt_doubles(comm[i].slowdown) + '\n';
    }

    // Cluster sections. Omitted entirely for single-node profiles so
    // historical files serialize (and re-parse) byte-identically.
    if (topology.enabled()) {
        out += "\n[topology]\n";
        out += "kind = " + topology.kind + '\n';
        out += "cores_per_node = " + std::to_string(topology.cores_per_node) + '\n';
        out += "dims = " + fmt_ints(topology.dims) + '\n';
    }
    for (std::size_t i = 0; i < comm_tiers.size(); ++i) {
        out += "\n[comm-tier " + std::to_string(i) + "]\n";
        out += "name = " + comm_tiers[i].name + '\n';
        out += "tier = " + std::to_string(comm_tiers[i].tier) + '\n';
        out += "hops = " + std::to_string(comm_tiers[i].hops) + '\n';
        out += "layer = " + std::to_string(comm_tiers[i].layer) + '\n';
    }

    if (!phase_seconds.empty()) {
        out += "\n[timing]\n";
        for (const auto& [phase, seconds] : phase_seconds)
            out += phase + " = " + format_exact(seconds) + '\n';
    }

    if (!counters.empty()) {
        out += "\n[counters]\n";
        for (const auto& [name, value] : counters)
            out += name + " = " + std::to_string(value) + '\n';
    }

    if (!errors.empty()) {
        out += "\n[errors]\n";
        for (const auto& [phase, message] : errors) {
            // The format is line-oriented; fold any newline an exception
            // message smuggled in.
            std::string flat = message;
            for (char& c : flat)
                if (c == '\n' || c == '\r') c = ' ';
            out += phase + " = " + flat + '\n';
        }
    }
    return out;
}

std::optional<Profile> Profile::parse(const std::string& text) {
    const std::vector<std::string_view> lines = split(text, '\n');
    if (lines.empty() || trim(lines.front()) != kHeader) return std::nullopt;

    Profile profile;
    enum class Section {
        Top, Cache, Memory, MemoryTier, CommLayer, Topology, CommTier, Timing, Counters, Errors
    };
    Section section = Section::Top;

    for (std::size_t n = 1; n < lines.size(); ++n) {
        const std::string_view line = trim(lines[n]);
        if (line.empty() || line.front() == '#') continue;

        if (line.front() == '[') {
            if (line.back() != ']') return std::nullopt;
            const std::string_view name = trim(line.substr(1, line.size() - 2));
            if (name.starts_with("cache ")) {
                section = Section::Cache;
                profile.caches.emplace_back();
            } else if (name == "memory") {
                section = Section::Memory;
            } else if (name.starts_with("memory-tier ")) {
                section = Section::MemoryTier;
                profile.memory.tiers.emplace_back();
            } else if (name.starts_with("comm-layer ")) {
                section = Section::CommLayer;
                profile.comm.emplace_back();
            } else if (name == "topology") {
                section = Section::Topology;
            } else if (name.starts_with("comm-tier ")) {
                section = Section::CommTier;
                profile.comm_tiers.emplace_back();
            } else if (name == "timing") {
                section = Section::Timing;
            } else if (name == "counters") {
                section = Section::Counters;
            } else if (name == "errors") {
                section = Section::Errors;
            } else {
                return std::nullopt;
            }
            continue;
        }

        const auto eq = line.find('=');
        if (eq == std::string_view::npos) return std::nullopt;
        const std::string key(trim(line.substr(0, eq)));
        const std::string value(trim(line.substr(eq + 1)));

        const auto fail = [] { return std::optional<Profile>{}; };
        switch (section) {
            case Section::Top: {
                if (key == "machine") {
                    profile.machine = value;
                } else if (key == "cores") {
                    const auto v = parse_int<int>(value);
                    if (!v) return fail();
                    profile.cores = *v;
                } else if (key == "page_size") {
                    const auto v = parse_int<Bytes>(value);
                    if (!v) return fail();
                    profile.page_size = *v;
                } else {
                    return fail();
                }
                break;
            }
            case Section::Cache: {
                ProfileCacheLevel& cache = profile.caches.back();
                if (key == "size") {
                    const auto v = parse_int<Bytes>(value);
                    if (!v) return fail();
                    cache.size = *v;
                } else if (key == "method") {
                    cache.method = value;
                } else if (key == "groups") {
                    const auto v = parse_groups(value);
                    if (!v) return fail();
                    cache.groups = *v;
                } else {
                    return fail();
                }
                break;
            }
            case Section::Memory: {
                if (key == "reference") {
                    const auto v = parse_double(value);
                    if (!v) return fail();
                    profile.memory.reference_bandwidth = *v;
                } else {
                    return fail();
                }
                break;
            }
            case Section::MemoryTier: {
                ProfileMemoryTier& tier = profile.memory.tiers.back();
                if (key == "bandwidth") {
                    const auto v = parse_double(value);
                    if (!v) return fail();
                    tier.bandwidth = *v;
                } else if (key == "groups") {
                    const auto v = parse_groups(value);
                    if (!v) return fail();
                    tier.groups = *v;
                } else if (key == "scalability") {
                    const auto v = parse_doubles(value);
                    if (!v) return fail();
                    tier.scalability = *v;
                } else {
                    return fail();
                }
                break;
            }
            case Section::CommLayer: {
                ProfileCommLayer& layer = profile.comm.back();
                if (key == "latency") {
                    const auto v = parse_double(value);
                    if (!v) return fail();
                    layer.latency = *v;
                } else if (key == "pairs") {
                    const auto v = parse_pairs(value);
                    if (!v) return fail();
                    layer.pairs = *v;
                } else if (key == "p2p") {
                    const auto v = parse_curve(value);
                    if (!v) return fail();
                    layer.p2p = *v;
                } else if (key == "slowdown") {
                    const auto v = parse_doubles(value);
                    if (!v) return fail();
                    layer.slowdown = *v;
                } else {
                    return fail();
                }
                break;
            }
            case Section::Topology: {
                if (key == "kind") {
                    profile.topology.kind = value;
                } else if (key == "cores_per_node") {
                    const auto v = parse_int<int>(value);
                    if (!v || *v < 1) return fail();
                    profile.topology.cores_per_node = *v;
                } else if (key == "dims") {
                    const auto v = parse_ints(value);
                    if (!v) return fail();
                    profile.topology.dims = *v;
                } else {
                    return fail();
                }
                break;
            }
            case Section::CommTier: {
                ProfileCommTier& tier = profile.comm_tiers.back();
                if (key == "name") {
                    tier.name = value;
                    break;
                }
                const auto v = parse_int<int>(value);
                if (!v || *v < 0) return fail();
                if (key == "tier") {
                    tier.tier = *v;
                } else if (key == "hops") {
                    tier.hops = *v;
                } else if (key == "layer") {
                    tier.layer = *v;
                } else {
                    return fail();
                }
                break;
            }
            case Section::Timing: {
                const auto v = parse_double(value);
                if (!v) return fail();
                profile.phase_seconds[key] = *v;
                break;
            }
            case Section::Counters: {
                const auto v = parse_int<std::uint64_t>(value);
                if (!v) return fail();
                profile.counters[key] = *v;
                break;
            }
            case Section::Errors: {
                profile.errors[key] = value;
                break;
            }
        }
    }
    return profile;
}

bool Profile::save(const std::string& path) const {
    // Crash-atomic: fsync'd under a temporary sibling name, then renamed
    // into place. The profile is the suite's whole product — a crash or
    // power loss mid-save must never leave a truncated file where a good
    // profile stood (or would stand).
    return write_file_atomic(path, serialize());
}

std::optional<Profile> Profile::load(const std::string& path, std::string* diagnostic,
                                     FileRead* read) {
    std::string text;
    const FileRead outcome = read_file(path, &text);
    if (read != nullptr) *read = outcome;
    switch (outcome) {
        case FileRead::Absent:
            if (diagnostic != nullptr) *diagnostic = "no such file: " + path;
            return std::nullopt;
        case FileRead::Error:
            if (diagnostic != nullptr) *diagnostic = "cannot read " + path;
            return std::nullopt;
        case FileRead::Ok:
            break;
    }
    std::optional<Profile> profile = parse(text);
    if (!profile && diagnostic != nullptr)
        *diagnostic =
            path + " exists but is not a valid servet profile (corrupt or wrong format)";
    return profile;
}

}  // namespace servet::core
