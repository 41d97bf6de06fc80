#include "platform/platform_file.hpp"

#include <vector>

#include "base/fs.hpp"
#include "base/text.hpp"
#include "sim/topology.hpp"
#include "sim/zoo.hpp"

namespace servet {

namespace {

constexpr const char* kHeader = "servet-platform 1";

/// "a-b:tier;a-b:tier;..." -> custom link list.
std::optional<std::vector<sim::TopologyLink>> parse_links(std::string_view text) {
    std::vector<sim::TopologyLink> links;
    for (const std::string_view link : split(text, ';')) {
        const auto dash = link.find('-');
        const auto colon = link.find(':', dash == std::string_view::npos ? 0 : dash + 1);
        if (dash == std::string_view::npos || colon == std::string_view::npos)
            return std::nullopt;
        const auto a = parse_int<int>(link.substr(0, dash));
        const auto b = parse_int<int>(link.substr(dash + 1, colon - dash - 1));
        const auto tier = parse_int<int>(link.substr(colon + 1));
        if (!a || !b || !tier) return std::nullopt;
        links.push_back({*a, *b, *tier});
    }
    return links;
}

std::optional<sim::MachineSpec> fail(PlatformError* error, std::string code,
                                     std::string message) {
    if (error != nullptr) *error = {std::move(code), std::move(message)};
    return std::nullopt;
}

/// Stable error code for a topology/machine validation message. The
/// negative-path CLI tests pin these codes, so the mapping is explicit
/// rather than "whatever validate said".
std::string code_for_problem(const std::string& problem) {
    if (problem.find("arity") != std::string::npos) return "platform.fattree.arity";
    if (problem.find("cycle") != std::string::npos) return "platform.links.cycle";
    if (problem.find("tiers") != std::string::npos) return "platform.tiers.count";
    if (problem.find("topology") != std::string::npos) return "platform.topology";
    return "platform.machine";
}

}  // namespace

std::optional<sim::MachineSpec> parse_platform(const std::string& text, PlatformError* error) {
    const std::vector<std::string_view> lines = split(text, '\n');
    if (lines.empty() || trim(lines.front()) != kHeader)
        return fail(error, "platform.header",
                    std::string("first line must be \"") + kHeader + "\"");

    std::string name = "platform";
    int cores_per_node = 1;
    std::uint64_t seed = 0x5eed01;
    double jitter = 0.02;
    sim::TopologySpec topology;
    bool saw_topology = false;
    // Tier sections must arrive as [tier 0], [tier 1], ... — the index is
    // part of the format so a missing middle tier is a loud error, not a
    // silent renumbering.
    int next_tier = 0;

    enum class Section { Top, Topology, Tier };
    Section section = Section::Top;

    for (std::size_t n = 1; n < lines.size(); ++n) {
        const std::string_view line = trim(lines[n]);
        if (line.empty() || line.front() == '#') continue;
        const std::string at = " (line " + std::to_string(n + 1) + ")";

        if (line.front() == '[') {
            if (line.back() != ']')
                return fail(error, "platform.syntax", "unterminated section header" + at);
            const std::string section_name(trim(line.substr(1, line.size() - 2)));
            if (section_name == "topology") {
                section = Section::Topology;
                saw_topology = true;
            } else if (section_name.starts_with("tier ")) {
                const auto index = parse_int<int>(trim(section_name.substr(5)));
                if (!index || *index != next_tier)
                    return fail(error, "platform.tiers.count",
                                "tier sections must be contiguous from [tier 0]; got [" +
                                    section_name + "]" + at);
                ++next_tier;
                topology.tiers.emplace_back();
                section = Section::Tier;
            } else {
                return fail(error, "platform.syntax",
                            "unknown section [" + section_name + "]" + at);
            }
            continue;
        }

        const auto eq = line.find('=');
        if (eq == std::string_view::npos)
            return fail(error, "platform.syntax", "expected key = value" + at);
        const std::string key(trim(line.substr(0, eq)));
        const std::string value(trim(line.substr(eq + 1)));
        const auto bad_field = [&] {
            return fail(error, "platform.field",
                        "bad value for " + key + ": \"" + value + "\"" + at);
        };

        switch (section) {
            case Section::Top: {
                if (key == "name") {
                    if (value.empty()) return bad_field();
                    name = value;
                } else if (key == "cores_per_node") {
                    const auto v = parse_int<int>(value);
                    if (!v || *v < 1 || *v > 1024) return bad_field();
                    cores_per_node = *v;
                } else if (key == "seed") {
                    const auto v = parse_int<std::uint64_t>(value);
                    if (!v) return bad_field();
                    seed = *v;
                } else if (key == "jitter") {
                    const auto v = parse_finite(value);
                    if (!v || *v < 0 || *v >= 0.5) return bad_field();
                    jitter = *v;
                } else {
                    return fail(error, "platform.syntax", "unknown key " + key + at);
                }
                break;
            }
            case Section::Topology: {
                const auto int_field = [&](int* out) {
                    const auto v = parse_int<int>(value);
                    if (!v || *v < 0 || *v > (1 << 22)) return false;
                    *out = *v;
                    return true;
                };
                if (key == "kind") {
                    if (!sim::topology_kind_parse(value, &topology.kind) ||
                        topology.kind == sim::TopologyKind::None)
                        return fail(error, "platform.kind",
                                    "unknown topology kind \"" + value + "\"" + at);
                } else if (key == "arity") {
                    if (!int_field(&topology.arity)) return bad_field();
                } else if (key == "levels") {
                    if (!int_field(&topology.levels)) return bad_field();
                } else if (key == "dims") {
                    topology.dims.clear();
                    for (const std::string_view dim : split(value, ',')) {
                        const auto v = parse_int<int>(trim(dim));
                        if (!v || *v < 1) return bad_field();
                        topology.dims.push_back(*v);
                    }
                    if (topology.dims.empty()) return bad_field();
                } else if (key == "groups") {
                    if (!int_field(&topology.groups)) return bad_field();
                } else if (key == "routers") {
                    if (!int_field(&topology.routers)) return bad_field();
                } else if (key == "nodes_per_router") {
                    if (!int_field(&topology.nodes_per_router)) return bad_field();
                } else if (key == "nodes") {
                    if (!int_field(&topology.custom_nodes)) return bad_field();
                } else if (key == "switches") {
                    if (!int_field(&topology.switch_count)) return bad_field();
                } else if (key == "links") {
                    const auto links = parse_links(value);
                    if (!links) return bad_field();
                    topology.links = *links;
                } else {
                    return fail(error, "platform.syntax", "unknown key " + key + at);
                }
                break;
            }
            case Section::Tier: {
                sim::TopologyTier& tier = topology.tiers.back();
                if (key == "name") {
                    tier.name = value;
                } else if (key == "hop_latency") {
                    const auto v = parse_finite(value);
                    if (!v || *v < 0) return bad_field();
                    tier.hop_latency = *v;
                } else if (key == "bandwidth") {
                    const auto v = parse_finite(value);
                    if (!v || *v <= 0) return bad_field();
                    tier.bandwidth = *v;
                } else if (key == "congestion") {
                    const auto v = parse_finite(value);
                    if (!v || *v < 0) return bad_field();
                    tier.congestion_exponent = *v;
                } else {
                    return fail(error, "platform.syntax", "unknown key " + key + at);
                }
                break;
            }
        }
    }

    if (!saw_topology)
        return fail(error, "platform.syntax", "platform file needs a [topology] section");
    if (topology.tiers.empty())
        return fail(error, "platform.tiers.count",
                    "platform file declares no [tier k] sections");

    // Shape problems surface with their stable codes before the machine
    // is even assembled; required_tiers is only meaningful on a shape
    // that validates, so the explicit count check comes second.
    for (const std::string& problem : topology.validate())
        return fail(error, code_for_problem(problem), problem);
    if (static_cast<int>(topology.tiers.size()) != topology.required_tiers())
        return fail(error, "platform.tiers.count",
                    "topology needs " + std::to_string(topology.required_tiers()) +
                        " tiers, file declares " + std::to_string(topology.tiers.size()));

    const int nodes = topology.node_count();
    if (nodes < 1) return fail(error, "platform.topology", "topology connects no nodes");
    sim::MachineSpec machine = sim::zoo::cluster_node_machine(name, nodes, cores_per_node, seed);
    machine.measurement_jitter = jitter;
    machine.topology = std::move(topology);
    for (const std::string& problem : machine.validate())
        return fail(error, code_for_problem(problem), problem);
    return machine;
}

std::optional<sim::MachineSpec> load_platform(const std::string& path, PlatformError* error) {
    std::string text;
    switch (read_file(path, &text)) {
        case FileRead::Absent:
            return fail(error, "platform.io", "no such file: " + path);
        case FileRead::Error:
            return fail(error, "platform.io", "cannot read " + path);
        case FileRead::Ok:
            break;
    }
    return parse_platform(text, error);
}

}  // namespace servet
