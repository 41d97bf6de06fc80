#include "sim/topology.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "base/check.hpp"

namespace servet::sim {

namespace {

/// Hard cap on modeled cluster size; keeps every arity^levels / dims
/// product computation in range.
constexpr long long kMaxVertices = 1 << 22;

long long fat_tree_nodes(int arity, int levels) {
    long long n = 1;
    for (int l = 0; l < levels; ++l) {
        n *= arity;
        if (n > kMaxVertices) return -1;
    }
    return n;
}

bool power_of_two(int v) { return v >= 1 && (v & (v - 1)) == 0; }

}  // namespace

const char* topology_kind_name(TopologyKind kind) {
    switch (kind) {
        case TopologyKind::None: return "none";
        case TopologyKind::FatTree: return "fat-tree";
        case TopologyKind::Torus: return "torus";
        case TopologyKind::Dragonfly: return "dragonfly";
        case TopologyKind::Custom: return "custom";
    }
    return "none";
}

bool topology_kind_parse(const std::string& text, TopologyKind* kind) {
    for (TopologyKind k : {TopologyKind::None, TopologyKind::FatTree, TopologyKind::Torus,
                           TopologyKind::Dragonfly, TopologyKind::Custom}) {
        if (text == topology_kind_name(k)) {
            *kind = k;
            return true;
        }
    }
    return false;
}

int TopologySpec::node_count() const {
    switch (kind) {
        case TopologyKind::None: return 1;
        case TopologyKind::FatTree: {
            const long long n = fat_tree_nodes(arity, levels);
            return n < 0 ? 0 : static_cast<int>(n);
        }
        case TopologyKind::Torus: {
            long long n = 1;
            for (int d : dims) {
                if (d < 1) return 0;
                n *= d;
                if (n > kMaxVertices) return 0;
            }
            return dims.empty() ? 0 : static_cast<int>(n);
        }
        case TopologyKind::Dragonfly: {
            const long long n = static_cast<long long>(groups) * routers * nodes_per_router;
            return (n < 1 || n > kMaxVertices) ? 0 : static_cast<int>(n);
        }
        case TopologyKind::Custom: return custom_nodes;
    }
    return 0;
}

int TopologySpec::required_tiers() const {
    switch (kind) {
        case TopologyKind::None: return 0;
        case TopologyKind::FatTree: return levels;
        case TopologyKind::Torus: return 1;
        case TopologyKind::Dragonfly: return 3;
        case TopologyKind::Custom: {
            int max_tier = -1;
            for (const TopologyLink& link : links) max_tier = std::max(max_tier, link.tier);
            return max_tier + 1;
        }
    }
    return 0;
}

std::vector<std::string> TopologySpec::validate() const {
    std::vector<std::string> problems;
    const auto complain = [&](std::string text) { problems.push_back(std::move(text)); };
    if (kind == TopologyKind::None) {
        if (!tiers.empty()) complain("topology kind none cannot declare tiers");
        return problems;
    }

    switch (kind) {
        case TopologyKind::None: break;
        case TopologyKind::FatTree:
            if (!power_of_two(arity) || arity < 2)
                complain("fat-tree arity must be a power of two >= 2");
            if (levels < 1) complain("fat-tree needs at least one switch level");
            if (fat_tree_nodes(arity, levels) < 0) complain("fat-tree is too large");
            break;
        case TopologyKind::Torus:
            if (dims.size() != 2 && dims.size() != 3)
                complain("torus needs 2 or 3 dimensions");
            for (int d : dims)
                if (d < 1) complain("torus dimensions must be >= 1");
            if (node_count() == 0) complain("torus is empty or too large");
            break;
        case TopologyKind::Dragonfly:
            if (groups < 2) complain("dragonfly needs at least two groups");
            if (routers < 1) complain("dragonfly needs at least one router per group");
            if (nodes_per_router < 1)
                complain("dragonfly needs at least one node per router");
            if (node_count() == 0) complain("dragonfly is too large");
            break;
        case TopologyKind::Custom: {
            if (custom_nodes < 1) complain("custom topology needs at least one node");
            if (switch_count < 0) complain("custom switch_count must be >= 0");
            const long long vertices =
                static_cast<long long>(custom_nodes) + switch_count;
            if (vertices > kMaxVertices) complain("custom topology is too large");
            bool endpoints_ok = true;
            for (const TopologyLink& link : links) {
                if (link.a < 0 || link.a >= vertices || link.b < 0 || link.b >= vertices ||
                    link.a == link.b) {
                    complain("custom link endpoints out of range");
                    endpoints_ok = false;
                }
                if (link.tier < 0) complain("custom link tier must be >= 0");
            }
            if (endpoints_ok && custom_nodes >= 1 && vertices <= kMaxVertices) {
                // A unique route between every vertex pair requires a tree:
                // exactly vertices-1 links, no cycles, one component.
                const int vcount = static_cast<int>(vertices);
                std::vector<int> parent(static_cast<std::size_t>(vcount));
                for (std::size_t v = 0; v < parent.size(); ++v)
                    parent[v] = static_cast<int>(v);
                const auto find = [&](int v) {
                    while (parent[static_cast<std::size_t>(v)] != v) {
                        parent[static_cast<std::size_t>(v)] =
                            parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
                        v = parent[static_cast<std::size_t>(v)];
                    }
                    return v;
                };
                bool cycle = false;
                for (const TopologyLink& link : links) {
                    const int ra = find(link.a);
                    const int rb = find(link.b);
                    if (ra == rb) {
                        cycle = true;
                    } else {
                        parent[static_cast<std::size_t>(ra)] = rb;
                    }
                }
                if (cycle) {
                    complain("custom links contain a cycle");
                } else if (static_cast<int>(links.size()) != vcount - 1) {
                    complain("custom links must connect every node and switch");
                } else {
                    const int root = find(0);
                    for (int v = 1; v < vcount; ++v)
                        if (find(v) != root) {
                            complain("custom links must connect every node and switch");
                            break;
                        }
                }
            }
            break;
        }
    }

    if (!tiers.empty()) {
        if (static_cast<int>(tiers.size()) != required_tiers())
            complain("topology declares " + std::to_string(tiers.size()) + " tiers, needs " +
                     std::to_string(required_tiers()));
        for (const TopologyTier& t : tiers) {
            if (t.hop_latency < 0 || t.bandwidth <= 0)
                complain("topology tier '" + t.name + "': bad latency/bandwidth");
            if (t.congestion_exponent < 0)
                complain("topology tier '" + t.name + "': negative congestion exponent");
        }
    }
    return problems;
}

Topology::Topology(TopologySpec spec) : spec_(std::move(spec)) {
    SERVET_CHECK_MSG(spec_.enabled(), "Topology needs an enabled spec");
    const std::vector<std::string> problems = spec_.validate();
    if (!problems.empty())
        SERVET_CHECK_MSG(false, ("invalid topology: " + problems.front()).c_str());
    if (spec_.kind == TopologyKind::Custom) {
        custom_adjacency_.resize(static_cast<std::size_t>(vertex_count()));
        for (const TopologyLink& link : spec_.links) {
            custom_adjacency_[static_cast<std::size_t>(link.a)].emplace_back(link.b, link.tier);
            custom_adjacency_[static_cast<std::size_t>(link.b)].emplace_back(link.a, link.tier);
        }
    }
}

int Topology::vertex_count() const {
    const int nodes = node_count();
    switch (spec_.kind) {
        case TopologyKind::None: return nodes;
        case TopologyKind::FatTree: {
            // Level l (1-based) has arity^(levels-l) switches.
            int switches = 0;
            int count = 1;
            for (int l = spec_.levels; l >= 1; --l) {
                switches += count;
                count *= spec_.arity;
            }
            return nodes + switches;
        }
        case TopologyKind::Torus: return nodes;
        case TopologyKind::Dragonfly: return nodes + spec_.groups * spec_.routers;
        case TopologyKind::Custom: return nodes + spec_.switch_count;
    }
    return nodes;
}

namespace {

/// First vertex id of fat-tree switch level l (1-based): nodes come
/// first, then level 1 switches, then level 2, ...
int fat_tree_level_base(int nodes, int arity, int level) {
    int base = nodes;
    int count = nodes / arity;  // level 1 switch count
    for (int l = 1; l < level; ++l) {
        base += count;
        count /= arity;
    }
    return base;
}

}  // namespace

std::vector<TopologyLink> Topology::links() const {
    std::vector<TopologyLink> result;
    switch (spec_.kind) {
        case TopologyKind::None: break;
        case TopologyKind::FatTree: {
            const int nodes = node_count();
            const int k = spec_.arity;
            // Tier l-1 connects level l-1 entities to their level l parent.
            int child_base = 0;
            int child_count = nodes;
            for (int l = 1; l <= spec_.levels; ++l) {
                const int parent_base = fat_tree_level_base(nodes, k, l);
                for (int c = 0; c < child_count; ++c)
                    result.push_back({child_base + c, parent_base + c / k, l - 1});
                child_base = parent_base;
                child_count /= k;
            }
            break;
        }
        case TopologyKind::Torus: {
            const int nodes = node_count();
            std::vector<int> stride(spec_.dims.size(), 1);
            for (std::size_t d = 1; d < spec_.dims.size(); ++d)
                stride[d] = stride[d - 1] * spec_.dims[d - 1];
            for (int v = 0; v < nodes; ++v) {
                for (std::size_t d = 0; d < spec_.dims.size(); ++d) {
                    const int size = spec_.dims[d];
                    if (size < 2) continue;
                    const int coord = (v / stride[d]) % size;
                    // A 2-ring's +1 and -1 neighbour coincide; list the
                    // link once.
                    if (size == 2 && coord == 1) continue;
                    const int next = v + ((coord + 1) % size - coord) * stride[d];
                    result.push_back({v, next, 0});
                }
            }
            break;
        }
        case TopologyKind::Dragonfly: {
            const int nodes = node_count();
            const int r = spec_.routers;
            const auto router_id = [&](int group, int index) {
                return nodes + group * r + index;
            };
            for (int v = 0; v < nodes; ++v)
                result.push_back({v, nodes + v / spec_.nodes_per_router, 0});
            for (int g = 0; g < spec_.groups; ++g)
                for (int i = 0; i < r; ++i)
                    for (int j = i + 1; j < r; ++j)
                        result.push_back({router_id(g, i), router_id(g, j), 1});
            for (int gi = 0; gi < spec_.groups; ++gi)
                for (int gj = gi + 1; gj < spec_.groups; ++gj)
                    for (int k = 0; k < r; ++k)
                        result.push_back({router_id(gi, k), router_id(gj, k), 2});
            break;
        }
        case TopologyKind::Custom: result = spec_.links; break;
    }
    return result;
}

std::vector<RouteHop> Topology::route(int node_a, int node_b) const {
    SERVET_CHECK(node_a >= 0 && node_a < node_count());
    SERVET_CHECK(node_b >= 0 && node_b < node_count());
    SERVET_CHECK_MSG(node_a != node_b, "route of a node to itself is empty");
    switch (spec_.kind) {
        case TopologyKind::None: break;
        case TopologyKind::FatTree: return route_fat_tree(node_a, node_b);
        case TopologyKind::Torus: return route_torus(node_a, node_b);
        case TopologyKind::Dragonfly: return route_dragonfly(node_a, node_b);
        case TopologyKind::Custom: return route_custom(node_a, node_b);
    }
    return {};
}

std::vector<RouteHop> Topology::route_fat_tree(int a, int b) const {
    const int nodes = node_count();
    const int k = spec_.arity;
    // Lowest common ancestor level: smallest l with equal level-l parents.
    int meet = 1;
    {
        int pa = a / k;
        int pb = b / k;
        while (pa != pb) {
            pa /= k;
            pb /= k;
            ++meet;
        }
    }
    std::vector<RouteHop> hops;
    // Up a's spine to the meet switch, then down b's spine.
    int from = a;
    int prefix = a;
    for (int l = 1; l <= meet; ++l) {
        prefix /= k;
        const int to = fat_tree_level_base(nodes, k, l) + prefix;
        hops.push_back({from, to, l - 1});
        from = to;
    }
    for (int l = meet - 1; l >= 1; --l) {
        int prefix_b = b;
        for (int d = 0; d < l; ++d) prefix_b /= k;
        const int to = fat_tree_level_base(nodes, k, l) + prefix_b;
        hops.push_back({from, to, l});
        from = to;
    }
    if (meet >= 1) hops.push_back({from, b, 0});
    return hops;
}

std::vector<RouteHop> Topology::route_torus(int a, int b) const {
    std::vector<int> stride(spec_.dims.size(), 1);
    for (std::size_t d = 1; d < spec_.dims.size(); ++d)
        stride[d] = stride[d - 1] * spec_.dims[d - 1];
    std::vector<RouteHop> hops;
    int current = a;
    // Dimension-ordered minimal routing: correct each coordinate in turn,
    // going around the shorter way; ties break to the positive direction.
    for (std::size_t d = 0; d < spec_.dims.size(); ++d) {
        const int size = spec_.dims[d];
        if (size < 2) continue;
        const int from_coord = (current / stride[d]) % size;
        const int to_coord = (b / stride[d]) % size;
        const int forward = (to_coord - from_coord + size) % size;
        const int backward = size - forward;
        const int steps = std::min(forward, backward);
        const int direction = forward <= backward ? 1 : -1;
        int coord = from_coord;
        for (int s = 0; s < steps; ++s) {
            const int next_coord = (coord + direction + size) % size;
            const int next = current + (next_coord - coord) * stride[d];
            hops.push_back({current, next, 0});
            current = next;
            coord = next_coord;
        }
    }
    return hops;
}

std::vector<RouteHop> Topology::route_dragonfly(int a, int b) const {
    const int nodes = node_count();
    const int r = spec_.routers;
    const int n = spec_.nodes_per_router;
    const auto router_id = [&](int group, int index) { return nodes + group * r + index; };
    const int ra_index = (a / n) % r;
    const int rb_index = (b / n) % r;
    const int ga = a / (n * r);
    const int gb = b / (n * r);
    const int ra = router_id(ga, ra_index);
    const int rb = router_id(gb, rb_index);

    std::vector<RouteHop> hops;
    hops.push_back({a, ra, 0});
    int current = ra;
    if (ga != gb) {
        // Minimal routing: router k of every group links directly to
        // router k of every other group, so one global hop always exists.
        const int entry = router_id(gb, ra_index);
        hops.push_back({current, entry, 2});
        current = entry;
    }
    if (current != rb) {
        hops.push_back({current, rb, 1});
        current = rb;
    }
    hops.push_back({current, b, 0});
    return hops;
}

std::vector<RouteHop> Topology::route_custom(int a, int b) const {
    // Breadth-first parent walk; the tree makes the path unique, so the
    // route is deterministic regardless of traversal order.
    std::vector<int> parent(custom_adjacency_.size(), -1);
    std::vector<int> parent_tier(custom_adjacency_.size(), -1);
    std::deque<int> frontier = {a};
    parent[static_cast<std::size_t>(a)] = a;
    while (!frontier.empty()) {
        const int v = frontier.front();
        frontier.pop_front();
        if (v == b) break;
        for (const auto& [peer, tier] : custom_adjacency_[static_cast<std::size_t>(v)]) {
            if (parent[static_cast<std::size_t>(peer)] >= 0) continue;
            parent[static_cast<std::size_t>(peer)] = v;
            parent_tier[static_cast<std::size_t>(peer)] = tier;
            frontier.push_back(peer);
        }
    }
    SERVET_CHECK_MSG(parent[static_cast<std::size_t>(b)] >= 0,
                     "custom topology does not connect the pair");
    std::vector<RouteHop> reversed;
    for (int v = b; v != a; v = parent[static_cast<std::size_t>(v)])
        reversed.push_back({parent[static_cast<std::size_t>(v)], v,
                            parent_tier[static_cast<std::size_t>(v)]});
    return {reversed.rbegin(), reversed.rend()};
}

RouteClass Topology::route_class(int node_a, int node_b) const {
    const std::vector<RouteHop> hops = route(node_a, node_b);
    RouteClass cls;
    cls.hops = static_cast<int>(hops.size());
    for (const RouteHop& hop : hops) cls.tier = std::max(cls.tier, hop.tier);
    return cls;
}

Seconds Topology::latency(int node_a, int node_b, Bytes size) const {
    SERVET_CHECK_MSG(!spec_.tiers.empty(), "topology latency needs tier parameters");
    Seconds total = 0;
    for (const RouteHop& hop : route(node_a, node_b)) {
        const TopologyTier& t = tier(hop.tier);
        total += t.hop_latency + static_cast<double>(size) / t.bandwidth;
    }
    return total;
}

RouteCost Topology::route_cost(int node_a, int node_b, Bytes size) const {
    SERVET_CHECK_MSG(!spec_.tiers.empty(), "topology latency needs tier parameters");
    const std::vector<RouteHop> hops = route(node_a, node_b);
    RouteCost cost;
    cost.cls.hops = static_cast<int>(hops.size());
    for (const RouteHop& hop : hops) {
        cost.cls.tier = std::max(cost.cls.tier, hop.tier);
        const TopologyTier& t = tier(hop.tier);
        cost.latency += t.hop_latency + static_cast<double>(size) / t.bandwidth;
    }
    return cost;
}

const TopologyTier& Topology::tier(int index) const {
    SERVET_CHECK(index >= 0 && index < static_cast<int>(spec_.tiers.size()));
    return spec_.tiers[static_cast<std::size_t>(index)];
}

std::vector<CorePair> cluster_probe_pairs(const TopologySpec& topology, int cores_per_node,
                                          int per_class) {
    SERVET_CHECK(topology.enabled());
    SERVET_CHECK(cores_per_node >= 1 && per_class >= 1);
    std::vector<CorePair> result;
    for (CoreId a = 0; a < cores_per_node; ++a)
        for (CoreId b = a + 1; b < cores_per_node; ++b) result.push_back({a, b});

    const Topology topo(topology);
    const int nodes = topo.node_count();
    std::map<RouteClass, std::vector<std::pair<int, int>>> classes;
    for (int i = 0; i < nodes; ++i)
        for (int j = i + 1; j < nodes; ++j) classes[topo.route_class(i, j)].push_back({i, j});

    for (const auto& [cls, node_pairs] : classes) {
        // Node-disjoint representatives so the concurrency probe can put
        // several simultaneous messages on this class's links.
        std::set<int> used;
        int taken = 0;
        for (const auto& [i, j] : node_pairs) {
            if (used.contains(i) || used.contains(j)) continue;
            used.insert(i);
            used.insert(j);
            result.push_back({i * cores_per_node, j * cores_per_node});
            if (++taken >= per_class) break;
        }
    }
    return result;
}

}  // namespace servet::sim
