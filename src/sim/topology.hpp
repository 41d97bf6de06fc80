// Cluster topology model: the network that connects a machine's nodes.
// Three parametric families (fat-tree, 2D/3D torus, dragonfly) plus an
// explicit custom tree, each with per-tier link parameters and fully
// deterministic routing. The modeled point-to-point latency of a route is
// *exactly* the sum of its per-hop tier terms — the decomposition
// invariant the topology-oracle property test pins — and routing always
// takes a shortest-hop path (checked against a brute-force BFS oracle).
#pragma once

#include <string>
#include <vector>

#include "base/types.hpp"

namespace servet::sim {

enum class TopologyKind { None, FatTree, Torus, Dragonfly, Custom };

[[nodiscard]] const char* topology_kind_name(TopologyKind kind);

/// Inverse of topology_kind_name; false when `text` names no kind.
[[nodiscard]] bool topology_kind_parse(const std::string& text, TopologyKind* kind);

/// One link tier (edge class) of the topology: every hop over a tier-k
/// link costs hop_latency + size / bandwidth, and k concurrent messages
/// crossing the tier slow each other down by N^congestion_exponent.
struct TopologyTier {
    std::string name;
    Seconds hop_latency = 1e-6;
    BytesPerSecond bandwidth = 1.0e9;
    double congestion_exponent = 0.0;
};

/// One undirected link in the unified vertex space: nodes first
/// ([0, node_count)), then switches ([node_count, vertex_count)).
struct TopologyLink {
    int a = 0;
    int b = 0;
    int tier = 0;

    friend bool operator==(const TopologyLink&, const TopologyLink&) = default;
};

/// One hop of a route, in traversal order.
struct RouteHop {
    int from = 0;
    int to = 0;
    int tier = 0;

    friend bool operator==(const RouteHop&, const RouteHop&) = default;
};

/// Declarative topology description. Only the fields of the selected kind
/// are meaningful:
///  - FatTree: `arity` (power of two) children per switch, `levels` switch
///    levels; arity^levels nodes. Tier l-1 is the edge class between
///    level l-1 and level l (tier 0 = node-to-edge-switch links).
///    Requires `levels` tiers.
///  - Torus: `dims` (2 or 3 entries) with wraparound links in every
///    dimension; dimension-ordered minimal routing (ties go the positive
///    direction). All links are tier 0; requires 1 tier.
///  - Dragonfly: `groups` groups of `routers` routers with `nodes_per_router`
///    nodes each; routers within a group are all-to-all, and router k of
///    any two groups are connected directly. Tiers: 0 = injection
///    (node-router), 1 = intra-group, 2 = global. Requires 3 tiers.
///  - Custom: explicit `links` forming a tree over `switch_count` switches
///    and the nodes; requires max link tier + 1 tiers.
struct TopologySpec {
    TopologyKind kind = TopologyKind::None;
    int arity = 2;
    int levels = 1;
    std::vector<int> dims;
    int groups = 2;
    int routers = 2;
    int nodes_per_router = 1;
    std::vector<TopologyLink> links;
    int switch_count = 0;
    int custom_nodes = 0;
    std::vector<TopologyTier> tiers;

    [[nodiscard]] bool enabled() const { return kind != TopologyKind::None; }
    [[nodiscard]] int node_count() const;
    [[nodiscard]] int required_tiers() const;
    /// Structural problems (ignores tiers when empty, so a routing-only
    /// spec — e.g. one rebuilt from a profile — validates too).
    [[nodiscard]] std::vector<std::string> validate() const;
};

/// Equivalence class of a node pair's route: hop count plus bottleneck
/// (highest-index) tier. Pairs of one class have identical modeled
/// latency, so the comm-costs phase probes a few representatives per
/// class instead of every pair.
struct RouteClass {
    int hops = 0;
    int tier = 0;

    friend bool operator==(const RouteClass&, const RouteClass&) = default;
    friend auto operator<=>(const RouteClass&, const RouteClass&) = default;
};

/// What one walk of a pair's route yields: its class and the one-way
/// latency of a message of the walked size.
struct RouteCost {
    RouteClass cls;
    Seconds latency = 0;
};

/// Deterministic routing and latency over a validated TopologySpec.
class Topology {
  public:
    /// `spec` must validate (checked).
    explicit Topology(TopologySpec spec);

    [[nodiscard]] const TopologySpec& spec() const { return spec_; }
    [[nodiscard]] int node_count() const { return spec_.node_count(); }
    /// Nodes plus switches: the vertex space of links() and route hops.
    [[nodiscard]] int vertex_count() const;

    /// Every undirected link once; the graph the BFS oracle runs on.
    [[nodiscard]] std::vector<TopologyLink> links() const;

    /// Shortest-hop route between two distinct nodes. Deterministic: the
    /// same pair always routes identically.
    [[nodiscard]] std::vector<RouteHop> route(int node_a, int node_b) const;

    [[nodiscard]] RouteClass route_class(int node_a, int node_b) const;

    /// One-way latency of a `size`-byte message: exactly
    /// sum over route hops of (tier.hop_latency + size / tier.bandwidth),
    /// accumulated in route order. Requires the spec's tiers to be filled.
    [[nodiscard]] Seconds latency(int node_a, int node_b, Bytes size) const;

    /// route_class() and latency() from a single walk of the route; both
    /// fields are bit-identical to theirs.
    [[nodiscard]] RouteCost route_cost(int node_a, int node_b, Bytes size) const;

    [[nodiscard]] const TopologyTier& tier(int index) const;

  private:
    [[nodiscard]] std::vector<RouteHop> route_fat_tree(int a, int b) const;
    [[nodiscard]] std::vector<RouteHop> route_torus(int a, int b) const;
    [[nodiscard]] std::vector<RouteHop> route_dragonfly(int a, int b) const;
    [[nodiscard]] std::vector<RouteHop> route_custom(int a, int b) const;

    TopologySpec spec_;
    std::vector<std::vector<std::pair<int, int>>> custom_adjacency_;  // (peer, tier)
};

/// Representative core pairs for the comm-costs phase of a cluster: every
/// intra-node pair of node 0, plus up to `per_class` node-disjoint pairs
/// per inter-node route class (using core 0 of each node). Every route
/// class that exists in the topology is covered, so latency clustering
/// sees each distinct modeled latency without probing all O(n^2) pairs.
[[nodiscard]] std::vector<CorePair> cluster_probe_pairs(const TopologySpec& topology,
                                                        int cores_per_node, int per_class);

}  // namespace servet::sim
