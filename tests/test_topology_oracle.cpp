// Property tests pinning sim::Topology against brute force: for randomized
// seeded specs of every family, routing must take a shortest-hop path
// (checked against a BFS oracle over Topology::links()), routes must be
// contiguous chains of real links, and the modeled latency must equal the
// per-hop tier decomposition *exactly* — the invariant that makes the
// sampled cluster probing (one measurement per route class) sound.
#include "sim/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <random>
#include <set>

#include "base/types.hpp"

namespace servet::sim {
namespace {

std::vector<TopologyTier> random_tiers(int count, std::mt19937_64& rng) {
    std::uniform_real_distribution<double> latency(1.0e-6, 1.0e-5);
    std::uniform_real_distribution<double> bandwidth(1.0e8, 2.0e9);
    std::vector<TopologyTier> tiers;
    for (int t = 0; t < count; ++t)
        tiers.push_back({"tier" + std::to_string(t), latency(rng), bandwidth(rng),
                         0.1 * static_cast<double>(t)});
    return tiers;
}

TopologySpec random_fat_tree(std::mt19937_64& rng) {
    TopologySpec spec;
    spec.kind = TopologyKind::FatTree;
    spec.arity = 1 << std::uniform_int_distribution<int>(1, 3)(rng);
    spec.levels = std::uniform_int_distribution<int>(1, 3)(rng);
    spec.tiers = random_tiers(spec.levels, rng);
    return spec;
}

TopologySpec random_torus(std::mt19937_64& rng) {
    TopologySpec spec;
    spec.kind = TopologyKind::Torus;
    const int rank = std::uniform_int_distribution<int>(2, 3)(rng);
    for (int d = 0; d < rank; ++d)
        spec.dims.push_back(std::uniform_int_distribution<int>(2, 5)(rng));
    spec.tiers = random_tiers(1, rng);
    return spec;
}

TopologySpec random_dragonfly(std::mt19937_64& rng) {
    TopologySpec spec;
    spec.kind = TopologyKind::Dragonfly;
    spec.groups = std::uniform_int_distribution<int>(2, 5)(rng);
    spec.routers = std::uniform_int_distribution<int>(2, 4)(rng);
    spec.nodes_per_router = std::uniform_int_distribution<int>(1, 3)(rng);
    spec.tiers = random_tiers(3, rng);
    return spec;
}

/// Random tree: switches chain off earlier switches, nodes hang off random
/// switches. Node-switch links are tier 0, switch-switch links tier 1.
TopologySpec random_custom(std::mt19937_64& rng) {
    TopologySpec spec;
    spec.kind = TopologyKind::Custom;
    spec.custom_nodes = std::uniform_int_distribution<int>(2, 8)(rng);
    spec.switch_count = std::uniform_int_distribution<int>(1, 4)(rng);
    int max_tier = 0;
    for (int s = 1; s < spec.switch_count; ++s) {
        const int parent = std::uniform_int_distribution<int>(0, s - 1)(rng);
        spec.links.push_back(
            {spec.custom_nodes + parent, spec.custom_nodes + s, 1});
        max_tier = 1;
    }
    for (int n = 0; n < spec.custom_nodes; ++n) {
        const int sw = std::uniform_int_distribution<int>(0, spec.switch_count - 1)(rng);
        spec.links.push_back({n, spec.custom_nodes + sw, 0});
    }
    spec.tiers = random_tiers(max_tier + 1, rng);
    return spec;
}

std::vector<TopologySpec> random_specs(std::uint64_t seed, int per_family) {
    std::mt19937_64 rng(seed);
    std::vector<TopologySpec> specs;
    for (int i = 0; i < per_family; ++i) {
        specs.push_back(random_fat_tree(rng));
        specs.push_back(random_torus(rng));
        specs.push_back(random_dragonfly(rng));
        specs.push_back(random_custom(rng));
    }
    return specs;
}

/// Shortest-hop distances from `start` over the links, the ground truth
/// routing is checked against.
std::vector<int> bfs_distances(const Topology& topology, int start) {
    std::vector<std::vector<int>> adjacency(
        static_cast<std::size_t>(topology.vertex_count()));
    for (const TopologyLink& link : topology.links()) {
        adjacency[static_cast<std::size_t>(link.a)].push_back(link.b);
        adjacency[static_cast<std::size_t>(link.b)].push_back(link.a);
    }
    std::vector<int> distance(adjacency.size(), -1);
    std::queue<int> frontier;
    distance[static_cast<std::size_t>(start)] = 0;
    frontier.push(start);
    while (!frontier.empty()) {
        const int v = frontier.front();
        frontier.pop();
        for (int peer : adjacency[static_cast<std::size_t>(v)]) {
            if (distance[static_cast<std::size_t>(peer)] >= 0) continue;
            distance[static_cast<std::size_t>(peer)] = distance[static_cast<std::size_t>(v)] + 1;
            frontier.push(peer);
        }
    }
    return distance;
}

/// Undirected link lookup: (min(a,b), max(a,b)) -> tier.
std::map<std::pair<int, int>, int> link_tiers(const Topology& topology) {
    std::map<std::pair<int, int>, int> tiers;
    for (const TopologyLink& link : topology.links())
        tiers[{std::min(link.a, link.b), std::max(link.a, link.b)}] = link.tier;
    return tiers;
}

TEST(TopologyOracle, RoutesAreShortestContiguousAndReal) {
    for (const TopologySpec& spec : random_specs(0x04ac1e, 6)) {
        ASSERT_TRUE(spec.validate().empty());
        const Topology topology(spec);
        const auto tiers = link_tiers(topology);
        const int n = topology.node_count();
        for (int a = 0; a < n; ++a) {
            const std::vector<int> distance = bfs_distances(topology, a);
            for (int b = 0; b < n; ++b) {
                if (a == b) continue;
                const std::vector<RouteHop> route = topology.route(a, b);
                // Shortest hop count, per the oracle.
                ASSERT_EQ(static_cast<int>(route.size()),
                          distance[static_cast<std::size_t>(b)])
                    << topology_kind_name(spec.kind) << " " << a << "->" << b;
                // Contiguous chain from a to b over real links of the
                // claimed tiers.
                ASSERT_EQ(route.front().from, a);
                ASSERT_EQ(route.back().to, b);
                for (std::size_t h = 0; h < route.size(); ++h) {
                    if (h > 0) {
                        ASSERT_EQ(route[h].from, route[h - 1].to);
                    }
                    const auto key = std::pair{std::min(route[h].from, route[h].to),
                                               std::max(route[h].from, route[h].to)};
                    const auto found = tiers.find(key);
                    ASSERT_NE(found, tiers.end());
                    ASSERT_EQ(found->second, route[h].tier);
                }
            }
        }
    }
}

TEST(TopologyOracle, RoutingIsDeterministic) {
    for (const TopologySpec& spec : random_specs(0xd37e51, 4)) {
        const Topology topology(spec);
        const int n = topology.node_count();
        for (int a = 0; a < n; ++a)
            for (int b = 0; b < n; ++b) {
                if (a == b) continue;
                ASSERT_EQ(topology.route(a, b), topology.route(a, b));
            }
    }
}

TEST(TopologyOracle, LatencyIsExactPerHopDecomposition) {
    for (const TopologySpec& spec : random_specs(0x1a73, 6)) {
        const Topology topology(spec);
        const int n = topology.node_count();
        for (int a = 0; a < n; ++a)
            for (int b = 0; b < n; ++b) {
                if (a == b) continue;
                for (const Bytes size : {Bytes{0}, 1 * KiB, 1 * MiB}) {
                    Seconds expected = 0;
                    for (const RouteHop& hop : topology.route(a, b)) {
                        const TopologyTier& tier = topology.tier(hop.tier);
                        expected += tier.hop_latency +
                                    static_cast<double>(size) / tier.bandwidth;
                    }
                    // Exact: same terms, same accumulation order.
                    ASSERT_EQ(topology.latency(a, b, size), expected);
                    ASSERT_EQ(topology.route_cost(a, b, size).latency, expected);
                }
            }
    }
}

TEST(TopologyOracle, RouteClassMatchesRoute) {
    for (const TopologySpec& spec : random_specs(0xc1a55, 4)) {
        const Topology topology(spec);
        const int n = topology.node_count();
        for (int a = 0; a < n; ++a)
            for (int b = 0; b < n; ++b) {
                if (a == b) continue;
                const std::vector<RouteHop> route = topology.route(a, b);
                int bottleneck = 0;
                for (const RouteHop& hop : route) bottleneck = std::max(bottleneck, hop.tier);
                const RouteClass cls = topology.route_class(a, b);
                ASSERT_EQ(cls.hops, static_cast<int>(route.size()));
                ASSERT_EQ(cls.tier, bottleneck);
                ASSERT_EQ(topology.route_cost(a, b, KiB).cls, cls);
            }
    }
}

TEST(TopologyOracle, PairsOfOneClassShareOneLatency) {
    for (const TopologySpec& spec : random_specs(0x5a3e, 4)) {
        const Topology topology(spec);
        const int n = topology.node_count();
        std::map<RouteClass, Seconds> latency_of_class;
        for (int a = 0; a < n; ++a)
            for (int b = a + 1; b < n; ++b) {
                const Seconds latency = topology.latency(a, b, 4 * KiB);
                const auto [it, inserted] =
                    latency_of_class.emplace(topology.route_class(a, b), latency);
                if (!inserted) {
                    ASSERT_DOUBLE_EQ(it->second, latency);
                }
            }
    }
}

TEST(TopologyOracle, ClusterProbePairsCoverEveryRouteClass) {
    for (const TopologySpec& spec : random_specs(0xc03e, 4)) {
        const Topology topology(spec);
        const int n = topology.node_count();
        for (const int cores_per_node : {1, 2}) {
            const std::vector<CorePair> pairs =
                cluster_probe_pairs(spec, cores_per_node, 3);
            std::set<RouteClass> probed;
            std::set<CorePair> intra_node;
            for (const CorePair& pair : pairs) {
                ASSERT_GE(pair.a, 0);
                ASSERT_LT(pair.b, n * cores_per_node);
                ASSERT_NE(pair.a, pair.b);
                const int node_a = pair.a / cores_per_node;
                const int node_b = pair.b / cores_per_node;
                if (node_a == node_b) {
                    intra_node.insert(pair);
                    continue;
                }
                probed.insert(topology.route_class(node_a, node_b));
            }
            std::set<RouteClass> all;
            for (int a = 0; a < n; ++a)
                for (int b = a + 1; b < n; ++b) all.insert(topology.route_class(a, b));
            ASSERT_EQ(probed, all);
            // Every intra-node pair of node 0 rides along when nodes are
            // multicore, so the profile sees the node-local layers too.
            const std::size_t node0_pairs =
                static_cast<std::size_t>(cores_per_node * (cores_per_node - 1) / 2);
            ASSERT_EQ(intra_node.size(), node0_pairs);
        }
    }
}

}  // namespace
}  // namespace servet::sim
