#include "sim/interconnect.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "msg/sim_network.hpp"
#include "obs/metrics.hpp"
#include "platform/platform_file.hpp"
#include "sim/zoo.hpp"

namespace servet::sim {
namespace {

/// A custom-topology cluster: 4 dual-core nodes under two leaf switches
/// joined by one trunk link.
MachineSpec custom_cluster() {
    PlatformError error;
    const auto spec = parse_platform(
        "servet-platform 1\n"
        "name = custom4\n"
        "cores_per_node = 2\n"
        "[topology]\n"
        "kind = custom\n"
        "nodes = 4\n"
        "switches = 2\n"
        "links = 0-4:0;1-4:0;2-5:0;3-5:0;4-5:1\n"
        "[tier 0]\n"
        "name = leaf\n"
        "hop_latency = 1.5e-6\n"
        "bandwidth = 1.1e9\n"
        "congestion = 0.3\n"
        "[tier 1]\n"
        "name = trunk\n"
        "hop_latency = 4.5e-6\n"
        "bandwidth = 0.7e9\n"
        "congestion = 0.5\n",
        &error);
    EXPECT_TRUE(spec) << error.code << ": " << error.message;
    return spec.value();
}

/// The cluster machines whose probes the exactness tests replay.
std::vector<MachineSpec> cluster_machines() {
    return {zoo::fat_tree_small(), zoo::torus4x4(), zoo::fat_tree_cluster(3),
            zoo::dragonfly_cluster(3, 2, 2, 2), custom_cluster()};
}

/// A pair's cost computed without InterconnectModel::cost: a routed pair
/// from route_class() and Topology::latency() (two walks), any other pair
/// from its comm layer's spec.
PairCost reference_cost(const MachineSpec& spec, CorePair pair, Bytes size) {
    const int node_a = spec.node_of(pair.a);
    const int node_b = spec.node_of(pair.b);
    if (spec.topology.enabled() && node_a != node_b) {
        const Topology topology(spec.topology);
        const RouteClass cls = topology.route_class(node_a, node_b);
        return {static_cast<int>(spec.comm_layers.size()) + cls.tier,
                topology.latency(node_a, node_b, size),
                topology.tier(cls.tier).congestion_exponent};
    }
    const int layer = spec.comm_layer_of(pair);
    const CommLayerSpec& l = spec.comm_layers[static_cast<std::size_t>(layer)];
    Seconds t = l.base_latency + static_cast<double>(size) / l.bandwidth;
    if (size > l.eager_threshold) t += l.rendezvous_extra;
    return {layer, t, l.concurrency_exponent};
}

/// Windows of 1..8 pairs over `pairs`: its head, its tail, and an even
/// spread, so intra-node, same-class and mixed-layer sets all occur.
std::vector<std::vector<CorePair>> concurrent_sets(const std::vector<CorePair>& pairs) {
    std::vector<std::vector<CorePair>> sets;
    const std::size_t n = pairs.size();
    for (std::size_t k = 1; k <= 8 && k <= n; ++k) {
        sets.emplace_back(pairs.begin(), pairs.begin() + static_cast<std::ptrdiff_t>(k));
        sets.emplace_back(pairs.end() - static_cast<std::ptrdiff_t>(k), pairs.end());
        std::vector<CorePair> spread;
        for (std::size_t i = 0; i < k; ++i) spread.push_back(pairs[i * n / k]);
        sets.push_back(std::move(spread));
    }
    return sets;
}

/// msg.* counter values, layer counters included.
std::vector<std::uint64_t> msg_counters(int layers) {
    const auto value = [](const std::string& name) {
        return obs::counter(name, obs::Stability::Stable).value();
    };
    std::vector<std::uint64_t> values = {value("msg.messages"), value("msg.bytes")};
    for (int k = 0; k < layers; ++k)
        values.push_back(value("msg.layer" + std::to_string(k) + ".transfers"));
    return values;
}

TEST(Interconnect, LatencyIsBasePlusTransfer) {
    const MachineSpec spec = zoo::dunnington();
    InterconnectModel model(spec);
    const Bytes size = 4 * KiB;  // below eager threshold
    const CommLayerSpec& layer = model.layer(model.cost({0, 12}, size).layer);
    EXPECT_DOUBLE_EQ(model.latency({0, 12}, size),
                     layer.base_latency + static_cast<double>(size) / layer.bandwidth);
}

TEST(Interconnect, RendezvousKicksInAboveEagerThreshold) {
    const MachineSpec spec = zoo::finis_terrae(2);
    InterconnectModel model(spec);
    const CommLayerSpec& ib = model.layer(model.cost({0, 16}, KiB).layer);
    const Seconds below = model.latency({0, 16}, ib.eager_threshold);
    const Seconds above = model.latency({0, 16}, ib.eager_threshold + 1);
    // The one extra byte also costs 1/bandwidth; allow for it.
    EXPECT_NEAR(above - below, ib.rendezvous_extra, 1.0 / ib.bandwidth + 1e-12);
}

TEST(Interconnect, LatencyMonotoneInSize) {
    const MachineSpec spec = zoo::dunnington();
    InterconnectModel model(spec);
    Seconds previous = 0;
    for (Bytes size = 1 * KiB; size <= 4 * MiB; size *= 2) {
        const Seconds t = model.latency({0, 3}, size);
        EXPECT_GT(t, previous);
        previous = t;
    }
}

TEST(Interconnect, LayerOrderingMatchesHierarchy) {
    // Shared-L2 < intra-processor < inter-processor at any size.
    const MachineSpec spec = zoo::dunnington();
    InterconnectModel model(spec);
    for (Bytes size : {1 * KiB, 32 * KiB, 1 * MiB}) {
        EXPECT_LT(model.latency({0, 12}, size), model.latency({0, 1}, size));
        EXPECT_LT(model.latency({0, 1}, size), model.latency({0, 3}, size));
    }
}

TEST(Interconnect, ConcurrencyPenaltyIsPowerLaw) {
    const MachineSpec spec = zoo::finis_terrae(2);
    InterconnectModel model(spec);
    const CommLayerSpec& ib = model.layer(model.cost({0, 16}, KiB).layer);
    const Seconds isolated = model.latency({0, 16}, 16 * KiB);
    for (int n : {1, 2, 8, 32}) {
        EXPECT_NEAR(model.cost({0, 16}, 16 * KiB).concurrent(n),
                    isolated * std::pow(n, ib.concurrency_exponent), 1e-12);
    }
}

TEST(Interconnect, PaperSevenTimesAt32Messages) {
    // Section IV-D: "a message sent through the InfiniBand network ...
    // when there are other 31 messages is 7 times slower".
    const MachineSpec spec = zoo::finis_terrae(4);
    InterconnectModel model(spec);
    const Seconds isolated = model.latency({0, 16}, 16 * KiB);
    const Seconds crowded = model.cost({0, 16}, 16 * KiB).concurrent(32);
    EXPECT_NEAR(crowded / isolated, 7.0, 0.3);
}

TEST(Interconnect, IntraNodeTwiceAsFastAsInterNode) {
    // Section IV-D: FT intra-node ~2x faster than inter-node at the L1
    // (16KB) probe size.
    const MachineSpec spec = zoo::finis_terrae(2);
    InterconnectModel model(spec);
    const double ratio = model.latency({0, 16}, 16 * KiB) / model.latency({0, 1}, 16 * KiB);
    EXPECT_NEAR(ratio, 2.0, 0.25);
}

TEST(InterconnectDeath, BadConcurrency) {
    const MachineSpec spec = zoo::dunnington();
    InterconnectModel model(spec);
    EXPECT_DEATH((void)model.cost({0, 1}, KiB).concurrent(0), "");
}

TEST(PairCost, OneWalkEqualsRouteClassPlusTopologyLatency) {
    for (const MachineSpec& spec : {zoo::fat_tree_small(), zoo::torus4x4(),
                                    zoo::dragonfly_cluster(3, 2, 2, 2), custom_cluster()}) {
        const Topology topology(spec.topology);
        const InterconnectModel model(spec);
        const int nodes = topology.node_count();
        for (int a = 0; a < nodes; ++a)
            for (int b = 0; b < nodes; ++b) {
                if (a == b) continue;
                for (const Bytes size : {Bytes{0}, Bytes{1000}, 16 * KiB, Bytes{777777}}) {
                    const RouteCost walked = topology.route_cost(a, b, size);
                    ASSERT_EQ(walked.cls, topology.route_class(a, b)) << spec.name;
                    ASSERT_EQ(walked.latency, topology.latency(a, b, size)) << spec.name;

                    const CorePair pair{a * spec.cores_per_node, b * spec.cores_per_node};
                    const PairCost cost = model.cost(pair, size);
                    const PairCost expected = reference_cost(spec, pair, size);
                    ASSERT_EQ(cost.layer, expected.layer) << spec.name;
                    ASSERT_EQ(cost.latency, expected.latency) << spec.name;
                    ASSERT_EQ(cost.exponent, expected.exponent) << spec.name;
                }
            }
    }
}

TEST(PairCost, ProbesEqualThePerRepetitionLoopBitForBit) {
    // The reference applies the concurrency penalty inside the repetition
    // loop, from parts computed without InterconnectModel::cost. On a
    // same-seeded Rng the network must match it bit for bit, with the
    // same msg.* counts.
    constexpr int kReps = 20;
    for (const MachineSpec& spec : cluster_machines()) {
        const Bytes size = 16 * KiB;
        msg::SimNetwork network(spec);
        Rng noise(spec.seed ^ 0xc0337ULL);  // SimNetwork's own noise stream
        const double amplitude = spec.measurement_jitter;
        const int layers = network.model().layer_count();
        const std::vector<CorePair> pairs =
            cluster_probe_pairs(spec.topology, spec.cores_per_node, 4);
        ASSERT_FALSE(pairs.empty());

        std::vector<std::uint64_t> expected_counts = msg_counters(layers);
        const auto count = [&](const PairCost& cost) {
            expected_counts[0] += 2 * kReps;
            expected_counts[1] += 2 * kReps * size;
            expected_counts[static_cast<std::size_t>(2 + cost.layer)] += 2 * kReps;
        };

        for (const CorePair& pair : pairs) {
            const PairCost cost = reference_cost(spec, pair, size);
            count(cost);
            Seconds total = 0;
            for (int r = 0; r < kReps; ++r) total += cost.latency * noise.jitter(amplitude);
            ASSERT_EQ(network.pingpong_latency(pair, size, kReps), total / kReps)
                << spec.name << " pair " << pair.a << "-" << pair.b;
        }

        for (const std::vector<CorePair>& active : concurrent_sets(pairs)) {
            std::vector<int> on_layer(static_cast<std::size_t>(layers), 0);
            for (const CorePair& pair : active) {
                const PairCost cost = reference_cost(spec, pair, size);
                count(cost);
                ++on_layer[static_cast<std::size_t>(cost.layer)];
            }
            std::vector<Seconds> expected;
            for (const CorePair& pair : active) {
                const PairCost cost = reference_cost(spec, pair, size);
                const int k = on_layer[static_cast<std::size_t>(cost.layer)];
                Seconds total = 0;
                for (int r = 0; r < kReps; ++r)
                    total += cost.latency * std::pow(static_cast<double>(k), cost.exponent) *
                             noise.jitter(amplitude);
                expected.push_back(total / kReps);
            }
            ASSERT_EQ(network.concurrent_latency(active, size, kReps), expected)
                << spec.name << " with " << active.size() << " senders";
        }
        EXPECT_EQ(msg_counters(layers), expected_counts) << spec.name;
    }
}

}  // namespace
}  // namespace servet::sim
