#include "sim/machine.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "base/hash.hpp"
#include "base/units.hpp"

namespace servet::sim {

int MachineSpec::instance_of(int level, CoreId core) const {
    SERVET_CHECK(level >= 0 && level < static_cast<int>(levels.size()));
    const auto& instances = levels[static_cast<std::size_t>(level)].instances;
    for (std::size_t i = 0; i < instances.size(); ++i) {
        if (std::find(instances[i].begin(), instances[i].end(), core) != instances[i].end())
            return static_cast<int>(i);
    }
    return -1;
}

bool MachineSpec::share_level(int level, CoreId a, CoreId b) const {
    const int ia = instance_of(level, a);
    return ia >= 0 && ia == instance_of(level, b);
}

int MachineSpec::comm_layer_of(CorePair pair) const {
    SERVET_CHECK_MSG(pair.a != pair.b, "comm layer of a core with itself is undefined");
    const bool same_node = node_of(pair.a) == node_of(pair.b);
    if (topology.enabled() && !same_node) {
        const Topology topo(topology);
        return static_cast<int>(comm_layers.size()) +
               topo.route_class(node_of(pair.a), node_of(pair.b)).tier;
    }
    for (std::size_t i = 0; i < comm_layers.size(); ++i) {
        const CommScope& scope = comm_layers[i].scope;
        switch (scope.kind) {
            case CommScope::Kind::SharedCacheLevel:
                if (same_node && share_level(scope.level, pair.a, pair.b))
                    return static_cast<int>(i);
                break;
            case CommScope::Kind::IntraNode:
                if (same_node) return static_cast<int>(i);
                break;
            case CommScope::Kind::InterNode:
                if (!same_node) return static_cast<int>(i);
                break;
        }
    }
    SERVET_CHECK_MSG(false, "no comm layer matches the pair; spec lacks a catch-all");
    return -1;
}

std::uint64_t MachineSpec::page_colors() const {
    std::uint64_t colors = 1;
    for (const CacheLevelSpec& level : levels) {
        if (!level.geometry.physically_indexed) continue;
        colors = std::max(colors, level.geometry.page_set_count(page_size));
    }
    return colors;
}

std::uint64_t MachineSpec::fingerprint_with_seed(std::uint64_t run_seed) const {
    Fingerprint fp;
    fp.add(name);
    fp.add(n_cores);
    fp.add(cores_per_node);
    fp.add(clock_ghz);
    fp.add(page_size);
    fp.add(static_cast<int>(page_policy));
    fp.add(prefetcher.enabled);
    fp.add(prefetcher.max_stride);
    fp.add(prefetcher.trigger_streak);
    fp.add(prefetcher.degree);
    fp.add(tlb.enabled);
    fp.add(tlb.entries);
    fp.add(tlb.miss_cycles);
    for (const CacheLevelSpec& level : levels) {
        fp.add(level.name);
        fp.add(level.geometry.size);
        fp.add(level.geometry.line_size);
        fp.add(level.geometry.associativity);
        fp.add(level.geometry.physically_indexed);
        fp.add(level.hit_cycles);
        for (const auto& instance : level.instances) {
            fp.add(static_cast<std::uint64_t>(instance.size()));
            for (const CoreId c : instance) fp.add(c);
        }
    }
    fp.add(memory.latency_cycles);
    fp.add(memory.single_core_bandwidth);
    for (const ContentionDomainSpec& domain : memory.domains) {
        fp.add(domain.name);
        for (const CoreId c : domain.members) fp.add(c);
        fp.add(domain.aggregate_bandwidth_factor);
        fp.add(domain.latency_factor_per_extra);
    }
    for (const CommLayerSpec& layer : comm_layers) {
        fp.add(layer.name);
        fp.add(static_cast<int>(layer.scope.kind));
        fp.add(layer.scope.level);
        fp.add(layer.base_latency);
        fp.add(layer.bandwidth);
        fp.add(layer.eager_threshold);
        fp.add(layer.rendezvous_extra);
        fp.add(layer.concurrency_exponent);
    }
    if (topology.enabled()) {
        fp.add(static_cast<int>(topology.kind));
        fp.add(topology.arity);
        fp.add(topology.levels);
        for (const int d : topology.dims) fp.add(d);
        fp.add(topology.groups);
        fp.add(topology.routers);
        fp.add(topology.nodes_per_router);
        fp.add(topology.switch_count);
        fp.add(topology.custom_nodes);
        for (const TopologyLink& link : topology.links) {
            fp.add(link.a);
            fp.add(link.b);
            fp.add(link.tier);
        }
        for (const TopologyTier& tier : topology.tiers) {
            fp.add(tier.name);
            fp.add(tier.hop_latency);
            fp.add(tier.bandwidth);
            fp.add(tier.congestion_exponent);
        }
    }
    fp.add(measurement_jitter);
    fp.add(run_seed);
    return fp.value();
}

std::vector<std::string> MachineSpec::validate() const {
    std::vector<std::string> problems;
    const auto complain = [&](std::string text) { problems.push_back(std::move(text)); };

    if (n_cores < 1) complain("n_cores must be >= 1");
    if (cores_per_node < 1 || n_cores % cores_per_node != 0)
        complain("cores_per_node must divide n_cores");
    if (clock_ghz <= 0) complain("clock_ghz must be positive");
    if (page_size < 512 || (page_size & (page_size - 1)) != 0)
        complain("page_size must be a power of two >= 512");

    Bytes previous_size = 0;
    for (std::size_t li = 0; li < levels.size(); ++li) {
        const CacheLevelSpec& level = levels[li];
        if (!level.geometry.valid())
            complain(level.name + ": invalid geometry (" + format_bytes(level.geometry.size) + ")");
        if (level.geometry.size <= previous_size)
            complain(level.name + ": cache levels must strictly grow");
        previous_size = level.geometry.size;
        if (level.hit_cycles <= 0) complain(level.name + ": hit_cycles must be positive");

        // Instances must partition [0, n_cores).
        std::vector<int> seen(static_cast<std::size_t>(std::max(n_cores, 1)), 0);
        for (const auto& instance : level.instances) {
            if (instance.empty()) complain(level.name + ": empty cache instance");
            for (CoreId c : instance) {
                if (c < 0 || c >= n_cores) {
                    complain(level.name + ": core id out of range");
                } else {
                    ++seen[static_cast<std::size_t>(c)];
                }
            }
        }
        for (int c = 0; c < n_cores; ++c) {
            if (seen[static_cast<std::size_t>(c)] != 1)
                complain(level.name + ": core " + std::to_string(c) +
                         " must appear in exactly one instance");
        }
        // Only consult page_set_count on a geometry that passed valid():
        // it CHECK-aborts on degenerate shapes, and validate() must
        // complain, not abort.
        if (level.geometry.physically_indexed && level.geometry.valid() &&
            level.geometry.page_set_count(page_size) == 0)
            complain(level.name + ": fewer than one page set; page size too large");
    }
    if (!levels.empty() && levels.front().geometry.physically_indexed)
        complain("L1 is expected to be virtually indexed (Section III-A)");

    if (memory.latency_cycles <= 0) complain("memory latency must be positive");
    if (memory.single_core_bandwidth <= 0) complain("memory bandwidth must be positive");
    for (const ContentionDomainSpec& domain : memory.domains) {
        if (domain.members.empty()) complain("contention domain '" + domain.name + "' is empty");
        if (domain.aggregate_bandwidth_factor <= 0)
            complain("contention domain '" + domain.name + "' needs positive bandwidth factor");
        for (CoreId c : domain.members) {
            if (c < 0 || c >= n_cores)
                complain("contention domain '" + domain.name + "': core id out of range");
        }
    }

    if (n_cores > 1) {
        if (comm_layers.empty() && !(topology.enabled() && cores_per_node == 1)) {
            complain("multicore machine needs at least one comm layer");
        } else {
            const bool multi_node = node_count() > 1;
            bool has_intra_catchall = false;
            bool has_inter = false;
            for (const CommLayerSpec& layer : comm_layers) {
                if (layer.scope.kind == CommScope::Kind::IntraNode) has_intra_catchall = true;
                if (layer.scope.kind == CommScope::Kind::InterNode) has_inter = true;
                if (layer.scope.kind == CommScope::Kind::SharedCacheLevel &&
                    (layer.scope.level < 0 ||
                     layer.scope.level >= static_cast<int>(levels.size())))
                    complain("comm layer '" + layer.name + "': bad cache level");
                if (layer.bandwidth <= 0 || layer.base_latency < 0)
                    complain("comm layer '" + layer.name + "': bad latency/bandwidth");
            }
            if (cores_per_node > 1 && !has_intra_catchall)
                complain("missing IntraNode catch-all comm layer");
            if (topology.enabled()) {
                // The topology replaces the flat InterNode layer; the two
                // classifications must not compete for inter-node pairs.
                if (has_inter)
                    complain("topology-connected machine must not declare an InterNode layer");
            } else if (multi_node && !has_inter) {
                complain("multi-node machine missing InterNode layer");
            }
        }
    }
    if (topology.enabled()) {
        for (const std::string& problem : topology.validate())
            complain("topology: " + problem);
        if (topology.tiers.empty())
            complain("topology: tier parameters are required on a machine");
        if (topology.node_count() != node_count())
            complain("topology connects " + std::to_string(topology.node_count()) +
                     " nodes but the machine has " + std::to_string(node_count()));
    }
    if (measurement_jitter < 0 || measurement_jitter >= 0.5)
        complain("measurement_jitter must be in [0, 0.5)");
    if (tlb.enabled && (tlb.entries <= 0 || tlb.miss_cycles <= 0))
        complain("enabled TLB needs positive entries and miss cycles");
    return problems;
}

}  // namespace servet::sim
