#include "sim/interconnect.hpp"

#include <cmath>

#include "base/check.hpp"

namespace servet::sim {

InterconnectModel::InterconnectModel(const MachineSpec& spec) : spec_(&spec) {
    SERVET_CHECK_MSG(!spec.comm_layers.empty() || spec.n_cores == 1 ||
                         (spec.topology.enabled() && spec.cores_per_node == 1),
                     "interconnect model needs comm layers");
    if (spec.topology.enabled()) topology_.emplace(spec.topology);
}

bool InterconnectModel::routed(CorePair pair) const {
    return topology_ && spec_->node_of(pair.a) != spec_->node_of(pair.b);
}

const CommLayerSpec& InterconnectModel::layer(int index) const {
    SERVET_CHECK(index >= 0 && index < static_cast<int>(spec_->comm_layers.size()));
    return spec_->comm_layers[static_cast<std::size_t>(index)];
}

PairCost InterconnectModel::cost(CorePair pair, Bytes size) const {
    PairCost cost;
    if (routed(pair)) {
        const RouteCost route =
            topology_->route_cost(spec_->node_of(pair.a), spec_->node_of(pair.b), size);
        cost.layer = static_cast<int>(spec_->comm_layers.size()) + route.cls.tier;
        cost.latency = route.latency;
        cost.exponent = topology_->tier(route.cls.tier).congestion_exponent;
        return cost;
    }
    cost.layer = spec_->comm_layer_of(pair);
    const CommLayerSpec& l = layer(cost.layer);
    cost.latency = l.base_latency + static_cast<double>(size) / l.bandwidth;
    if (size > l.eager_threshold) cost.latency += l.rendezvous_extra;
    cost.exponent = l.concurrency_exponent;
    return cost;
}

Seconds PairCost::concurrent(int n) const {
    SERVET_CHECK(n >= 1);
    return latency * std::pow(static_cast<double>(n), exponent);
}

}  // namespace servet::sim
