// Interconnect model: per-layer, protocol-aware message latency with a
// concurrency penalty. Covers the three layers the paper characterizes —
// intra-processor shared memory, inter-processor shared memory, and the
// cluster network — including the eager/rendezvous protocol switch that
// makes LogP/Hockney-style single-line models inaccurate (Section III-D)
// and the sub-linear scalability of Fig. 10b. On a machine with a cluster
// topology (MachineSpec::topology), inter-node pairs route over the
// topology instead: their latency is the per-hop tier sum and their layer
// index is comm_layers.size() + the route's bottleneck tier.
#pragma once

#include <optional>
#include <vector>

#include "base/types.hpp"
#include "sim/machine.hpp"
#include "sim/topology.hpp"

namespace servet::sim {

/// What a pair's messages of one size cost, resolved once: the layer that
/// carries them, the isolated one-way latency and the layer's congestion
/// exponent.
struct PairCost {
    int layer = 0;
    Seconds latency = 0;
    double exponent = 0.0;

    /// One-way latency when `n` messages (including this one) traverse
    /// the same layer simultaneously: latency * n^exponent.
    [[nodiscard]] Seconds concurrent(int n) const;
};

class InterconnectModel {
  public:
    explicit InterconnectModel(const MachineSpec& spec);

    /// Intra-node layer spec; `index` must be below comm_layers.size().
    [[nodiscard]] const CommLayerSpec& layer(int index) const;
    [[nodiscard]] int layer_count() const {
        return static_cast<int>(spec_->comm_layers.size() + spec_->topology.tiers.size());
    }

    /// The pair's cost at `size`; a routed pair's route is walked once.
    /// Topology tiers follow the comm layers in the layer index:
    /// [0, comm_layers.size()) are intra-node layers, the rest are
    /// bottleneck tiers.
    [[nodiscard]] PairCost cost(CorePair pair, Bytes size) const;

    /// One-way latency for an isolated message of `size` bytes.
    [[nodiscard]] Seconds latency(CorePair pair, Bytes size) const {
        return cost(pair, size).latency;
    }

    [[nodiscard]] const MachineSpec& spec() const { return *spec_; }

    /// The cluster topology, when the machine has one.
    [[nodiscard]] const Topology* topology() const {
        return topology_ ? &*topology_ : nullptr;
    }

  private:
    /// Inter-node pair on a topology machine? (The topology route path.)
    [[nodiscard]] bool routed(CorePair pair) const;

    const MachineSpec* spec_;
    std::optional<Topology> topology_;
};

}  // namespace servet::sim
