// Communication-cost determination (Fig. 7) and the characterization built
// on it (Section III-D): (1) probe every core pair with an L1-sized
// message and cluster similar latencies into communication layers; (2)
// micro-benchmark one representative pair per layer across message sizes
// (the paper stores these curves so autotuned codes can price any message
// without re-measuring); (3) measure each layer's scalability by timing N
// concurrent messages against an isolated one.
#pragma once

#include <utility>
#include <vector>

#include "base/types.hpp"
#include "core/measure.hpp"
#include "msg/network.hpp"

namespace servet::core {

struct CommCostsOptions {
    /// Probe message for layer detection. The paper uses the L1 size so
    /// shared-cache effects separate the layers; the suite passes the
    /// detected L1 size here.
    Bytes probe_message = 32 * KiB;
    int reps = 20;
    /// Relative tolerance for "l is similar to L[i]" layer clustering.
    double cluster_tolerance = 0.10;
    /// Message sizes for the per-layer point-to-point sweep (Fig. 10c/d);
    /// empty selects 1KB..4MB in powers of two.
    std::vector<Bytes> sweep_sizes;
    /// Cap on concurrent messages in the scalability probe.
    int max_concurrent = 32;
    /// Re-measures allowed per probe when the transport reports a
    /// transient loss (TransientNetworkError — a dropped message, a timed-
    /// out reply). Retries are part of the task body, so a retried probe
    /// stays deterministic per task key. Exhausting the budget rethrows.
    int max_retries = 2;
    /// Core pairs to probe in the layer scan; empty probes every pair.
    /// Cluster runs pass a sampled set (sim::cluster_probe_pairs) here —
    /// at 1k+ simulated ranks the O(n^2) full scan is the scaling wall.
    /// Pairs are canonicalized and deduplicated, so symmetric duplicates
    /// ((a,b) and (b,a)) cost one measurement.
    std::vector<CorePair> probe_pairs;
};

struct CommPairLatency {
    CorePair pair;
    Seconds latency = 0;

    [[nodiscard]] bool operator==(const CommPairLatency&) const = default;
};

struct CommLayer {
    Seconds latency = 0;                            ///< L[i]: cluster mean
    std::vector<CorePair> pairs;                    ///< Pl[i]
    CorePair representative;                        ///< micro-benchmarked pair
    std::vector<std::pair<Bytes, Seconds>> p2p;     ///< size -> one-way latency
    /// slowdown_by_n[k] = latency with k+1 concurrent messages / isolated
    /// latency, over disjoint pairs of this layer.
    std::vector<double> slowdown_by_n;

    [[nodiscard]] bool operator==(const CommLayer&) const = default;
};

struct CommCostsResult {
    Bytes probe_message = 0;
    std::vector<CommPairLatency> pairs;  ///< every probed pair at probe size
    std::vector<CommLayer> layers;       ///< fastest first

    /// Price a message: latency of `size` bytes between the pair, looked
    /// up from the stored per-layer curves (linear interpolation in size).
    /// This is the "analyze the cost of a communication beforehand" use
    /// the paper closes Section III-D with.
    [[nodiscard]] Seconds estimate_latency(CorePair pair, Bytes size) const;

    /// Layer index the pair was assigned to, or -1 if the pair was never
    /// probed (shouldn't happen for in-range cores).
    [[nodiscard]] int layer_of(CorePair pair) const;

    [[nodiscard]] bool operator==(const CommCostsResult&) const = default;
};

/// Maximal set of vertex-disjoint pairs drawn from `pairs`, greedily; the
/// concurrent senders for the scalability probe.
[[nodiscard]] std::vector<CorePair> disjoint_pairs(const std::vector<CorePair>& pairs);

/// Throws DetectError `detect.bad_sample` when a measured latency is not
/// positive and finite.
[[nodiscard]] CommCostsResult characterize_communication(MeasureEngine& engine,
                                                         const CommCostsOptions& options = {});

/// Convenience entry: serial, unmemoized engine over `network`.
[[nodiscard]] CommCostsResult characterize_communication(msg::Network& network,
                                                         const CommCostsOptions& options = {});

}  // namespace servet::core
