// Machine model: the ground-truth description of a simulated multicore
// cluster node (or small cluster). The Servet detection algorithms never
// read this — they see only measurements — but the simulator executes
// against it and the tests score detection output against it.
#pragma once

#include <string>
#include <vector>

#include "base/types.hpp"
#include "sim/cache.hpp"
#include "sim/page_mapper.hpp"
#include "sim/prefetcher.hpp"
#include "sim/topology.hpp"

namespace servet::sim {

/// One cache level: geometry, access cost, and which cores share which
/// physical instance. `instances` partitions all cores; e.g. Dunnington's
/// L2 level has 12 instances of 2 cores each.
struct CacheLevelSpec {
    std::string name;  ///< "L1", "L2", "L3"
    CacheGeometry geometry;
    Cycles hit_cycles = 1;
    std::vector<std::vector<CoreId>> instances;
};

/// A shared memory resource (front-side bus, cell/NUMA memory, socket
/// memory controller). Bandwidth is expressed relative to the single-core
/// streaming bandwidth so machine definitions stay readable.
struct ContentionDomainSpec {
    std::string name;
    std::vector<CoreId> members;
    /// Aggregate streaming bandwidth through this resource, as a multiple
    /// of MemorySpec::single_core_bandwidth. A value of 1.4 means two
    /// concurrent streamers each get 0.7x of their solo bandwidth.
    double aggregate_bandwidth_factor = 1.0;
    /// Fractional memory-latency increase per additional concurrent
    /// accessor in the domain (models queueing on the resource).
    double latency_factor_per_extra = 0.0;
};

struct MemorySpec {
    Cycles latency_cycles = 200;
    BytesPerSecond single_core_bandwidth = 4.0e9;
    std::vector<ContentionDomainSpec> domains;
};

/// Per-core data TLB. Disabled by default: the paper's benchmarks do not
/// model TLB effects, and the zoo machines match that. The TLB ablation
/// bench enables it to study how translation misses perturb the cache-size
/// sweep, and core/tlb_detect.hpp measures it.
struct TlbSpec {
    bool enabled = false;
    int entries = 64;          ///< fully associative, LRU
    Cycles miss_cycles = 30;   ///< page-walk penalty added to the access
};

/// How a communication layer decides whether a core pair belongs to it.
/// Layers are checked in declaration order; the first match wins, so list
/// them innermost-first (shared-L2, then same package, ..., inter-node).
struct CommScope {
    enum class Kind { SharedCacheLevel, IntraNode, InterNode };
    Kind kind = Kind::IntraNode;
    int level = 0;  ///< cache level index for SharedCacheLevel
};

/// One communication layer (e.g. intra-processor SHM, inter-node IB) with a
/// protocol-aware latency model:
///   t(size) = base_latency + [size > eager_threshold] * rendezvous_extra
///             + size / bandwidth
/// and a concurrency penalty slowdown(N) = N^concurrency_exponent applied
/// when N messages traverse the layer at once (the moderate scalability of
/// Fig. 10b; e.g. exponent 0.56 gives the paper's 7x at 32 messages).
struct CommLayerSpec {
    std::string name;
    CommScope scope;
    Seconds base_latency = 1e-6;
    BytesPerSecond bandwidth = 1.0e9;
    Bytes eager_threshold = 32 * KiB;
    Seconds rendezvous_extra = 0.0;
    double concurrency_exponent = 0.0;
};

struct MachineSpec {
    std::string name;
    int n_cores = 1;
    int cores_per_node = 1;
    double clock_ghz = 2.0;
    Bytes page_size = 4 * KiB;
    PagePolicy page_policy = PagePolicy::Random;
    PrefetcherSpec prefetcher;
    TlbSpec tlb;
    std::vector<CacheLevelSpec> levels;  ///< ordered L1 → last level
    MemorySpec memory;
    std::vector<CommLayerSpec> comm_layers;
    /// Cluster network connecting the nodes (TopologyKind::None for a
    /// single node). When enabled it replaces any InterNode comm layer:
    /// intra-node pairs still classify through comm_layers, inter-node
    /// pairs route over the topology and classify by bottleneck tier
    /// (layer index comm_layers.size() + tier).
    TopologySpec topology;
    /// Relative amplitude of deterministic measurement jitter injected by
    /// SimPlatform/SimNetwork (exercises the suite's clustering logic).
    double measurement_jitter = 0.0;
    std::uint64_t seed = 0x5e21e7;

    [[nodiscard]] int node_of(CoreId core) const { return core / cores_per_node; }
    [[nodiscard]] int node_count() const { return n_cores / cores_per_node; }

    /// Index of the cache instance serving `core` at `level`, or -1.
    [[nodiscard]] int instance_of(int level, CoreId core) const;

    /// True iff a and b are served by the same physical cache at `level`.
    [[nodiscard]] bool share_level(int level, CoreId a, CoreId b) const;

    /// Communication layer classification (first matching scope wins).
    /// Requires a != b and a valid catch-all layer.
    [[nodiscard]] int comm_layer_of(CorePair pair) const;

    /// Page colors of the largest physically indexed cache (used by the
    /// Coloring page policy); 1 when no cache is physically indexed.
    [[nodiscard]] std::uint64_t page_colors() const;

    /// Seconds per simulated cycle.
    [[nodiscard]] Seconds cycle_time() const { return 1e-9 / clock_ghz; }

    /// Stable structural hash over every field: two specs with equal
    /// fields agree, any change perturbs it. Content-addresses the
    /// measurement memo cache (exec::MemoCache) — a cached measurement is
    /// only valid for the exact machine it was taken on.
    [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_with_seed(seed); }

    /// fingerprint() of a copy of this spec whose seed is `run_seed`,
    /// without making the copy (a placement-salted replica's identity).
    [[nodiscard]] std::uint64_t fingerprint_with_seed(std::uint64_t run_seed) const;

    /// Human-readable structural problems; empty means the spec is sound.
    [[nodiscard]] std::vector<std::string> validate() const;
};

}  // namespace servet::sim
