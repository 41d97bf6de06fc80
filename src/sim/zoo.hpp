// The machine zoo: ground-truth models of the four systems the paper
// evaluates on (Section IV), plus a builder for synthetic machines used by
// the property tests. Cache geometries, sharing topologies, bus/cell
// structure and the OS core numbering quirks match the paper's
// descriptions; latency/bandwidth magnitudes are era-plausible values
// chosen so every figure reproduces the paper's *shape* (tiers, ratios,
// crossovers), not its absolute numbers.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace servet::sim::zoo {

/// 4 x Intel Xeon E7450 "Dunnington" hexacore, 2.40 GHz, 24 cores.
/// Individual 32KB L1; 3MB L2 shared by core pairs {i, i+12}; 12MB L3
/// shared by the 6 cores of a package {3p, 3p+1, 3p+2, 3p+12, 3p+13,
/// 3p+14} — the OS numbering the paper highlights in Fig. 8a. One front-
/// side bus: every pair contends equally for memory (Fig. 9a).
[[nodiscard]] MachineSpec dunnington();

/// Finis Terrae HP RX7640 node(s): 8 x Itanium2 Montvale dual-core per
/// node (16 cores), two cells of 8 cores, memory buses shared by pairs of
/// processors (4 cores per bus). All caches private (16KB L1 / 256KB L2 /
/// 9MB L3, 16KB pages). `nodes` > 1 adds InfiniBand-connected nodes for
/// the communication benchmarks (the paper uses 2 nodes / 32 cores).
[[nodiscard]] MachineSpec finis_terrae(int nodes = 1);

/// Intel Xeon 5060 "Dempsey" dualcore, 3.20 GHz: 16KB L1, private 2MB L2.
/// The physically-indexed L2 plus 4KB pages produce the miss-rate smear of
/// Fig. 2 that defeats naive peak detection.
[[nodiscard]] MachineSpec dempsey();

/// AMD Athlon 3200, 2 GHz unicore: 64KB L1, 512KB L2.
[[nodiscard]] MachineSpec athlon3200();

/// A post-paper control: Nehalem-style 2-socket node (8 cores) with
/// private 32KB L1 / 256KB L2, an 8MB L3 shared per socket, and
/// integrated per-socket memory controllers — the topology generation
/// that replaced front-side buses. Exercises the suite on a machine the
/// paper never saw: NUMA memory with markedly better scalability than
/// the FSB systems, and a three-tier communication hierarchy.
[[nodiscard]] MachineSpec nehalem2s();

/// All four paper machines, for sweep-style tests and benches.
[[nodiscard]] std::vector<MachineSpec> paper_machines();

// ---- cluster entries: multi-node machines over a sim::Topology ----

/// Bare cluster machine awaiting a topology: `nodes` x `cores_per_node`
/// plain nodes (private 32K/512K caches, one bus domain and one IntraNode
/// comm layer per node when multicore). The fixed cluster entries below
/// and the platform-file loader both build on it; the caller fills
/// MachineSpec::topology.
[[nodiscard]] MachineSpec cluster_node_machine(std::string name, int nodes, int cores_per_node,
                                               std::uint64_t seed);

/// Smallest interesting fat-tree cluster: arity-2, 2 switch levels (4
/// nodes), 2 cores per node — 8 ranks. Golden-pinned.
[[nodiscard]] MachineSpec fat_tree_small();

/// 4x4 torus of unicore nodes — 16 ranks, no intra-node layers at all:
/// every pair routes over the topology. Golden-pinned.
[[nodiscard]] MachineSpec torus4x4();

/// Arity-4 fat-tree cluster of 16-core nodes: `levels` switch levels give
/// 4^levels nodes (levels 3 -> 1024 ranks, levels 4 -> 4096 ranks — the
/// cluster-scale test sizes).
[[nodiscard]] MachineSpec fat_tree_cluster(int levels, int cores_per_node = 16);

/// Dragonfly cluster of 16-core nodes: groups x routers x nodes_per_router
/// nodes (10, 8, 8 -> 10240 ranks, the 10k-rank variant).
[[nodiscard]] MachineSpec dragonfly_cluster(int groups, int routers, int nodes_per_router,
                                            int cores_per_node = 16);

// ---- the catalog: every named model, as the front ends list them ----

/// One named model: what `--machine` accepts and `servet machines` lists.
struct Entry {
    const char* name;
    MachineSpec (*build)();
    const char* description;
};

/// The paper machines, the post-paper control and the cluster entries, in
/// listing order. Front ends that can also measure this host add "native".
[[nodiscard]] std::span<const Entry> catalog();

/// Parameters for synthetic test machines.
struct SyntheticOptions {
    int cores = 4;
    Bytes l1_size = 32 * KiB;
    int l1_assoc = 8;
    Bytes l2_size = 2 * MiB;
    int l2_assoc = 8;
    /// Cores per shared L2 instance (1 = private). Must divide `cores`.
    int l2_sharing = 1;
    Bytes page_size = 4 * KiB;
    PagePolicy page_policy = PagePolicy::Random;
    double jitter = 0.0;
    std::uint64_t seed = 42;
};

/// Two-level synthetic machine with a single memory bus; used by the
/// parameterized detection-accuracy tests.
[[nodiscard]] MachineSpec synthetic(const SyntheticOptions& options);

}  // namespace servet::sim::zoo
