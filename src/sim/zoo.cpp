#include "sim/zoo.hpp"

#include "base/check.hpp"

namespace servet::sim::zoo {

namespace {

/// One instance per core.
std::vector<std::vector<CoreId>> private_instances(int cores) {
    std::vector<std::vector<CoreId>> instances;
    instances.reserve(static_cast<std::size_t>(cores));
    for (CoreId c = 0; c < cores; ++c) instances.push_back({c});
    return instances;
}

std::vector<CoreId> core_range(CoreId first, int count) {
    std::vector<CoreId> cores;
    cores.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) cores.push_back(first + i);
    return cores;
}

}  // namespace

MachineSpec dunnington() {
    MachineSpec m;
    m.name = "dunnington";
    m.n_cores = 24;
    m.cores_per_node = 24;
    m.clock_ghz = 2.40;
    m.page_size = 4 * KiB;
    m.page_policy = PagePolicy::Random;
    m.measurement_jitter = 0.02;
    m.seed = 0xd0221;

    CacheLevelSpec l1;
    l1.name = "L1";
    l1.geometry = {.size = 32 * KiB, .line_size = 64, .associativity = 8,
                   .physically_indexed = false};
    l1.hit_cycles = 3;
    l1.instances = private_instances(m.n_cores);

    // L2: 3MB shared by pairs {i, i+12} — the OS-numbering quirk of Fig. 8a.
    CacheLevelSpec l2;
    l2.name = "L2";
    l2.geometry = {.size = 3 * MiB, .line_size = 64, .associativity = 12,
                   .physically_indexed = true};
    l2.hit_cycles = 12;
    for (CoreId i = 0; i < 12; ++i) l2.instances.push_back({i, i + 12});

    // L3: 12MB shared by the six cores of a package {3p,3p+1,3p+2}+{+12}.
    CacheLevelSpec l3;
    l3.name = "L3";
    l3.geometry = {.size = 12 * MiB, .line_size = 64, .associativity = 16,
                   .physically_indexed = true};
    l3.hit_cycles = 48;
    for (int p = 0; p < 4; ++p) {
        std::vector<CoreId> package;
        for (CoreId c : {3 * p, 3 * p + 1, 3 * p + 2})
            package.push_back(c);
        for (CoreId c : {3 * p + 12, 3 * p + 13, 3 * p + 14})
            package.push_back(c);
        l3.instances.push_back(std::move(package));
    }
    m.levels = {l1, l2, l3};

    m.memory.latency_cycles = 250;
    m.memory.single_core_bandwidth = 3.5e9;
    // One front-side bus serving all 24 cores: any concurrent pair splits
    // 1.4x of the solo bandwidth — the uniform overhead of Fig. 9a.
    m.memory.domains.push_back(
        {.name = "fsb", .members = core_range(0, 24), .aggregate_bandwidth_factor = 1.4,
         .latency_factor_per_extra = 0.05});

    m.comm_layers = {
        {.name = "shared-L2",
         .scope = {CommScope::Kind::SharedCacheLevel, 1},
         .base_latency = 0.7e-6,
         .bandwidth = 3.2e9,
         .eager_threshold = 32 * KiB,
         .rendezvous_extra = 1.0e-6,
         .concurrency_exponent = 0.10},
        {.name = "intra-processor",
         .scope = {CommScope::Kind::SharedCacheLevel, 2},
         .base_latency = 1.0e-6,
         .bandwidth = 2.4e9,
         .eager_threshold = 32 * KiB,
         .rendezvous_extra = 1.5e-6,
         .concurrency_exponent = 0.15},
        {.name = "inter-processor",
         .scope = {CommScope::Kind::IntraNode, 0},
         .base_latency = 1.6e-6,
         .bandwidth = 1.6e9,
         .eager_threshold = 32 * KiB,
         .rendezvous_extra = 4.0e-6,
         .concurrency_exponent = 0.45},
    };
    return m;
}

MachineSpec finis_terrae(int nodes) {
    SERVET_CHECK_MSG(nodes >= 1 && nodes <= 142, "Finis Terrae has 142 nodes");
    MachineSpec m;
    m.name = nodes == 1 ? "finis-terrae" : "finis-terrae-" + std::to_string(nodes) + "n";
    m.cores_per_node = 16;
    m.n_cores = 16 * nodes;
    m.clock_ghz = 1.60;
    m.page_size = 16 * KiB;  // Linux ia64 default
    m.page_policy = PagePolicy::Random;
    m.measurement_jitter = 0.02;
    m.seed = 0xf7e44e;

    CacheLevelSpec l1;
    l1.name = "L1";
    l1.geometry = {.size = 16 * KiB, .line_size = 64, .associativity = 4,
                   .physically_indexed = false};
    l1.hit_cycles = 2;
    l1.instances = private_instances(m.n_cores);

    CacheLevelSpec l2;
    l2.name = "L2";
    l2.geometry = {.size = 256 * KiB, .line_size = 128, .associativity = 8,
                   .physically_indexed = true};
    l2.hit_cycles = 8;
    l2.instances = private_instances(m.n_cores);

    CacheLevelSpec l3;
    l3.name = "L3";
    l3.geometry = {.size = 9 * MiB, .line_size = 128, .associativity = 12,
                   .physically_indexed = true};
    l3.hit_cycles = 30;
    l3.instances = private_instances(m.n_cores);
    m.levels = {l1, l2, l3};

    m.memory.latency_cycles = 300;
    m.memory.single_core_bandwidth = 2.5e9;
    for (int n = 0; n < nodes; ++n) {
        const CoreId base = 16 * n;
        // Buses shared by pairs of dual-core processors: 4 cores per bus.
        for (int b = 0; b < 4; ++b)
            m.memory.domains.push_back({.name = "node" + std::to_string(n) + "-bus" +
                                                std::to_string(b),
                                        .members = core_range(base + 4 * b, 4),
                                        .aggregate_bandwidth_factor = 1.1,
                                        .latency_factor_per_extra = 0.35});
        // Two cells of 8 cores with their own memory.
        for (int cell = 0; cell < 2; ++cell)
            m.memory.domains.push_back({.name = "node" + std::to_string(n) + "-cell" +
                                                std::to_string(cell),
                                        .members = core_range(base + 8 * cell, 8),
                                        .aggregate_bandwidth_factor = 1.5,
                                        .latency_factor_per_extra = 0.12});
    }

    m.comm_layers = {
        {.name = "intra-node-shm",
         .scope = {CommScope::Kind::IntraNode, 0},
         .base_latency = 2.2e-6,
         .bandwidth = 1.8e9,
         .eager_threshold = 32 * KiB,
         .rendezvous_extra = 6.0e-6,
         .concurrency_exponent = 0.25},
        {.name = "infiniband",
         .scope = {CommScope::Kind::InterNode, 0},
         .base_latency = 4.4e-6,
         .bandwidth = 0.9e9,
         .eager_threshold = 16 * KiB,
         .rendezvous_extra = 15.0e-6,
         // 32 concurrent messages -> 32^0.565 ~ 7.1x, the paper's "7 times
         // slower" InfiniBand observation (Fig. 10b).
         .concurrency_exponent = 0.565},
    };
    return m;
}

MachineSpec dempsey() {
    MachineSpec m;
    m.name = "dempsey";
    m.n_cores = 2;
    m.cores_per_node = 2;
    m.clock_ghz = 3.20;
    m.page_size = 4 * KiB;
    m.page_policy = PagePolicy::Random;
    m.measurement_jitter = 0.02;
    m.seed = 0xde3357;

    CacheLevelSpec l1;
    l1.name = "L1";
    l1.geometry = {.size = 16 * KiB, .line_size = 64, .associativity = 8,
                   .physically_indexed = false};
    l1.hit_cycles = 2;
    l1.instances = private_instances(m.n_cores);

    CacheLevelSpec l2;
    l2.name = "L2";
    l2.geometry = {.size = 2 * MiB, .line_size = 64, .associativity = 8,
                   .physically_indexed = true};
    l2.hit_cycles = 18;
    l2.instances = private_instances(m.n_cores);
    m.levels = {l1, l2};

    m.memory.latency_cycles = 280;
    m.memory.single_core_bandwidth = 3.0e9;
    m.memory.domains.push_back({.name = "fsb", .members = {0, 1},
                                .aggregate_bandwidth_factor = 1.3,
                                .latency_factor_per_extra = 0.05});

    m.comm_layers = {
        {.name = "intra-node-shm",
         .scope = {CommScope::Kind::IntraNode, 0},
         .base_latency = 1.2e-6,
         .bandwidth = 1.5e9,
         .eager_threshold = 32 * KiB,
         .rendezvous_extra = 2.0e-6,
         .concurrency_exponent = 0.30},
    };
    return m;
}

MachineSpec athlon3200() {
    MachineSpec m;
    m.name = "athlon3200";
    m.n_cores = 1;
    m.cores_per_node = 1;
    m.clock_ghz = 2.00;
    m.page_size = 4 * KiB;
    m.page_policy = PagePolicy::Random;
    m.measurement_jitter = 0.02;
    m.seed = 0xa7410;

    CacheLevelSpec l1;
    l1.name = "L1";
    l1.geometry = {.size = 64 * KiB, .line_size = 64, .associativity = 2,
                   .physically_indexed = false};
    l1.hit_cycles = 3;
    l1.instances = private_instances(1);

    CacheLevelSpec l2;
    l2.name = "L2";
    l2.geometry = {.size = 512 * KiB, .line_size = 64, .associativity = 16,
                   .physically_indexed = true};
    l2.hit_cycles = 20;
    l2.instances = private_instances(1);
    m.levels = {l1, l2};

    m.memory.latency_cycles = 180;
    m.memory.single_core_bandwidth = 2.0e9;
    return m;
}

MachineSpec nehalem2s() {
    MachineSpec m;
    m.name = "nehalem2s";
    m.n_cores = 8;
    m.cores_per_node = 8;
    m.clock_ghz = 2.93;
    m.page_size = 4 * KiB;
    m.page_policy = PagePolicy::Random;
    m.measurement_jitter = 0.02;
    m.seed = 0x8e4a13;

    CacheLevelSpec l1;
    l1.name = "L1";
    l1.geometry = {.size = 32 * KiB, .line_size = 64, .associativity = 8,
                   .physically_indexed = false};
    l1.hit_cycles = 4;
    l1.instances = private_instances(m.n_cores);

    CacheLevelSpec l2;
    l2.name = "L2";
    l2.geometry = {.size = 256 * KiB, .line_size = 64, .associativity = 8,
                   .physically_indexed = true};
    l2.hit_cycles = 11;
    l2.instances = private_instances(m.n_cores);

    CacheLevelSpec l3;
    l3.name = "L3";
    l3.geometry = {.size = 8 * MiB, .line_size = 64, .associativity = 16,
                   .physically_indexed = true};
    l3.hit_cycles = 38;
    l3.instances = {core_range(0, 4), core_range(4, 4)};
    m.levels = {l1, l2, l3};

    m.memory.latency_cycles = 190;
    m.memory.single_core_bandwidth = 8.0e9;
    // Integrated per-socket memory controllers: far better scalability
    // than the FSB machines (a pair keeps 80% instead of 55-70%).
    for (int s = 0; s < 2; ++s)
        m.memory.domains.push_back({.name = "socket" + std::to_string(s),
                                    .members = core_range(4 * s, 4),
                                    .aggregate_bandwidth_factor = 1.6,
                                    .latency_factor_per_extra = 0.08});

    m.comm_layers = {
        {.name = "shared-L3",
         .scope = {CommScope::Kind::SharedCacheLevel, 2},
         .base_latency = 0.5e-6,
         .bandwidth = 5.0e9,
         .eager_threshold = 32 * KiB,
         .rendezvous_extra = 0.8e-6,
         .concurrency_exponent = 0.10},
        {.name = "qpi",
         .scope = {CommScope::Kind::IntraNode, 0},
         .base_latency = 0.9e-6,
         .bandwidth = 3.0e9,
         .eager_threshold = 32 * KiB,
         .rendezvous_extra = 2.0e-6,
         .concurrency_exponent = 0.30},
    };
    return m;
}

std::vector<MachineSpec> paper_machines() {
    return {dunnington(), finis_terrae(), dempsey(), athlon3200()};
}

// Shared per-node substrate for the cluster machines: private L1/L2, one
// bus contention domain and one IntraNode comm layer per node (none when
// the nodes are unicore). The interesting structure of these machines is
// the network between the nodes, so the nodes themselves stay plain.
MachineSpec cluster_node_machine(std::string name, int nodes, int cores_per_node,
                                 std::uint64_t seed) {
    SERVET_CHECK(nodes >= 1 && cores_per_node >= 1);
    MachineSpec m;
    m.name = std::move(name);
    m.n_cores = nodes * cores_per_node;
    m.cores_per_node = cores_per_node;
    m.clock_ghz = 2.4;
    m.page_size = 4 * KiB;
    m.page_policy = PagePolicy::Random;
    m.measurement_jitter = 0.02;
    m.seed = seed;

    CacheLevelSpec l1;
    l1.name = "L1";
    l1.geometry = {.size = 32 * KiB, .line_size = 64, .associativity = 8,
                   .physically_indexed = false};
    l1.hit_cycles = 3;
    l1.instances = private_instances(m.n_cores);

    CacheLevelSpec l2;
    l2.name = "L2";
    l2.geometry = {.size = 512 * KiB, .line_size = 64, .associativity = 8,
                   .physically_indexed = true};
    l2.hit_cycles = 14;
    l2.instances = private_instances(m.n_cores);
    m.levels = {l1, l2};

    m.memory.latency_cycles = 210;
    m.memory.single_core_bandwidth = 5.0e9;
    if (cores_per_node > 1) {
        for (int n = 0; n < nodes; ++n)
            m.memory.domains.push_back({.name = "bus" + std::to_string(n),
                                        .members = core_range(n * cores_per_node, cores_per_node),
                                        .aggregate_bandwidth_factor = 1.5,
                                        .latency_factor_per_extra = 0.06});
        m.comm_layers = {
            {.name = "intra-node",
             .scope = {CommScope::Kind::IntraNode, 0},
             .base_latency = 1.5e-6,
             .bandwidth = 1.5e9,
             .eager_threshold = 32 * KiB,
             .rendezvous_extra = 3.0e-6,
             .concurrency_exponent = 0.40},
        };
    }
    return m;
}

namespace {

/// Fat-tree tier parameters, slowest-growing first (tier 0 = node-edge
/// links). Every tier is strictly slower than the one below it, so the
/// per-class modeled latencies come out strictly ascending — which is what
/// keeps `servet validate`'s comm.latency-order / comm.bandwidth-order
/// checks green on the measured profiles.
std::vector<TopologyTier> fat_tree_tiers(int levels) {
    SERVET_CHECK(levels >= 1 && levels <= 4);
    const TopologyTier all[4] = {
        {.name = "edge", .hop_latency = 2.5e-6, .bandwidth = 1.2e9, .congestion_exponent = 0.35},
        {.name = "aggr", .hop_latency = 5.0e-6, .bandwidth = 0.8e9, .congestion_exponent = 0.45},
        {.name = "core", .hop_latency = 9.0e-6, .bandwidth = 0.5e9, .congestion_exponent = 0.55},
        {.name = "spine", .hop_latency = 14.0e-6, .bandwidth = 0.3e9, .congestion_exponent = 0.60},
    };
    return {all, all + levels};
}

}  // namespace

MachineSpec fat_tree_small() {
    MachineSpec m = cluster_node_machine("ft-small", 4, 2, 0xfa77e1);
    m.topology.kind = TopologyKind::FatTree;
    m.topology.arity = 2;
    m.topology.levels = 2;
    m.topology.tiers = fat_tree_tiers(2);
    return m;
}

MachineSpec torus4x4() {
    MachineSpec m = cluster_node_machine("torus4x4", 16, 1, 0x70545b);
    m.topology.kind = TopologyKind::Torus;
    m.topology.dims = {4, 4};
    m.topology.tiers = {{.name = "torus-link",
                         .hop_latency = 2.0e-6,
                         .bandwidth = 1.0e9,
                         .congestion_exponent = 0.40}};
    return m;
}

MachineSpec fat_tree_cluster(int levels, int cores_per_node) {
    SERVET_CHECK(levels >= 1 && levels <= 4);
    int nodes = 1;
    for (int l = 0; l < levels; ++l) nodes *= 4;
    MachineSpec m = cluster_node_machine("ft" + std::to_string(nodes * cores_per_node), nodes,
                                 cores_per_node, 0xc1a540 + static_cast<std::uint64_t>(levels));
    m.topology.kind = TopologyKind::FatTree;
    m.topology.arity = 4;
    m.topology.levels = levels;
    m.topology.tiers = fat_tree_tiers(levels);
    return m;
}

MachineSpec dragonfly_cluster(int groups, int routers, int nodes_per_router, int cores_per_node) {
    const int nodes = groups * routers * nodes_per_router;
    MachineSpec m = cluster_node_machine("df" + std::to_string(nodes * cores_per_node), nodes,
                                 cores_per_node, 0xd7a90f);
    m.topology.kind = TopologyKind::Dragonfly;
    m.topology.groups = groups;
    m.topology.routers = routers;
    m.topology.nodes_per_router = nodes_per_router;
    m.topology.tiers = {
        {.name = "injection", .hop_latency = 2.0e-6, .bandwidth = 1.5e9,
         .congestion_exponent = 0.30},
        {.name = "local", .hop_latency = 4.0e-6, .bandwidth = 0.9e9,
         .congestion_exponent = 0.45},
        {.name = "global", .hop_latency = 8.0e-6, .bandwidth = 0.5e9,
         .congestion_exponent = 0.55},
    };
    return m;
}

namespace {

constexpr Entry kCatalog[] = {
    {"dunnington", [] { return dunnington(); }, "4x Xeon E7450, shared L2 pairs + L3 packages"},
    {"finis-terrae", [] { return finis_terrae(); },
     "HP RX7640 node, Itanium2, cells + shared buses"},
    {"finis-terrae-2n", [] { return finis_terrae(2); }, "two RX7640 nodes over InfiniBand"},
    {"dempsey", dempsey, "Xeon 5060, the smeared-L2 case of Fig. 2"},
    {"athlon3200", athlon3200, "unicore AMD Athlon"},
    {"nehalem2s", nehalem2s, "post-paper control: 2-socket NUMA with shared L3"},
    {"ft-small", fat_tree_small, "cluster: arity-2/2-level fat-tree, 4 dual-core nodes"},
    {"torus4x4", torus4x4, "cluster: 4x4 torus of unicore nodes"},
    {"ft1024", [] { return fat_tree_cluster(3); },
     "cluster: arity-4/3-level fat-tree, 64 16-core nodes"},
    {"ft4096", [] { return fat_tree_cluster(4); },
     "cluster: arity-4/4-level fat-tree, 256 16-core nodes"},
    {"df10240", [] { return dragonfly_cluster(10, 8, 8); },
     "cluster: 10-group dragonfly, 640 16-core nodes"},
};

}  // namespace

std::span<const Entry> catalog() { return kCatalog; }

MachineSpec synthetic(const SyntheticOptions& options) {
    SERVET_CHECK(options.cores >= 1);
    SERVET_CHECK(options.l2_sharing >= 1 && options.cores % options.l2_sharing == 0);
    MachineSpec m;
    m.name = "synthetic";
    m.n_cores = options.cores;
    m.cores_per_node = options.cores;
    m.clock_ghz = 2.0;
    m.page_size = options.page_size;
    m.page_policy = options.page_policy;
    m.measurement_jitter = options.jitter;
    m.seed = options.seed;

    CacheLevelSpec l1;
    l1.name = "L1";
    l1.geometry = {.size = options.l1_size, .line_size = 64, .associativity = options.l1_assoc,
                   .physically_indexed = false};
    l1.hit_cycles = 2;
    l1.instances = private_instances(options.cores);

    CacheLevelSpec l2;
    l2.name = "L2";
    l2.geometry = {.size = options.l2_size, .line_size = 64, .associativity = options.l2_assoc,
                   .physically_indexed = true};
    l2.hit_cycles = 16;
    for (CoreId c = 0; c < options.cores; c += options.l2_sharing)
        l2.instances.push_back(core_range(c, options.l2_sharing));
    m.levels = {l1, l2};

    m.memory.latency_cycles = 220;
    m.memory.single_core_bandwidth = 3.0e9;
    m.memory.domains.push_back({.name = "bus", .members = core_range(0, options.cores),
                                .aggregate_bandwidth_factor = 1.5,
                                .latency_factor_per_extra = 0.05});

    if (options.cores > 1) {
        m.comm_layers = {
            {.name = "shared-L2",
             .scope = {CommScope::Kind::SharedCacheLevel, 1},
             .base_latency = 0.8e-6,
             .bandwidth = 2.5e9,
             .eager_threshold = 32 * KiB,
             .rendezvous_extra = 1.0e-6,
             .concurrency_exponent = 0.15},
            {.name = "intra-node",
             .scope = {CommScope::Kind::IntraNode, 0},
             .base_latency = 1.5e-6,
             .bandwidth = 1.5e9,
             .eager_threshold = 32 * KiB,
             .rendezvous_extra = 3.0e-6,
             .concurrency_exponent = 0.40},
        };
    }
    return m;
}

}  // namespace servet::sim::zoo
