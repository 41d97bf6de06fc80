// The Servet profile: everything the suite learned about a machine, in a
// plain-text format. Section IV-E: the benchmarks "must be run only once
// at installation time ... the information obtained can be stored in a
// file to be consulted by the applications to guide optimizations". This
// is that file, plus the query helpers autotuned codes need (message cost
// lookup, cache sizes, contention groups).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/fs.hpp"
#include "base/types.hpp"

namespace servet::core {

struct ProfileCacheLevel {
    Bytes size = 0;
    std::string method;                       ///< "peak" or "probabilistic"
    std::vector<std::vector<CoreId>> groups;  ///< cores per shared instance; empty = private

    friend bool operator==(const ProfileCacheLevel&, const ProfileCacheLevel&) = default;
};

struct ProfileMemoryTier {
    BytesPerSecond bandwidth = 0;
    std::vector<std::vector<CoreId>> groups;
    std::vector<BytesPerSecond> scalability;  ///< index k: k+1 concurrent cores

    friend bool operator==(const ProfileMemoryTier&, const ProfileMemoryTier&) = default;
};

struct ProfileMemory {
    BytesPerSecond reference_bandwidth = 0;
    std::vector<ProfileMemoryTier> tiers;

    friend bool operator==(const ProfileMemory&, const ProfileMemory&) = default;
};

struct ProfileCommLayer {
    Seconds latency = 0;
    std::vector<CorePair> pairs;
    std::vector<std::pair<Bytes, Seconds>> p2p;  ///< size -> one-way latency
    std::vector<double> slowdown;                ///< index k: k+1 concurrent messages

    friend bool operator==(const ProfileCommLayer&, const ProfileCommLayer&) = default;
};

/// The cluster topology the profiled machine was measured on (the
/// `[topology]` section; absent for single-node machines). A cluster
/// profile only stores measurements for a sampled pair set — this block
/// plus the comm-tier records let comm_layer_of classify *any* pair
/// analytically (see docs/cluster-sim.md).
struct ProfileTopology {
    /// sim::topology_kind_name value ("fat-tree", "torus", "dragonfly",
    /// "custom"); empty means no topology.
    std::string kind;
    int cores_per_node = 1;
    /// Kind-specific shape: fat-tree {arity, levels}; torus the dimension
    /// extents; dragonfly {groups, routers, nodes_per_router}; custom
    /// empty (no analytic fallback).
    std::vector<int> dims;

    [[nodiscard]] bool enabled() const { return !kind.empty() && kind != "none"; }

    friend bool operator==(const ProfileTopology&, const ProfileTopology&) = default;
};

/// One inter-node route class observed while profiling a cluster (a
/// `[comm-tier k]` section): which measured comm layer the class landed
/// in. Written by annotate_cluster_profile, consumed by the
/// comm_layer_of fallback for pairs outside the sampled set.
struct ProfileCommTier {
    std::string name;  ///< tier name from the machine/platform description
    int tier = 0;      ///< bottleneck (highest) link tier on the route
    int hops = 0;      ///< route hop count
    int layer = 0;     ///< index into Profile::comm

    friend bool operator==(const ProfileCommTier&, const ProfileCommTier&) = default;
};

class Profile {
  public:
    std::string machine;
    int cores = 0;
    Bytes page_size = 0;
    std::vector<ProfileCacheLevel> caches;
    ProfileMemory memory;
    std::vector<ProfileCommLayer> comm;
    /// Cluster topology block; ProfileTopology::enabled() is false (and
    /// the section is omitted) for single-node profiles.
    ProfileTopology topology;
    /// Inter-node route classes -> measured comm layers (cluster profiles
    /// only).
    std::vector<ProfileCommTier> comm_tiers;
    /// Wall-clock per benchmark phase (the Table I rows).
    std::map<std::string, Seconds> phase_seconds;
    /// Deterministic observability counters of the producing run (the
    /// `[counters]` section). Schedule-invariant event counts — identical
    /// for --jobs 1 and --jobs N — so golden tests pin them. Empty unless
    /// the run asked for them (SuiteOptions::profile_counters).
    std::map<std::string, std::uint64_t> counters;
    /// Phases that failed in the producing run, phase name -> first error
    /// message (the `[errors]` section). A profile with entries here is
    /// partial: the listed phases' sections are missing or incomplete, the
    /// rest are trustworthy. Empty for clean runs, and the section is
    /// omitted entirely so historical profiles parse unchanged.
    std::map<std::string, std::string> errors;

    // ---- queries used by the autotune consumers ----

    /// Size of cache level `level` (0 = L1), nullopt when not detected.
    [[nodiscard]] std::optional<Bytes> cache_size(std::size_t level) const;

    /// Largest detected cache size (the LLC).
    [[nodiscard]] std::optional<Bytes> last_level_cache() const;

    /// True iff the pair shares the cache at `level`.
    [[nodiscard]] bool shares_cache(std::size_t level, CorePair pair) const;

    /// Comm layer index of the pair, or -1 when uncharacterized. On a
    /// cluster profile, pairs outside the measured sample classify
    /// analytically: an intra-node pair is translated to its node-0
    /// twin, an inter-node pair is routed over the topology and matched
    /// against the comm-tier records.
    [[nodiscard]] int comm_layer_of(CorePair pair) const;

    /// Estimated one-way latency between the pair for a `size`-byte
    /// message, interpolated from the stored per-layer curve.
    [[nodiscard]] std::optional<Seconds> comm_latency(CorePair pair, Bytes size) const;

    /// The curve lookup behind comm_latency, for callers that already
    /// classified the pair (schedule pricing caches the layer per pair
    /// and the latency per (layer, size) — at cluster scale the repeated
    /// classification dominates otherwise).
    [[nodiscard]] std::optional<Seconds> layer_latency(int layer, Bytes size) const;

    /// Memory tier index whose groups contain both cores (i.e. the pair
    /// collides on a shared memory resource), or -1.
    [[nodiscard]] int memory_tier_of(CorePair pair) const;

    /// Effective per-core bandwidth when `n` cores of tier `tier`'s first
    /// group stream concurrently (clamped to the measured curve).
    [[nodiscard]] std::optional<BytesPerSecond> memory_bandwidth_at(std::size_t tier,
                                                                    int n) const;

    // ---- serialization ----

    /// One-way JSON export for interop with external tooling (plotters,
    /// dashboards). The authoritative round-trip format remains the native
    /// text one (serialize/parse); JSON is emit-only by design.
    [[nodiscard]] std::string to_json() const;

    [[nodiscard]] std::string serialize() const;
    [[nodiscard]] static std::optional<Profile> parse(const std::string& text);

    /// Write to a file, crash-atomically (fsync'd temporary + rename): a
    /// reader never sees a torn profile. Returns false on I/O failure.
    [[nodiscard]] bool save(const std::string& path) const;

    /// Read from a file. On nullopt, `diagnostic` (when given) says *why*
    /// — a missing file and a malformed one call for different fixes, so
    /// the CLI must not report them with one message — and `read` (when
    /// given) holds how reading the file went: Ok there means the file
    /// was read but does not parse.
    [[nodiscard]] static std::optional<Profile> load(const std::string& path,
                                                     std::string* diagnostic = nullptr,
                                                     FileRead* read = nullptr);

    friend bool operator==(const Profile&, const Profile&) = default;
};

}  // namespace servet::core
