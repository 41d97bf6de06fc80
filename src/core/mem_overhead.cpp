#include "core/mem_overhead.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"
#include "base/log.hpp"
#include "core/probe_common.hpp"
#include "obs/metrics.hpp"
#include "stats/cluster.hpp"
#include "stats/unionfind.hpp"

namespace servet::core {

namespace {
std::string core_list_key(const std::vector<CoreId>& cores) {
    std::string key;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        if (i > 0) key += '.';
        key += std::to_string(cores[i]);
    }
    return key;
}
}  // namespace

MemOverheadResult characterize_memory_overhead(MeasureEngine& engine,
                                               const MemOverheadOptions& options) {
    SERVET_CHECK(options.overhead_epsilon > 0 && options.overhead_epsilon < 1);
    SERVET_CHECK(engine.platform() != nullptr);
    const int n_cores = engine.platform()->core_count();
    const std::vector<CorePair> pairs = probe_pairs(n_cores, options.only_with_core);

    // Batch 1: the isolated reference plus every pair, all independent.
    const std::string prefix = "mem/b" + std::to_string(options.array_bytes);
    std::vector<MeasureTask> tasks;
    tasks.reserve(1 + pairs.size());
    {
        MeasureTask task;
        task.key = prefix + "/ref/c0";
        task.body = [options](Platform* platform, msg::Network*) {
            return std::vector<double>{platform->copy_bandwidth(0, options.array_bytes)};
        };
        tasks.push_back(std::move(task));
    }
    for (const CorePair& pair : pairs) {
        MeasureTask task;
        task.key =
            prefix + "/pair/" + std::to_string(pair.a) + "-" + std::to_string(pair.b);
        task.body = [pair, options](Platform* platform, msg::Network*) {
            return platform->copy_bandwidth_concurrent({pair.a, pair.b}, options.array_bytes);
        };
        tasks.push_back(std::move(task));
    }
    obs::counter("phase.mem_overhead.measurements", obs::Stability::Stable).add(tasks.size());
    const std::vector<std::vector<double>> measured = engine.run(tasks);

    MemOverheadResult result;
    result.reference_bandwidth = measured[0][0];
    if (!(result.reference_bandwidth > 0) || !std::isfinite(result.reference_bandwidth))
        throw DetectError("detect.bad_sample", "reference copy bandwidth is " +
                                                   format_exact(result.reference_bandwidth) +
                                                   " B/s");

    // Fig. 6 main loop: keep pairs below the reference and cluster similar
    // overheads into tiers.
    stats::SimilarityClusterer clusterer(options.cluster_tolerance);
    std::vector<CorePair> clustered_pairs;  // tag -> pair, parallel to clusterer tags
    const double cutoff = (1.0 - options.overhead_epsilon) * result.reference_bandwidth;
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
        const BytesPerSecond b = measured[1 + pi][0];
        result.pairs.push_back({pairs[pi], b});
        if (b < cutoff) {
            clusterer.add(b, clustered_pairs.size());
            clustered_pairs.push_back(pairs[pi]);
        }
    }

    for (const stats::Cluster& cluster : clusterer.clusters()) {
        MemOverheadTier tier;
        tier.bandwidth = cluster.representative;
        for (std::size_t tag : cluster.members)
            tier.pairs.push_back(clustered_pairs[tag]);
        tier.groups = stats::groups_from_pairs(tier.pairs, n_cores);
        result.tiers.push_back(std::move(tier));
    }
    // Report tiers worst-first, like the paper's discussion (bus before cell).
    std::sort(result.tiers.begin(), result.tiers.end(),
              [](const MemOverheadTier& a, const MemOverheadTier& b) {
                  return a.bandwidth < b.bandwidth;
              });

    // Batch 2 — scalability (Fig. 9b): one representative group per tier is
    // enough (all groups of a tier behave alike by construction), every
    // active-set size of every tier measured independently. Task keys name
    // the active cores, which derive deterministically from batch 1.
    std::vector<MeasureTask> scal_tasks;
    std::vector<std::pair<std::size_t, std::size_t>> scal_owner;  // (tier, n-1)
    for (std::size_t t = 0; t < result.tiers.size(); ++t) {
        const MemOverheadTier& tier = result.tiers[t];
        if (tier.groups.empty()) continue;
        const std::vector<CoreId>& group = tier.groups.front();
        for (std::size_t n = 1; n <= group.size(); ++n) {
            const std::vector<CoreId> active(group.begin(),
                                             group.begin() + static_cast<std::ptrdiff_t>(n));
            MeasureTask task;
            task.key = prefix + "/scal/" + core_list_key(active);
            task.body = [active, options](Platform* platform, msg::Network*) {
                return platform->copy_bandwidth_concurrent(active, options.array_bytes);
            };
            scal_tasks.push_back(std::move(task));
            scal_owner.emplace_back(t, n - 1);
        }
    }
    obs::counter("phase.mem_overhead.measurements", obs::Stability::Stable)
        .add(scal_tasks.size());
    const std::vector<std::vector<double>> scal_measured = engine.run(scal_tasks);
    for (std::size_t t = 0; t < result.tiers.size(); ++t) {
        if (result.tiers[t].groups.empty()) continue;
        MemScalabilityCurve curve;
        curve.tier = t;
        curve.group = result.tiers[t].groups.front();
        curve.bandwidth_by_n.resize(curve.group.size());
        result.scalability.push_back(std::move(curve));
    }
    for (std::size_t i = 0; i < scal_tasks.size(); ++i) {
        const auto [tier, slot] = scal_owner[i];
        for (MemScalabilityCurve& curve : result.scalability) {
            if (curve.tier == tier) curve.bandwidth_by_n[slot] = scal_measured[i].front();
        }
    }

    SERVET_LOG_INFO("mem-overhead: ref %.2f GB/s, %zu tiers", result.reference_bandwidth / 1e9,
                    result.tiers.size());
    return result;
}

MemOverheadResult characterize_memory_overhead(Platform& platform,
                                               const MemOverheadOptions& options) {
    MeasureEngine engine(&platform, nullptr, nullptr, nullptr);
    return characterize_memory_overhead(engine, options);
}

}  // namespace servet::core
