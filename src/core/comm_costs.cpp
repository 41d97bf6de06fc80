#include "core/comm_costs.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "base/check.hpp"
#include "base/fault_plan.hpp"
#include "base/log.hpp"
#include "base/text.hpp"
#include "core/probe_common.hpp"
#include "obs/metrics.hpp"
#include "stats/cluster.hpp"

namespace servet::core {

namespace {

obs::Counter& retries_counter() {
    // Stable: drops derive from the fault plan's seed and the task-key
    // salts, so which probes retry is schedule-invariant.
    static obs::Counter& c =
        obs::counter("phase.comm_costs.retries", obs::Stability::Stable);
    return c;
}

/// Runs `probe` with up to `max_retries` re-measures on transient
/// transport loss; the last attempt's error propagates.
template <typename Probe>
auto with_retries(int max_retries, Probe&& probe) {
    for (int attempt = 0;; ++attempt) {
        try {
            return probe();
        } catch (const TransientNetworkError&) {
            if (attempt >= max_retries) throw;
            retries_counter().increment();
        }
    }
}

/// Every latency `task` measured, with the phase-wide sanity check
/// applied: a sample that is not positive and finite (a corrupt memo
/// record, a broken transport) throws DetectError `detect.bad_sample`
/// rather than skew a layer.
const std::vector<double>& checked_latencies(const MeasureTask& task,
                                             const std::vector<double>& samples) {
    for (const double sample : samples)
        if (!(sample > 0 && std::isfinite(sample)))
            throw DetectError("detect.bad_sample", task.key + " gave a latency of " +
                                                       format_exact(sample) + " s");
    return samples;
}

std::vector<Bytes> default_sweep_sizes() {
    std::vector<Bytes> sizes;
    for (Bytes s = 1 * KiB; s <= 4 * MiB; s *= 2) sizes.push_back(s);
    return sizes;
}

/// Ping-pong task for one pair. The key is shared between the layer scan,
/// the per-layer sweep and the isolated baseline, so overlapping probes
/// (the sweep size that equals the probe size, the baseline of a pair the
/// scan already measured) memo-hit instead of re-measuring.
MeasureTask pingpong_task(CorePair pair, Bytes size, int reps, int max_retries) {
    // Canonical pair order: a ping-pong is symmetric, so (b,a) shares the
    // (a,b) task key and the engine/memo dedupe it to one measurement.
    const CorePair canonical = pair.canonical();
    MeasureTask task;
    task.key = "comm/pp/m" + std::to_string(size) + "/r" + std::to_string(reps) + "/" +
               std::to_string(canonical.a) + "-" + std::to_string(canonical.b);
    task.body = [canonical, size, reps, max_retries](Platform*, msg::Network* network) {
        return with_retries(max_retries, [&] {
            return std::vector<double>{network->pingpong_latency(canonical, size, reps)};
        });
    };
    return task;
}

/// The layer-scan pair list: every pair by default, or the caller's
/// sampled set canonicalized with symmetric/exact duplicates dropped
/// (first occurrence keeps its position, so the scan order is stable).
std::vector<CorePair> scan_pairs(const CommCostsOptions& options, int n) {
    if (options.probe_pairs.empty()) return all_core_pairs(n);
    std::vector<CorePair> pairs;
    pairs.reserve(options.probe_pairs.size());
    std::set<CorePair> seen;
    for (const CorePair& pair : options.probe_pairs) {
        SERVET_CHECK_MSG(pair.a >= 0 && pair.a < n && pair.b >= 0 && pair.b < n,
                         "probe pair core out of range");
        SERVET_CHECK_MSG(pair.a != pair.b, "probe pair must join two distinct cores");
        const CorePair canonical = pair.canonical();
        if (seen.insert(canonical).second) pairs.push_back(canonical);
    }
    return pairs;
}
}  // namespace

std::vector<CorePair> disjoint_pairs(const std::vector<CorePair>& pairs) {
    std::vector<CorePair> result;
    std::set<CoreId> used;
    for (const CorePair& pair : pairs) {
        if (used.contains(pair.a) || used.contains(pair.b)) continue;
        used.insert(pair.a);
        used.insert(pair.b);
        result.push_back(pair);
    }
    return result;
}

Seconds CommCostsResult::estimate_latency(CorePair pair, Bytes size) const {
    const int layer_index = layer_of(pair);
    SERVET_CHECK_MSG(layer_index >= 0, "pair was not characterized");
    const CommLayer& layer = layers[static_cast<std::size_t>(layer_index)];
    SERVET_CHECK(!layer.p2p.empty());

    const auto& curve = layer.p2p;  // sorted by size ascending
    if (size <= curve.front().first) {
        // Extrapolate below the sweep with the first point's effective
        // per-byte cost anchored at the probe latency floor.
        const double scale = static_cast<double>(size) / static_cast<double>(curve.front().first);
        return curve.front().second * std::max(scale, 0.25);
    }
    if (size >= curve.back().first) {
        // Extrapolate above the sweep at the last segment's bandwidth.
        const auto& [s1, t1] = curve[curve.size() - 2];
        const auto& [s2, t2] = curve.back();
        const double per_byte = (t2 - t1) / static_cast<double>(s2 - s1);
        return t2 + per_byte * static_cast<double>(size - s2);
    }
    for (std::size_t i = 1; i < curve.size(); ++i) {
        if (size > curve[i].first) continue;
        const auto& [s1, t1] = curve[i - 1];
        const auto& [s2, t2] = curve[i];
        const double f =
            static_cast<double>(size - s1) / static_cast<double>(s2 - s1);
        return t1 + f * (t2 - t1);
    }
    return curve.back().second;  // unreachable
}

int CommCostsResult::layer_of(CorePair pair) const {
    const CorePair canonical = pair.canonical();
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const auto& layer_pairs = layers[i].pairs;
        if (std::find(layer_pairs.begin(), layer_pairs.end(), canonical) != layer_pairs.end())
            return static_cast<int>(i);
    }
    return -1;
}

CommCostsResult characterize_communication(MeasureEngine& engine,
                                           const CommCostsOptions& options) {
    SERVET_CHECK(engine.network() != nullptr);
    const int n = engine.network()->endpoint_count();
    SERVET_CHECK_MSG(n >= 2, "communication characterization needs at least two endpoints");
    SERVET_CHECK(options.reps > 0 && options.max_concurrent >= 1);

    CommCostsResult result;
    result.probe_message = options.probe_message;

    // Fig. 7: probe the pair set (batch 1, all independent), cluster
    // similar latencies into layers.
    const std::vector<CorePair> pairs = scan_pairs(options, n);
    SERVET_CHECK_MSG(!pairs.empty(), "probe pair set is empty after deduplication");
    std::vector<MeasureTask> probe_tasks;
    probe_tasks.reserve(pairs.size());
    for (const CorePair& pair : pairs)
        probe_tasks.push_back(
            pingpong_task(pair, options.probe_message, options.reps, options.max_retries));
    obs::counter("phase.comm_costs.measurements", obs::Stability::Stable)
        .add(probe_tasks.size());
    const std::vector<std::vector<double>> probed = engine.run(probe_tasks);

    stats::SimilarityClusterer clusterer(options.cluster_tolerance);
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
        const Seconds latency = checked_latencies(probe_tasks[pi], probed[pi])[0];
        clusterer.add(latency, result.pairs.size());
        result.pairs.push_back({pairs[pi], latency});
    }

    for (const stats::Cluster& cluster : clusterer.clusters()) {
        CommLayer layer;
        layer.latency = cluster.representative;
        for (std::size_t tag : cluster.members) layer.pairs.push_back(result.pairs[tag].pair);
        layer.representative = layer.pairs.front();
        result.layers.push_back(std::move(layer));
    }
    std::sort(result.layers.begin(), result.layers.end(),
              [](const CommLayer& a, const CommLayer& b) { return a.latency < b.latency; });

    // Batch 2 — per-layer micro-benchmark of the representative pair
    // (Fig. 10c/d), isolated baseline, and concurrent-message scalability
    // (Fig. 10b). Every (layer, size) and (layer, k) point is independent.
    const std::vector<Bytes> sweep =
        options.sweep_sizes.empty() ? default_sweep_sizes() : options.sweep_sizes;
    std::vector<MeasureTask> detail_tasks;
    struct LayerPlan {
        std::vector<std::size_t> sweep_task;       // aligned with `sweep`
        std::size_t isolated_task = 0;
        std::vector<std::size_t> concurrent_task;  // index k-1: k senders
    };
    std::vector<LayerPlan> plans;
    plans.reserve(result.layers.size());
    for (CommLayer& layer : result.layers) {
        LayerPlan plan;
        for (Bytes size : sweep) {
            plan.sweep_task.push_back(detail_tasks.size());
            detail_tasks.push_back(
                pingpong_task(layer.representative, size, options.reps, options.max_retries));
        }

        const std::vector<CorePair> senders = disjoint_pairs(layer.pairs);
        plan.isolated_task = detail_tasks.size();
        detail_tasks.push_back(pingpong_task(senders.front(), options.probe_message,
                                             options.reps, options.max_retries));
        const int max_n =
            std::min<int>(options.max_concurrent, static_cast<int>(senders.size()));
        for (int k = 1; k <= max_n; ++k) {
            const std::vector<CorePair> active(senders.begin(), senders.begin() + k);
            MeasureTask task;
            task.key = "comm/cc/m" + std::to_string(options.probe_message) + "/r" +
                       std::to_string(options.reps);
            for (const CorePair& pair : active) {
                task.key += '/';
                task.key += std::to_string(pair.a);
                task.key += '-';
                task.key += std::to_string(pair.b);
            }
            task.body = [active, message = options.probe_message, reps = options.reps,
                         max_retries = options.max_retries](Platform*, msg::Network* network) {
                return with_retries(max_retries, [&] {
                    return network->concurrent_latency(active, message, reps);
                });
            };
            plan.concurrent_task.push_back(detail_tasks.size());
            detail_tasks.push_back(std::move(task));
        }
        plans.push_back(std::move(plan));
    }
    obs::counter("phase.comm_costs.measurements", obs::Stability::Stable)
        .add(detail_tasks.size());
    const std::vector<std::vector<double>> detailed = engine.run(detail_tasks);

    const auto sample = [&](std::size_t task) -> const std::vector<double>& {
        return checked_latencies(detail_tasks[task], detailed[task]);
    };
    for (std::size_t li = 0; li < result.layers.size(); ++li) {
        CommLayer& layer = result.layers[li];
        const LayerPlan& plan = plans[li];
        for (std::size_t si = 0; si < sweep.size(); ++si)
            layer.p2p.emplace_back(sweep[si], sample(plan.sweep_task[si])[0]);

        const Seconds isolated = sample(plan.isolated_task)[0];
        for (std::size_t ki = 0; ki < plan.concurrent_task.size(); ++ki) {
            const std::vector<double>& latencies = sample(plan.concurrent_task[ki]);
            // The paper reports how much slower one message gets with the
            // others in flight: use the mean across active senders.
            Seconds total = 0;
            for (Seconds t : latencies) total += t;
            layer.slowdown_by_n.push_back(
                total / (static_cast<double>(latencies.size()) * isolated));
        }
    }

    SERVET_LOG_INFO("comm-costs: %zu layers detected over %zu pairs", result.layers.size(),
                    result.pairs.size());
    return result;
}

CommCostsResult characterize_communication(msg::Network& network,
                                           const CommCostsOptions& options) {
    MeasureEngine engine(nullptr, &network, nullptr, nullptr);
    return characterize_communication(engine, options);
}

}  // namespace servet::core
