#include "core/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace servet::core {

namespace {

constexpr const char* kPhaseCacheSize = "cache_size";
constexpr const char* kPhaseSharedCaches = "shared_caches";
constexpr const char* kPhaseMemOverhead = "mem_overhead";
constexpr const char* kPhaseCommCosts = "comm_costs";

/// Measured ratios are never exact; a violation must survive jitter
/// before it is worth flagging.
constexpr double kRatioSlack = 0.02;

std::string fmt(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

class Checker {
  public:
    explicit Checker(const Profile& profile) : profile_(profile) {}

    ValidationReport run() {
        check_header();
        check_caches();
        check_memory();
        check_comm();
        check_partial();
        return std::move(report_);
    }

  private:
    void add(std::string code, Severity severity, std::string phase, std::string message) {
        report_.violations.push_back(
            {std::move(code), severity, std::move(phase), std::move(message)});
    }

    /// Checks one level's core groups: every core in range, no core in
    /// two groups of the same level (shared sets must partition).
    void check_groups(const std::vector<std::vector<CoreId>>& groups,
                      const std::string& what, const std::string& code_prefix,
                      const std::string& phase) {
        std::set<CoreId> seen;
        for (const std::vector<CoreId>& group : groups) {
            for (const CoreId core : group) {
                if (core < 0 || core >= profile_.cores)
                    add(code_prefix + ".groups-range", Severity::Error, phase,
                        what + " names core " + std::to_string(core) + " but the machine has " +
                            std::to_string(profile_.cores) + " cores");
                if (!seen.insert(core).second)
                    add(code_prefix + ".groups-overlap", Severity::Error, phase,
                        what + " lists core " + std::to_string(core) +
                            " in two sharing groups; shared-core sets must partition the "
                            "cores");
            }
        }
    }

    void check_header() {
        if (profile_.cores <= 0)
            add("profile.cores", Severity::Error, "",
                "core count is " + std::to_string(profile_.cores) + "; must be positive");
        if (profile_.page_size == 0)
            add("profile.page-size", Severity::Warning, "", "page size is 0");
    }

    void check_caches() {
        for (std::size_t i = 0; i < profile_.caches.size(); ++i) {
            const ProfileCacheLevel& level = profile_.caches[i];
            const std::string name = "cache level " + std::to_string(i + 1);
            if (level.size == 0)
                add("cache.size-positive", Severity::Error, kPhaseCacheSize,
                    name + " has size 0");
            if (i > 0 && level.size <= profile_.caches[i - 1].size)
                add("cache.size-order", Severity::Error, kPhaseCacheSize,
                    name + " (" + std::to_string(level.size) +
                        " bytes) is not larger than level " + std::to_string(i) + " (" +
                        std::to_string(profile_.caches[i - 1].size) +
                        " bytes); cache sizes must strictly increase up the hierarchy");
            check_groups(level.groups, name, "cache", kPhaseSharedCaches);
        }
    }

    void check_memory() {
        const ProfileMemory& memory = profile_.memory;
        const bool has_reference = memory.reference_bandwidth > 0;
        if (memory.reference_bandwidth < 0)
            add("memory.reference-negative", Severity::Error, kPhaseMemOverhead,
                "reference bandwidth is negative (" + fmt(memory.reference_bandwidth) + ")");
        else if (!has_reference && !memory.tiers.empty())
            add("memory.reference-missing", Severity::Error, kPhaseMemOverhead,
                "memory tiers are present but the reference bandwidth is 0");
        for (std::size_t i = 0; i < memory.tiers.size(); ++i) {
            const ProfileMemoryTier& tier = memory.tiers[i];
            const std::string name = "memory tier " + std::to_string(i);
            if (tier.bandwidth <= 0)
                add("memory.tier-bandwidth", Severity::Error, kPhaseMemOverhead,
                    name + " bandwidth is " + fmt(tier.bandwidth) + "; must be positive");
            else if (has_reference &&
                     tier.bandwidth > memory.reference_bandwidth * (1.0 + kRatioSlack))
                add("memory.tier-exceeds-reference", Severity::Error, kPhaseMemOverhead,
                    name + " bandwidth (" + fmt(tier.bandwidth) +
                        ") exceeds the uncontended reference (" +
                        fmt(memory.reference_bandwidth) +
                        "); contention can only reduce bandwidth");
            check_groups(tier.groups, name, "memory", kPhaseMemOverhead);
            for (std::size_t k = 0; k < tier.scalability.size(); ++k) {
                const BytesPerSecond bw = tier.scalability[k];
                if (bw <= 0) {
                    add("memory.scalability-positive", Severity::Error, kPhaseMemOverhead,
                        name + " scalability entry " + std::to_string(k + 1) + " is " +
                            fmt(bw) + "; must be positive");
                } else if (k > 0 && bw > tier.scalability[k - 1] * (1.0 + kRatioSlack)) {
                    add("memory.scalability-order", Severity::Warning, kPhaseMemOverhead,
                        name + ": per-core bandwidth rises from " +
                            fmt(tier.scalability[k - 1]) + " to " + fmt(bw) + " at " +
                            std::to_string(k + 1) +
                            " concurrent cores; adding contenders should not speed cores "
                            "up");
                }
            }
        }
    }

    void check_comm() {
        for (std::size_t i = 0; i < profile_.comm.size(); ++i) {
            const ProfileCommLayer& layer = profile_.comm[i];
            const std::string name = "comm layer " + std::to_string(i);
            if (!(layer.latency > 0 && std::isfinite(layer.latency)))
                add("comm.latency-positive", Severity::Error, kPhaseCommCosts,
                    name + " latency is " + fmt(layer.latency) +
                        "; must be positive and finite");
            if (i > 0 && layer.latency < profile_.comm[i - 1].latency * (1.0 - kRatioSlack))
                add("comm.latency-order", Severity::Error, kPhaseCommCosts,
                    name + " latency (" + fmt(layer.latency) + "s) is below layer " +
                        std::to_string(i - 1) + " (" + fmt(profile_.comm[i - 1].latency) +
                        "s); layers are ordered nearest-first, so latency must not "
                        "decrease");
            for (const CorePair pair : layer.pairs) {
                if (pair.a < 0 || pair.a >= profile_.cores || pair.b < 0 ||
                    pair.b >= profile_.cores)
                    add("comm.pair-range", Severity::Error, kPhaseCommCosts,
                        name + " pair {" + std::to_string(pair.a) + "," +
                            std::to_string(pair.b) + "} names a core outside 0.." +
                            std::to_string(profile_.cores - 1));
            }
            check_p2p(layer, i, name);
            for (std::size_t k = 0; k < layer.slowdown.size(); ++k) {
                const double slowdown = layer.slowdown[k];
                if (!std::isfinite(slowdown) || slowdown < 1.0 - kRatioSlack)
                    add("comm.slowdown-band", Severity::Warning, kPhaseCommCosts,
                        name + " slowdown at " + std::to_string(k + 1) +
                            " concurrent messages is " + fmt(slowdown) +
                            (std::isfinite(slowdown)
                                 ? "; concurrency cannot make a link faster than idle"
                                 : "; must be finite"));
            }
        }
    }

    void check_p2p(const ProfileCommLayer& layer, std::size_t index, const std::string& name) {
        for (std::size_t k = 0; k < layer.p2p.size(); ++k) {
            const auto& [size, latency] = layer.p2p[k];
            if (!(latency > 0 && std::isfinite(latency)))
                add("comm.p2p-latency-positive", Severity::Error, kPhaseCommCosts,
                    name + " p2p latency at " + std::to_string(size) + " bytes is " +
                        fmt(latency) + "; must be positive and finite");
            if (k > 0 && size <= layer.p2p[k - 1].first)
                add("comm.p2p-size-order", Severity::Error, kPhaseCommCosts,
                    name + " p2p sweep sizes are not strictly increasing at entry " +
                        std::to_string(k));
            // Effective bandwidth size/latency must not grow without bound
            // as messages shrink... the real invariant across entries is
            // that latency never falls as the message grows.
            if (k > 0 && latency < layer.p2p[k - 1].second * (1.0 - kRatioSlack))
                add("comm.p2p-latency-order", Severity::Warning, kPhaseCommCosts,
                    name + " p2p latency falls from " + fmt(layer.p2p[k - 1].second) +
                        "s to " + fmt(latency) + "s as the message grows to " +
                        std::to_string(size) + " bytes");
        }
        // Bandwidth must not increase toward more remote layers: compare
        // at every message size the two adjacent layers both measured.
        if (index == 0) return;
        const ProfileCommLayer& nearer = profile_.comm[index - 1];
        for (const auto& [size, latency] : layer.p2p) {
            const auto it =
                std::find_if(nearer.p2p.begin(), nearer.p2p.end(),
                             [size = size](const auto& entry) { return entry.first == size; });
            if (it == nearer.p2p.end() || latency <= 0 || it->second <= 0) continue;
            const double bandwidth = static_cast<double>(size) / latency;
            const double nearer_bandwidth = static_cast<double>(size) / it->second;
            if (bandwidth > nearer_bandwidth * (1.0 + kRatioSlack))
                add("comm.bandwidth-order", Severity::Error, kPhaseCommCosts,
                    name + " moves " + std::to_string(size) + "-byte messages at " +
                        fmt(bandwidth) + " B/s, faster than the nearer layer " +
                        std::to_string(index - 1) + " (" + fmt(nearer_bandwidth) +
                        " B/s); bandwidth must not increase with distance");
        }
    }

    void check_partial() {
        for (const auto& [phase, message] : profile_.errors)
            add("profile.partial", Severity::Warning, phase,
                "phase " + phase + " failed in the producing run: " + message);
    }

    const Profile& profile_;
    ValidationReport report_;
};

}  // namespace

const char* to_string(Severity severity) {
    return severity == Severity::Error ? "error" : "warning";
}

bool ValidationReport::has_errors() const {
    return std::any_of(violations.begin(), violations.end(),
                       [](const Violation& v) { return v.severity == Severity::Error; });
}

std::vector<std::string> ValidationReport::implicated_phases() const {
    std::set<std::string> implicated;
    for (const Violation& v : violations)
        if (v.severity == Severity::Error && !v.phase.empty()) implicated.insert(v.phase);
    if (implicated.count(kPhaseCacheSize) != 0)
        implicated.insert({kPhaseSharedCaches, kPhaseMemOverhead, kPhaseCommCosts});
    std::vector<std::string> ordered;
    for (const char* phase :
         {kPhaseCacheSize, kPhaseSharedCaches, kPhaseMemOverhead, kPhaseCommCosts})
        if (implicated.erase(phase) != 0) ordered.push_back(phase);
    ordered.insert(ordered.end(), implicated.begin(), implicated.end());
    return ordered;
}

ValidationReport validate_profile(const Profile& profile) {
    return Checker(profile).run();
}

}  // namespace servet::core
