#include "msg/faulty_network.hpp"

#include "base/check.hpp"
#include "base/hash.hpp"
#include "obs/metrics.hpp"

namespace servet::msg {

namespace {

// Stable: drops/delays are functions of the plan seed and the task salts,
// never of scheduling.
obs::Counter& fault_drops() {
    static obs::Counter& c = obs::counter("msg.fault.drops", obs::Stability::Stable);
    return c;
}
obs::Counter& fault_delays() {
    static obs::Counter& c = obs::counter("msg.fault.delays", obs::Stability::Stable);
    return c;
}

}  // namespace

FaultyNetwork::FaultyNetwork(Network& inner, const FaultPlan& plan)
    : inner_(&inner), plan_(plan), rng_(plan.seed) {
    SERVET_CHECK(plan.drop_probability >= 0 && plan.drop_probability <= 1);
    SERVET_CHECK(plan.delay_probability >= 0 && plan.delay_probability <= 1);
    SERVET_CHECK_MSG(plan.drop_probability + plan.delay_probability <= 1.0,
                     "network fault probabilities must sum to at most 1");
    SERVET_CHECK(plan.delay_factor >= 1.0);
}

FaultyNetwork::FaultyNetwork(std::unique_ptr<Network> owned, const FaultPlan& plan)
    : inner_(owned.get()), owned_(std::move(owned)), plan_(plan), rng_(plan.seed) {}

std::string FaultyNetwork::name() const { return "faulty(" + inner_->name() + ")"; }

std::uint64_t FaultyNetwork::fingerprint() const {
    const std::uint64_t inner = inner_->fingerprint();
    if (inner == 0) return 0;
    // Mirrors FlakyPlatform: a drop-only plan never changes a measured
    // latency (the retried transfer reports the true value), so it keeps
    // the inner fingerprint and stays memo/journal-compatible with clean
    // runs. Only delays perturb values.
    if (!plan_.perturbs_network_values()) return inner;
    return inner ^ mix64(plan_.fingerprint());
}

std::unique_ptr<Network> FaultyNetwork::fork(std::uint64_t noise_salt) const {
    std::unique_ptr<Network> inner = inner_->fork(noise_salt);
    if (inner == nullptr) return nullptr;
    // Replica fault streams derive from (plan seed, task salt), matching
    // FlakyPlatform: parallel runs drop the same messages as serial ones.
    FaultPlan plan = plan_;
    plan.seed = mix64(plan_.seed ^ noise_salt);
    return std::unique_ptr<Network>(new FaultyNetwork(std::move(inner), plan));
}

Seconds FaultyNetwork::filter(Seconds latency) {
    const double u = rng_.next_double();
    double band = plan_.drop_probability;
    if (u < band) {
        fault_drops().increment();
        throw TransientNetworkError("injected message drop");
    }
    band += plan_.delay_probability;
    if (u < band) {
        fault_delays().increment();
        return latency * plan_.delay_factor;
    }
    return latency;
}

Seconds FaultyNetwork::pingpong_latency(CorePair pair, Bytes size, int reps) {
    return filter(inner_->pingpong_latency(pair, size, reps));
}

std::vector<Seconds> FaultyNetwork::concurrent_latency(const std::vector<CorePair>& pairs,
                                                       Bytes size, int reps) {
    std::vector<Seconds> result = inner_->concurrent_latency(pairs, size, reps);
    for (Seconds& s : result) s = filter(s);
    return result;
}

}  // namespace servet::msg
