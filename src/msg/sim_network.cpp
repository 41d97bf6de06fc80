#include "msg/sim_network.hpp"

#include <string>

#include "base/check.hpp"
#include "base/hash.hpp"
#include "obs/trace.hpp"

namespace servet::msg {

namespace {

obs::Counter& pingpong_calls() {
    static obs::Counter& c = obs::counter("msg.pingpong.calls", obs::Stability::Stable);
    return c;
}
obs::Counter& concurrent_calls() {
    static obs::Counter& c = obs::counter("msg.concurrent.calls", obs::Stability::Stable);
    return c;
}
obs::Counter& messages_counter() {
    static obs::Counter& c = obs::counter("msg.messages", obs::Stability::Stable);
    return c;
}
obs::Counter& bytes_counter() {
    static obs::Counter& c = obs::counter("msg.bytes", obs::Stability::Stable);
    return c;
}

std::vector<obs::Counter*> layer_counters(int layers) {
    std::vector<obs::Counter*> result;
    result.reserve(static_cast<std::size_t>(layers));
    for (int k = 0; k < layers; ++k)
        result.push_back(&obs::counter("msg.layer" + std::to_string(k) + ".transfers",
                                       obs::Stability::Stable));
    return result;
}

}  // namespace

SimNetwork::SimNetwork(sim::MachineSpec spec)
    : spec_(std::make_shared<const sim::MachineSpec>(std::move(spec))),
      model_(*spec_),
      noise_(spec_->seed ^ 0xc0337ULL),
      layer_transfers_(layer_counters(model_.layer_count())) {}

SimNetwork::SimNetwork(const SimNetwork& parent, std::uint64_t noise_seed)
    : spec_(parent.spec_),
      model_(parent.model_),
      noise_(noise_seed),
      layer_transfers_(parent.layer_transfers_) {}

void SimNetwork::count_transfers(int layer, Bytes size, int reps) {
    // A ping-pong rep is two messages, one each way.
    const std::uint64_t transfers = 2 * static_cast<std::uint64_t>(reps);
    messages_counter().add(transfers);
    bytes_counter().add(transfers * size);
    layer_transfers_[static_cast<std::size_t>(layer)]->add(transfers);
}

Seconds SimNetwork::mean_of_reps(Seconds latency, int reps) {
    // Reps average out jitter, as on hardware: the modelled latency is the
    // same on every rep, only its noise is drawn per rep.
    Seconds total = 0;
    for (int r = 0; r < reps; ++r)
        total += latency * noise_.jitter(model_.spec().measurement_jitter);
    return total / reps;
}

std::string SimNetwork::name() const { return "simnet:" + model_.spec().name; }

std::uint64_t SimNetwork::fingerprint() const { return spec_->fingerprint(); }

std::unique_ptr<Network> SimNetwork::fork(std::uint64_t noise_salt) const {
    const std::uint64_t noise_seed = mix64(spec_->seed ^ 0xc0337ULL ^ noise_salt);
    return std::unique_ptr<Network>(new SimNetwork(*this, noise_seed));
}

int SimNetwork::endpoint_count() const { return model_.spec().n_cores; }

Seconds SimNetwork::pingpong_latency(CorePair pair, Bytes size, int reps) {
    SERVET_TRACE_SPAN("msg/pingpong");
    SERVET_CHECK(reps > 0);
    pingpong_calls().increment();
    const sim::PairCost cost = model_.cost(pair, size);
    count_transfers(cost.layer, size, reps);
    return mean_of_reps(cost.latency, reps);
}

std::vector<Seconds> SimNetwork::concurrent_latency(const std::vector<CorePair>& pairs,
                                                    Bytes size, int reps) {
    SERVET_TRACE_SPAN("msg/concurrent");
    SERVET_CHECK(!pairs.empty() && reps > 0);
    concurrent_calls().increment();
    // Contention is per layer: messages sharing a layer slow each other
    // down; traffic on other layers does not interfere.
    std::vector<sim::PairCost> costs;
    costs.reserve(pairs.size());
    std::vector<int> on_layer(layer_transfers_.size(), 0);
    for (const CorePair& pair : pairs) {
        costs.push_back(model_.cost(pair, size));
        count_transfers(costs.back().layer, size, reps);
        ++on_layer[static_cast<std::size_t>(costs.back().layer)];
    }

    std::vector<Seconds> result;
    result.reserve(pairs.size());
    for (const sim::PairCost& cost : costs)
        result.push_back(mean_of_reps(
            cost.concurrent(on_layer[static_cast<std::size_t>(cost.layer)]), reps));
    return result;
}

}  // namespace servet::msg
