#include "msg/sim_network.hpp"

#include <map>
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

void SimNetwork::count_transfers(CorePair pair, Bytes size, int reps) {
    // A ping-pong rep is two messages, one each way.
    const std::uint64_t transfers = 2 * static_cast<std::uint64_t>(reps);
    messages_counter().add(transfers);
    bytes_counter().add(transfers * size);
    const int layer = model_.layer_of(pair);
    if (layer >= 0 && layer < static_cast<int>(layer_transfers_.size()))
        layer_transfers_[static_cast<std::size_t>(layer)]->add(transfers);
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
    count_transfers(pair, size, reps);
    // Reps average out jitter, as on hardware: simulate each rep's noise.
    Seconds total = 0;
    for (int r = 0; r < reps; ++r)
        total += model_.latency(pair, size) *
                 noise_.jitter(model_.spec().measurement_jitter);
    return total / reps;
}

std::vector<Seconds> SimNetwork::concurrent_latency(const std::vector<CorePair>& pairs,
                                                    Bytes size, int reps) {
    SERVET_TRACE_SPAN("msg/concurrent");
    SERVET_CHECK(!pairs.empty() && reps > 0);
    concurrent_calls().increment();
    for (const CorePair& pair : pairs) count_transfers(pair, size, reps);
    // Contention is per layer: messages sharing a layer slow each other
    // down; traffic on other layers does not interfere.
    std::map<int, int> on_layer;
    for (const CorePair& pair : pairs) ++on_layer[model_.layer_of(pair)];

    std::vector<Seconds> result;
    result.reserve(pairs.size());
    for (const CorePair& pair : pairs) {
        const int concurrent = on_layer[model_.layer_of(pair)];
        Seconds total = 0;
        for (int r = 0; r < reps; ++r)
            total += model_.latency_concurrent(pair, size, concurrent) *
                     noise_.jitter(model_.spec().measurement_jitter);
        result.push_back(total / reps);
    }
    return result;
}

}  // namespace servet::msg
