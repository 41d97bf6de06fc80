// Network over the interconnect model, with the machine's deterministic
// measurement jitter applied per measurement.
#pragma once

#include <memory>
#include <vector>

#include "base/rng.hpp"
#include "msg/network.hpp"
#include "obs/metrics.hpp"
#include "sim/interconnect.hpp"

namespace servet::msg {

class SimNetwork final : public Network {
  public:
    /// Takes its own copy of the spec: temporaries are safe. Forks share
    /// that copy rather than making their own.
    explicit SimNetwork(sim::MachineSpec spec);

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::uint64_t fingerprint() const override;
    [[nodiscard]] bool forkable() const override { return true; }
    [[nodiscard]] std::unique_ptr<Network> fork(std::uint64_t noise_salt) const override;
    [[nodiscard]] int endpoint_count() const override;
    [[nodiscard]] Seconds pingpong_latency(CorePair pair, Bytes size, int reps) override;
    [[nodiscard]] std::vector<Seconds> concurrent_latency(const std::vector<CorePair>& pairs,
                                                          Bytes size, int reps) override;

    [[nodiscard]] const sim::InterconnectModel& model() const { return model_; }

  private:
    /// fork(): the same fabric, spec and counter handles, with a private
    /// noise stream.
    SimNetwork(const SimNetwork& parent, std::uint64_t noise_seed);

    /// Credits `2 * reps` simulated transfers of `size` bytes on `pair`'s
    /// layer to the msg.* counters.
    void count_transfers(CorePair pair, Bytes size, int reps);

    std::shared_ptr<const sim::MachineSpec> spec_;  // shared with forks
    sim::InterconnectModel model_;  // points into *spec_, so it survives moves
    Rng noise_;
    std::vector<obs::Counter*> layer_transfers_;  // msg.layer<k>.transfers
};

}  // namespace servet::msg
