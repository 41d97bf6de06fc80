// Network decorator injecting the message-side faults of a FaultPlan:
// drops (the transport times out waiting for a reply — thrown as
// TransientNetworkError, which comm_costs retries within its budget) and
// delays (a congested hop multiplies the observed latency). One decision
// per latency measurement, deterministic per plan seed; fork() mixes the
// task salt into the replica's stream so parallel fault injection is
// byte-identical to serial. Mirrors FlakyPlatform on the Platform side.
#pragma once

#include <memory>

#include "base/fault_plan.hpp"
#include "base/rng.hpp"
#include "msg/network.hpp"

namespace servet::msg {

class FaultyNetwork final : public Network {
  public:
    /// Uses only the network-side fields of `plan` (drop_probability,
    /// delay_probability, delay_factor, seed). `inner` must outlive this
    /// decorator.
    FaultyNetwork(Network& inner, const FaultPlan& plan);

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::uint64_t fingerprint() const override;
    [[nodiscard]] bool forkable() const override { return inner_->forkable(); }
    [[nodiscard]] std::unique_ptr<Network> fork(std::uint64_t noise_salt) const override;
    [[nodiscard]] int endpoint_count() const override { return inner_->endpoint_count(); }

    [[nodiscard]] Seconds pingpong_latency(CorePair pair, Bytes size, int reps) override;
    [[nodiscard]] std::vector<Seconds> concurrent_latency(const std::vector<CorePair>& pairs,
                                                          Bytes size, int reps) override;

  private:
    FaultyNetwork(std::unique_ptr<Network> owned, const FaultPlan& plan);

    /// Draws one fault decision for a measured latency. May throw
    /// TransientNetworkError (drop) or inflate the value (delay).
    [[nodiscard]] Seconds filter(Seconds latency);

    Network* inner_;
    std::unique_ptr<Network> owned_;  ///< set on forked replicas only
    FaultPlan plan_;
    Rng rng_;
};

}  // namespace servet::msg
