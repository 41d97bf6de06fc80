// Per-layer accounting measured from outside the program: self time per
// span family, read from the spans the obs tracer already records plus
// the harness's own spans around each call into a layer, and the
// replica construction every measurement task pays, timed by forwarding
// decorators around the measured platform and network.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "msg/network.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"

namespace bench {

/// Self time per span family, summed over every thread, and the traced
/// thread time the self times partition: on each thread, the time covered
/// by its outermost spans.
struct SpanTotals {
    std::map<std::string, std::uint64_t> self_ns;
    std::uint64_t thread_ns = 0;

    SpanTotals& operator+=(const SpanTotals& other);
};

/// Self time of every family in `events`: a span's duration minus the
/// part its direct children on the same thread cover.
[[nodiscard]] SpanTotals span_totals(const std::vector<servet::obs::SpanEvent>& events);

/// fork() time and calls, summed over traced ops.
struct ForkTotals {
    std::uint64_t platform_ns = 0;
    std::uint64_t platform_calls = 0;
    std::uint64_t network_ns = 0;
    std::uint64_t network_calls = 0;
};

/// Sums the fork() time of every decorator of a run; forks run on the
/// exec pool's threads, so it is atomic.
class ForkClock {
  public:
    void add_platform(std::uint64_t ns) { add(platform_ns_, platform_calls_, ns); }
    void add_network(std::uint64_t ns) { add(network_ns_, network_calls_, ns); }
    /// Adds everything recorded since the last call to `totals`, then
    /// starts over.
    void drain_into(ForkTotals& totals);

  private:
    static void add(std::atomic<std::uint64_t>& ns, std::atomic<std::uint64_t>& calls,
                    std::uint64_t delta) {
        ns.fetch_add(delta, std::memory_order_relaxed);
        calls.fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<std::uint64_t> platform_ns_{0};
    std::atomic<std::uint64_t> platform_calls_{0};
    std::atomic<std::uint64_t> network_ns_{0};
    std::atomic<std::uint64_t> network_calls_{0};
};

/// Forwards every call to the wrapped platform and times fork(). The
/// replicas it returns are the wrapped platform's own, so measurements,
/// names and fingerprints are unchanged.
class ForkTimedPlatform final : public servet::Platform {
  public:
    ForkTimedPlatform(std::unique_ptr<servet::Platform> inner, ForkClock& clock)
        : inner_(std::move(inner)), clock_(clock) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] int core_count() const override { return inner_->core_count(); }
    [[nodiscard]] servet::Bytes page_size() const override { return inner_->page_size(); }
    [[nodiscard]] std::uint64_t fingerprint() const override { return inner_->fingerprint(); }
    [[nodiscard]] bool forkable() const override { return inner_->forkable(); }
    [[nodiscard]] std::unique_ptr<servet::Platform> fork(
        std::uint64_t noise_salt, std::uint64_t placement_salt) const override;
    [[nodiscard]] servet::Cycles traverse_cycles(servet::CoreId core, servet::Bytes array_bytes,
                                                 servet::Bytes stride, int passes,
                                                 bool fresh_placement) override {
        return inner_->traverse_cycles(core, array_bytes, stride, passes, fresh_placement);
    }
    [[nodiscard]] std::vector<servet::Cycles> traverse_cycles_concurrent(
        const std::vector<servet::CoreId>& cores, servet::Bytes array_bytes,
        servet::Bytes stride, int passes, bool fresh_placement) override {
        return inner_->traverse_cycles_concurrent(cores, array_bytes, stride, passes,
                                                  fresh_placement);
    }
    [[nodiscard]] servet::BytesPerSecond copy_bandwidth(servet::CoreId core,
                                                        servet::Bytes array_bytes) override {
        return inner_->copy_bandwidth(core, array_bytes);
    }
    [[nodiscard]] std::vector<servet::BytesPerSecond> copy_bandwidth_concurrent(
        const std::vector<servet::CoreId>& cores, servet::Bytes array_bytes) override {
        return inner_->copy_bandwidth_concurrent(cores, array_bytes);
    }

  private:
    std::unique_ptr<servet::Platform> inner_;
    ForkClock& clock_;
};

/// The msg::Network counterpart of ForkTimedPlatform.
class ForkTimedNetwork final : public servet::msg::Network {
  public:
    ForkTimedNetwork(std::unique_ptr<servet::msg::Network> inner, ForkClock& clock)
        : inner_(std::move(inner)), clock_(clock) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::uint64_t fingerprint() const override { return inner_->fingerprint(); }
    [[nodiscard]] bool forkable() const override { return inner_->forkable(); }
    [[nodiscard]] std::unique_ptr<servet::msg::Network> fork(
        std::uint64_t noise_salt) const override;
    [[nodiscard]] int endpoint_count() const override { return inner_->endpoint_count(); }
    [[nodiscard]] servet::Seconds pingpong_latency(servet::CorePair pair, servet::Bytes size,
                                                   int reps) override {
        return inner_->pingpong_latency(pair, size, reps);
    }
    [[nodiscard]] std::vector<servet::Seconds> concurrent_latency(
        const std::vector<servet::CorePair>& pairs, servet::Bytes size, int reps) override {
        return inner_->concurrent_latency(pairs, size, reps);
    }

  private:
    std::unique_ptr<servet::msg::Network> inner_;
    ForkClock& clock_;
};

}  // namespace bench
