// Platform implementation over the machine simulator, with deterministic
// measurement jitter (spec.measurement_jitter) layered on top so the
// suite's clustering/thresholding logic is exercised the way real noisy
// measurements would.
#pragma once

#include <memory>

#include "base/rng.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"

namespace servet {

class SimPlatform final : public Platform {
  public:
    /// Which MachineSim engine serves traversal requests. Batched is the
    /// production line-stream pipeline; Reference is the scalar oracle —
    /// cycle-for-cycle identical, kept selectable so equivalence suites
    /// and the perf smoke test can drive both through the platform API.
    enum class Engine { Batched, Reference };

    explicit SimPlatform(sim::MachineSpec spec);

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] int core_count() const override;
    [[nodiscard]] Bytes page_size() const override;
    [[nodiscard]] std::uint64_t fingerprint() const override;
    [[nodiscard]] bool forkable() const override { return true; }
    [[nodiscard]] std::unique_ptr<Platform> fork(std::uint64_t noise_salt,
                                                 std::uint64_t placement_salt) const override;

    [[nodiscard]] Cycles traverse_cycles(CoreId core, Bytes array_bytes, Bytes stride,
                                         int passes, bool fresh_placement) override;
    [[nodiscard]] std::vector<Cycles> traverse_cycles_concurrent(
        const std::vector<CoreId>& cores, Bytes array_bytes, Bytes stride, int passes,
        bool fresh_placement) override;
    [[nodiscard]] BytesPerSecond copy_bandwidth(CoreId core, Bytes array_bytes) override;
    [[nodiscard]] std::vector<BytesPerSecond> copy_bandwidth_concurrent(
        const std::vector<CoreId>& cores, Bytes array_bytes) override;

    /// The machine spec, shared by every fork. A placement-salted fork
    /// simulates it under its own seed (machine().seed()).
    [[nodiscard]] const sim::MachineSpec& spec() const { return sim_.spec(); }
    [[nodiscard]] sim::MachineSim& machine() { return sim_; }

    /// Engine selection survives fork(), so a suite run pinned to the
    /// scalar oracle stays on it across replicas.
    void set_engine(Engine engine) { engine_ = engine; }
    [[nodiscard]] Engine engine() const { return engine_; }

  private:
    /// fork(): a replica simulator with a private noise stream.
    SimPlatform(sim::MachineSim sim, std::uint64_t noise_seed, Engine engine);

    [[nodiscard]] double jitter();

    sim::MachineSim sim_;
    Rng noise_;
    Engine engine_ = Engine::Batched;
};

}  // namespace servet
