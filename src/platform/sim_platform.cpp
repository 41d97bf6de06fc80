#include "platform/sim_platform.hpp"

#include "base/check.hpp"
#include "base/hash.hpp"

namespace servet {

SimPlatform::SimPlatform(sim::MachineSpec spec)
    : sim_(std::move(spec)), noise_(sim_.seed() ^ 0x901e54ULL) {}

SimPlatform::SimPlatform(sim::MachineSim sim, std::uint64_t noise_seed, Engine engine)
    : sim_(std::move(sim)), noise_(noise_seed), engine_(engine) {}

std::string SimPlatform::name() const { return "sim:" + sim_.spec().name; }

std::uint64_t SimPlatform::fingerprint() const { return sim_.fingerprint(); }

std::unique_ptr<Platform> SimPlatform::fork(std::uint64_t noise_salt,
                                            std::uint64_t placement_salt) const {
    // The placement salt gives fresh-allocation tasks (the mcalibrator
    // sweep) decorrelated physical placements per task. Tasks probing
    // static buffers pass 0 so a size's placement stays identical across
    // tasks and reference/concurrent ratios cancel placement luck.
    std::uint64_t seed = sim_.seed();
    if (placement_salt != 0) seed ^= mix64(placement_salt);
    const std::uint64_t noise_seed = mix64(seed ^ 0x901e54ULL ^ noise_salt);
    return std::unique_ptr<Platform>(new SimPlatform(sim_.replica(seed), noise_seed, engine_));
}

int SimPlatform::core_count() const { return sim_.spec().n_cores; }

Bytes SimPlatform::page_size() const { return sim_.spec().page_size; }

double SimPlatform::jitter() { return noise_.jitter(sim_.spec().measurement_jitter); }

Cycles SimPlatform::traverse_cycles(CoreId core, Bytes array_bytes, Bytes stride, int passes,
                                    bool fresh_placement) {
    return traverse_cycles_concurrent({core}, array_bytes, stride, passes, fresh_placement)
        .front();
}

std::vector<Cycles> SimPlatform::traverse_cycles_concurrent(const std::vector<CoreId>& cores,
                                                            Bytes array_bytes, Bytes stride,
                                                            int passes, bool fresh_placement) {
    sim::TraversalResult result =
        engine_ == Engine::Batched
            ? sim_.traverse(cores, array_bytes, stride, passes, fresh_placement)
            : sim_.traverse_reference(cores, array_bytes, stride, passes, fresh_placement);
    for (Cycles& c : result.cycles_per_access) c *= jitter();
    return std::move(result.cycles_per_access);
}

BytesPerSecond SimPlatform::copy_bandwidth(CoreId core, Bytes array_bytes) {
    return sim_.copy_bandwidth(core, {core}, array_bytes) * jitter();
}

std::vector<BytesPerSecond> SimPlatform::copy_bandwidth_concurrent(
    const std::vector<CoreId>& cores, Bytes array_bytes) {
    std::vector<BytesPerSecond> result;
    result.reserve(cores.size());
    for (CoreId core : cores)
        result.push_back(sim_.copy_bandwidth(core, cores, array_bytes) * jitter());
    return result;
}

}  // namespace servet
