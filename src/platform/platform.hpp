// The measurement substrate the Servet suite runs against. The detection
// algorithms (Section III) consume only these observables — per-access
// cycles of strided traversals and streaming-copy bandwidths, solo or with
// a chosen set of cores running concurrently. Two implementations exist:
// NativePlatform measures real hardware with pinned threads; SimPlatform
// executes the machine simulator. Detection code cannot tell them apart,
// which is the point: the suite stays a pure measurement consumer, exactly
// as portable as the paper claims.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hpp"

namespace servet {

class Platform {
  public:
    virtual ~Platform() = default;

    [[nodiscard]] virtual std::string name() const = 0;
    [[nodiscard]] virtual int core_count() const = 0;
    [[nodiscard]] virtual Bytes page_size() const = 0;

    /// Stable content hash of the measured machine, or 0 when the
    /// platform is not content-addressable (real hardware drifts run to
    /// run). Non-zero fingerprints key the measurement memo cache.
    [[nodiscard]] virtual std::uint64_t fingerprint() const { return 0; }

    /// Whether fork() produces replicas. Cheap by contract: engines call
    /// this during construction to decide between the parallel and serial
    /// paths without building a replica just to discard it. (A SimPlatform
    /// replica is cheap — it shares the parent's spec and allocates no
    /// cache state until it first traverses — but a platform's replicas
    /// need not be.) Must agree with fork():
    /// forkable() == (fork(...) != nullptr).
    [[nodiscard]] virtual bool forkable() const { return false; }

    /// Independent replica of this platform for one measurement task, or
    /// nullptr when replicas are impossible (real hardware: concurrent
    /// probes would contend for the very resources being measured).
    /// `noise_salt` seeds the replica's measurement-noise RNG and
    /// `placement_salt` (when non-zero) perturbs its physical page
    /// placement; deriving both from a stable task key — never from
    /// scheduling order — is what makes parallel suite runs bit-identical
    /// to serial ones.
    [[nodiscard]] virtual std::unique_ptr<Platform> fork(std::uint64_t noise_salt,
                                                         std::uint64_t placement_salt) const {
        (void)noise_salt;
        (void)placement_salt;
        return nullptr;
    }

    /// Average cycles per access of the mcalibrator traversal (Fig. 1):
    /// `core` walks an array of `array_bytes` with `stride`, one warm-up
    /// pass plus `passes` measured passes. `fresh_placement` selects
    /// between a freshly allocated array (new random physical placement —
    /// what repeated size measurements average over) and a statically
    /// allocated buffer reused across calls with the same size (what the
    /// pairwise ratio probes need so placement luck cancels). Platforms
    /// without that degree of control may ignore the flag.
    [[nodiscard]] virtual Cycles traverse_cycles(CoreId core, Bytes array_bytes, Bytes stride,
                                                 int passes, bool fresh_placement = true) = 0;

    /// The same traversal run concurrently by every core in `cores`, each
    /// on its own array; returns per-core cycles per access, aligned with
    /// `cores`. This is the probe behind shared-cache detection (Fig. 5).
    [[nodiscard]] virtual std::vector<Cycles> traverse_cycles_concurrent(
        const std::vector<CoreId>& cores, Bytes array_bytes, Bytes stride, int passes,
        bool fresh_placement = true) = 0;

    /// STREAM-style copy bandwidth of a single isolated core (the "ref"
    /// measurement of Fig. 6).
    [[nodiscard]] virtual BytesPerSecond copy_bandwidth(CoreId core, Bytes array_bytes) = 0;

    /// Copy bandwidth of each core in `cores` while all of them stream
    /// concurrently; aligned with `cores`.
    [[nodiscard]] virtual std::vector<BytesPerSecond> copy_bandwidth_concurrent(
        const std::vector<CoreId>& cores, Bytes array_bytes) = 0;
};

}  // namespace servet
