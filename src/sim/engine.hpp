// The machine simulator proper: owns one SetAssocCache per physical cache
// instance, a stream prefetcher per core, and a page mapper, and pushes
// benchmark access traces through them. Traversals by multiple cores are
// interleaved round-robin so thrashing in shared caches (the signal behind
// the shared-cache benchmark, Fig. 5) emerges from LRU replacement rather
// than being scripted.
//
// Two engines execute the same machine model (docs/simulator.md):
//
//  - traverse(): the batched line-stream pipeline. Each core's traversal
//    is planned once as an AccessStream, the cache lookup path per core is
//    resolved to a flat array at reset time, the prefetcher is notified
//    per constant-stride run instead of per access, and a one-entry
//    per-core page-translation cache collapses the page mapper and TLB
//    work to one consultation per page crossing. The init sweep is
//    written in closed form, and once a measured pass provably repeats
//    the pass before it, the remaining passes are booked from its record
//    instead of simulated.
//
//  - traverse_reference(): the scalar oracle — one access_cost() call per
//    core per element. Slow, obviously correct, and the equivalence
//    anchor: both engines must agree cycle-for-cycle and Stable-counter-
//    for-counter (tests/test_batched_equivalence.cpp), which is what lets
//    the golden profiles stay pinned across engine work.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hpp"
#include "obs/metrics.hpp"
#include "sim/access_stream.hpp"
#include "sim/machine.hpp"
#include "sim/memory_model.hpp"
#include "sim/page_mapper.hpp"
#include "sim/prefetcher.hpp"

namespace servet::sim {

struct TraversalResult {
    std::vector<Cycles> cycles_per_access;  ///< one entry per requested core
    std::uint64_t accesses_per_core = 0;
};

class MachineSim {
  public:
    /// Validates `spec` (CHECK-aborts on a bad one) and keeps it as an
    /// immutable description shared with every replica(). The simulated
    /// caches, TLBs, prefetchers and page mapper are built by the first
    /// traversal: every traversal starts by invalidating that state, so
    /// building it late changes no result, and a simulator that never
    /// traverses (a comm-only replica) never allocates it.
    explicit MachineSim(MachineSpec spec);

    /// The same machine with `seed` as its placement seed: shares this
    /// simulator's already-validated spec, starts with no simulated cache
    /// state of its own, and traverses independently of this one.
    [[nodiscard]] MachineSim replica(std::uint64_t seed) const;

    /// Each core in `cores` (all distinct) traverses its own array of
    /// `array_bytes` with the given stride (the mcalibrator access
    /// pattern, Fig. 1), interleaved access-by-access. The array is
    /// initialized (every line touched sequentially, as the real
    /// benchmark's setup loop does), one warm-up pass runs unmeasured,
    /// then `measure_passes` passes are timed.
    ///
    /// `fresh_placement` selects the allocation behaviour: true draws a
    /// fresh random physical placement (a new malloc+touch — what
    /// mcalibrator's repeats average over); false reuses a placement
    /// deterministic in (machine, array size, core) — a statically
    /// allocated buffer, which is what the pairwise shared-cache probe
    /// needs so its concurrent/reference ratio cancels placement luck.
    ///
    /// Runs the batched line-stream engine; cycle-for-cycle equal to
    /// traverse_reference().
    [[nodiscard]] TraversalResult traverse(const std::vector<CoreId>& cores, Bytes array_bytes,
                                           Bytes stride, int measure_passes,
                                           bool fresh_placement = true);

    /// The retained scalar engine: same contract, same results, one
    /// access_cost() per core per element. The equivalence oracle for
    /// traverse(); also a readable spec of the access semantics.
    [[nodiscard]] TraversalResult traverse_reference(const std::vector<CoreId>& cores,
                                                     Bytes array_bytes, Bytes stride,
                                                     int measure_passes,
                                                     bool fresh_placement = true);

    /// Single-core convenience wrapper over traverse().
    [[nodiscard]] Cycles traverse_one(CoreId core, Bytes array_bytes, Bytes stride,
                                      int measure_passes, bool fresh_placement = true);

    /// Analytic streaming-copy bandwidth (Section III-C substrate): `core`'s
    /// copy bandwidth while all cores in `active` stream concurrently.
    /// Arrays that fit in cache short-circuit to cache bandwidth — the
    /// benchmark layer is responsible for sizing arrays past the LLC.
    [[nodiscard]] BytesPerSecond copy_bandwidth(CoreId core, const std::vector<CoreId>& active,
                                                Bytes array_bytes) const;

    [[nodiscard]] const MachineSpec& spec() const { return *spec_; }
    [[nodiscard]] const MemoryModel& memory_model() const { return memory_; }

    /// Seed of the simulated page placement: spec().seed, or the seed a
    /// replica was given.
    [[nodiscard]] std::uint64_t seed() const { return seed_; }
    /// Structural hash of the machine as simulated: spec().fingerprint()
    /// with seed() in place of spec().seed.
    [[nodiscard]] std::uint64_t fingerprint() const {
        return spec_->fingerprint_with_seed(seed_);
    }

    /// Total simulated demand accesses since construction (for perf tests).
    [[nodiscard]] std::uint64_t total_accesses() const { return total_accesses_; }
    /// The part of total_accesses() that was pushed through the caches one
    /// by one. The batched engine applies the init sweep in closed form and
    /// replays passes that repeat the pass before them, so it simulates
    /// fewer; the scalar oracle simulates every access.
    [[nodiscard]] std::uint64_t simulated_accesses() const { return simulated_accesses_; }

    /// Hash of the simulated microarchitectural state, normalised so that
    /// both engines agree on it after every traversal: each cache's
    /// resident tags and prefetch bits per set in LRU rank order (not raw
    /// stamps), each TLB's resident pages in the same form, every
    /// prefetcher's stride state, and the page mapper's frames.
    [[nodiscard]] std::uint64_t state_digest() const;

  private:
    /// One step of a core's resolved lookup path: the physical cache
    /// instance serving the core at one level, with the level's cost and
    /// indexing mode flattened out of the spec, so the hot loop never
    /// consults instance_of_ or spec_->levels. Built once with the caches
    /// it points into; moving the simulator moves the vectors' storage,
    /// not the caches, so the pointers stay valid.
    struct ResolvedLevel {
        SetAssocCache* cache;
        Cycles hit_cycles;
        bool physically_indexed;
    };

    struct CoreRun;  // per-core batched traversal state (engine.cpp)

    /// replica(): `parent`'s spec, memory model and counter handles.
    MachineSim(const MachineSim& parent, std::uint64_t seed);

    /// Shared scaffolding of both engines: argument checks, microarch
    /// reset, address-space and contention setup, the init + warm-up +
    /// measured pass schedule, counter flush, and result packaging.
    /// `batched` picks the execution engine for the passes.
    [[nodiscard]] TraversalResult run_traversal(const std::vector<CoreId>& cores,
                                                Bytes array_bytes, Bytes stride,
                                                int measure_passes, bool fresh_placement,
                                                bool batched);

    /// Scalar engine: one interleaved constant-stride run over all cores,
    /// one access_cost() per element per core, accumulating per-core
    /// cycles into `totals` when non-null. The single loop body behind the
    /// init pass, the warm-up, and every measured pass. `run` holds
    /// offsets; each core's address is `bases[i] + run.address(k)`.
    void reference_pass(const std::vector<CoreId>& cores,
                        const std::vector<std::uint64_t>& bases, const AccessRun& run,
                        const std::vector<double>& latency_mult, std::vector<Cycles>* totals);

    /// Batched engine: the same interleaved run, streamed through the
    /// resolved paths with run-level prefetcher plans and page-translation
    /// caches. kMeasure selects cycle accumulation at compile time, kRecord
    /// the per-access outcome record that pass collapsing compares.
    template <bool kMeasure, bool kRecord>
    void batched_pass(std::vector<CoreRun>& runs, std::int64_t stride, std::uint64_t count);

    /// The init sweep of `runs` (planned with begin-of-run prefetcher plans
    /// in place) applied in closed form: writes the end state and counts
    /// that batched_pass over `init` would leave, and returns true. Returns
    /// false, changing nothing, when the sweep is outside the closed form's
    /// precondition (docs/simulator.md); the caller then runs the pass.
    bool closed_form_init(std::vector<CoreRun>& runs, const AccessRun& init);

    /// Starts every core of `runs` on `run`: resets its cursor, plans its
    /// prefetcher over the run, and tallies the run's accesses,
    /// translations and prefetch issues.
    void begin_run(std::vector<CoreRun>& runs, const AccessRun& run);

    /// The warm-up and measured passes of `runs` over `measure`, collapsed
    /// once a measured pass provably repeats the pass before it: the
    /// remaining passes are then booked from its record instead of
    /// simulated (docs/simulator.md item 5).
    void measured_passes(std::vector<CoreRun>& runs, const AccessRun& measure,
                         int measure_passes);

    /// One batched demand access (defined in engine.cpp, inlined into the
    /// pass loops). `index` is the access's position within its run; the
    /// run's StreamRunPlan decides whether it emits prefetches.
    template <bool kRecord>
    Cycles batched_access(CoreRun& run, std::uint64_t vaddr, std::uint64_t index);
    /// One batched prefetch fill through `run`'s resolved path. Returns the
    /// levels it missed, bit l for path level l.
    std::uint8_t batched_fill(CoreRun& run, std::uint64_t vaddr);
    /// The cycles batched_access returned for a recorded outcome.
    [[nodiscard]] Cycles outcome_cycles(const CoreRun& run, std::uint8_t outcome) const;

    /// Cost of one demand access by `core` at virtual address `vaddr`,
    /// including prefetcher side effects. `latency_mult` scales the
    /// main-memory latency (bus queueing under concurrency). The scalar
    /// oracle's inner step.
    Cycles access_cost(CoreId core, std::uint64_t vaddr, double latency_mult);

    void fill_for_prefetch(CoreId core, std::uint64_t vaddr);
    /// Puts the simulated state in its start-of-traversal condition:
    /// builds it on the first call, invalidates it on later ones, and
    /// reseeds the page mapper.
    void reset_microarchitecture(Bytes array_bytes, bool fresh_placement);
    /// Allocates the caches, TLBs and prefetchers (all empty) and resolves
    /// each core's lookup path through them.
    void build_microarchitecture();

    /// Registry handles looked up once at construction and copied to
    /// replicas (hot-path rule in obs/metrics.hpp), fed aggregate deltas
    /// by flush_traverse_counters.
    struct CounterHandles {
        struct Level {
            obs::Counter* hits;
            obs::Counter* misses;
            obs::Counter* evictions;
        };
        std::vector<Level> levels;
        obs::Counter* prefetch_issued;
        obs::Counter* prefetch_useful;
        obs::Counter* tlb_misses;
        obs::Counter* page_faults;
        obs::Counter* page_translations;
        obs::Counter* contended_accesses;
        obs::Counter* traverse_calls;
        obs::Counter* bandwidth_queries;
        obs::Histogram* traverse_accesses;
    };
    void register_counters();

    /// Sums the per-cache/TLB/mapper counts accumulated since the last
    /// reset_microarchitecture, pushes them to the registry, and zeroes
    /// the local counts. Called once at the end of every traverse, so the
    /// simulator's inner loop never touches an atomic.
    void flush_traverse_counters(std::uint64_t demand_accesses);

    std::shared_ptr<const MachineSpec> spec_;  // shared with replicas
    std::uint64_t seed_;
    MemoryModel memory_;  // points into *spec_, so it survives moves
    CounterHandles counters_;
    // Built by the first reset_microarchitecture(); empty until then.
    std::vector<std::vector<SetAssocCache>> caches_;  // [level][instance]
    std::vector<std::vector<int>> instance_of_;       // [level][core] -> instance
    std::vector<StreamPrefetcher> prefetchers_;       // per core
    std::vector<SetAssocCache> tlbs_;                 // per core, when enabled
    std::vector<std::vector<ResolvedLevel>> resolved_paths_;  // [core][level]
    std::unique_ptr<PageMapper> mapper_;
    bool built_ = false;
    std::uint64_t page_shift_ = 0;
    std::uint64_t page_mask_ = 0;  // page_size - 1
    std::uint64_t run_counter_ = 0;
    std::uint64_t total_accesses_ = 0;
    std::uint64_t simulated_accesses_ = 0;
    std::uint64_t tally_prefetch_issued_ = 0;
    std::uint64_t tally_contended_ = 0;
    /// Logical translation count: one per demand access plus one per
    /// prefetch fill, whichever engine ran. The scalar oracle performs
    /// exactly one PageMapper::translate() per logical translation; the
    /// batched engine elides physical translations behind its page caches
    /// but tallies them here, so `sim.page.translations` is engine-
    /// invariant and the goldens stay pinned.
    std::uint64_t tally_translations_ = 0;
};

}  // namespace servet::sim
