#include "sim/engine.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "obs/trace.hpp"

namespace servet::sim {

namespace {
/// Distinct, page-aligned virtual address ranges per (run, core) so every
/// traversal call allocates "fresh" pages and draws a fresh physical
/// placement, like a real malloc+touch.
constexpr std::uint64_t kCoreSpaceBits = 36;  // 64 GiB of virtual space per array

/// Sentinel for the per-core one-entry page-translation caches: no array
/// page can shift down to all-ones (arrays live at (core+1) << 36).
constexpr std::uint64_t kNoPage = ~0ULL;

/// How many of a run's `count` accesses emit prefetches under `plan` —
/// the closed form of the per-access condition in batched_access
/// (access 0 emits iff first_emits; access i >= 1 emits iff
/// i >= emit_from). Lets the batched pass account for translations and
/// prefetch issues once per run instead of once per access.
std::uint64_t emitting_accesses(const StreamRunPlan& plan, std::uint64_t count) {
    if (count == 0) return 0;
    std::uint64_t n = plan.first_emits ? 1 : 0;
    const std::uint64_t from = plan.emit_from < 1 ? 1 : plan.emit_from;
    if (count > from) n += count - from;
    return n;
}

/// A demand access's outcome as pass collapsing records it: the level of
/// its path that served it (the path length for memory) in the low bits,
/// then whether it consulted its TLB and whether it missed there.
constexpr std::uint8_t kTlbLookup = 1 << 6;
constexpr std::uint8_t kTlbMiss = 1 << 7;
constexpr std::uint8_t kLevelMask = kTlbLookup - 1;

/// Where an event of the init sweep falls in one core's schedule: the
/// demand access of step `step` is sub 0, its d-th prefetch fill is sub d.
/// Every core runs the same schedule and batched_pass interleaves the cores
/// step by step, so (step, core position, sub) orders all events.
struct SweepKey {
    std::uint64_t step = 0;
    std::uint64_t sub = 0;
    friend auto operator<=>(const SweepKey&, const SweepKey&) = default;
};

/// One core's init sweep in units of L1 lines: the demand access of step s
/// touches line s, for s in [0, n), and each step s >= emit then fills
/// lines s+1 .. s+degree. Lines [0, end()) are touched.
struct InitSchedule {
    std::uint64_t n = 0;
    std::uint64_t emit = 0;
    std::uint64_t degree = 0;

    [[nodiscard]] std::uint64_t end() const { return n + degree; }
    [[nodiscard]] bool emits(std::uint64_t s) const { return s >= emit && s < n; }
    /// First and last fill touching line j, for j > emit.
    [[nodiscard]] SweepKey first_fill(std::uint64_t j) const {
        const std::uint64_t s = j > emit + degree ? j - degree : emit;
        return {s, j - s};
    }
    [[nodiscard]] SweepKey last_fill(std::uint64_t j) const {
        const std::uint64_t s = std::min(j - 1, n - 1);
        return {s, j - s};
    }
    /// Fills issued by the steps before `s`.
    [[nodiscard]] std::uint64_t fills_before(std::uint64_t s) const {
        const std::uint64_t steps = std::min(s, n);
        return steps > emit ? (steps - emit) * degree : 0;
    }
};

/// One cache level's part of one core's init sweep, where a level line
/// holds `ratio` L1 lines. Only the demands of steps [0, emit] miss the L1
/// (every later line was prefetched into it), so each level's lines split
/// into a short head, settled line by line, and a tail of lines that only
/// prefetch fills install.
struct InitLevel {
    struct Line {
        std::uint64_t index = 0;
        SweepKey last;            ///< the line's last event
        bool prefetched = false;  ///< installed by a fill, no demand since
    };
    std::uint64_t ratio = 1;
    Bytes line_bytes = 0;
    bool every_demand = false;           ///< the L1: every demand looks up here
    std::vector<std::uint64_t> demands;  ///< below it, the steps whose demand does
    std::vector<Line> head;              ///< touched lines below tail_begin, latest first
    std::uint64_t tail_begin = 0;        ///< the tail is lines [tail_begin, tail_end)
    std::uint64_t tail_end = 0;
    std::uint64_t lines = 0;  ///< distinct lines touched
    CacheCounts counts;       ///< evictions left out: they depend on the sharing

    [[nodiscard]] std::uint64_t demands_through(const InitSchedule& sweep,
                                                std::uint64_t s) const {
        if (every_demand) return std::min(s + 1, sweep.n);
        return static_cast<std::uint64_t>(
            std::upper_bound(demands.begin(), demands.end(), s) - demands.begin());
    }
    /// Lookups and fills of one core at this level in the steps before `s`.
    [[nodiscard]] std::uint64_t events_before(const InitSchedule& sweep,
                                              std::uint64_t s) const {
        return (s == 0 ? 0 : demands_through(sweep, s - 1)) + sweep.fills_before(s);
    }
    /// ... and up to and including the event at `key`.
    [[nodiscard]] std::uint64_t events_through(const InitSchedule& sweep, SweepKey key) const {
        return demands_through(sweep, key.step) + sweep.fills_before(key.step) +
               (sweep.emits(key.step) ? std::min(key.sub, sweep.degree) : 0);
    }
    /// A tail line of the L1 below n ends with its demand hit; any other
    /// tail line ends with the last fill into it.
    [[nodiscard]] Line tail_line(const InitSchedule& sweep, std::uint64_t x) const {
        if (every_demand && x < sweep.n) return {x, {x, 0}, false};
        return {x, sweep.last_fill(std::min(ratio * x + ratio - 1, sweep.end() - 1)), true};
    }
};

/// The init sweep as each level of a lookup path meets it, L1 first, for
/// levels with lines of `line_bytes`. `memory_demands` receives the steps
/// whose demand misses every level.
std::vector<InitLevel> plan_init_levels(const InitSchedule& sweep,
                                        const std::vector<Bytes>& line_bytes,
                                        std::vector<std::uint64_t>& memory_demands) {
    std::vector<InitLevel> levels(line_bytes.size());
    std::vector<std::uint64_t> reaching;  // steps whose demand missed every level above
    for (std::size_t l = 0; l < levels.size(); ++l) {
        InitLevel& level = levels[l];
        const std::uint64_t r = line_bytes[l] / line_bytes.front();
        level.ratio = r;
        level.line_bytes = line_bytes[l];
        level.every_demand = l == 0;
        level.demands = std::move(reaching);
        reaching = {};
        level.tail_begin = sweep.emit / r + 1;
        level.tail_end = (sweep.end() - 1) / r + 1;
        for (std::uint64_t x = 0; x < level.tail_begin; ++x) {
            const std::uint64_t first = r * x;
            const std::uint64_t last = std::min(first + r - 1, sweep.end() - 1);
            std::uint64_t demanded = 0, first_demand = 0, last_demand = 0;
            if (level.every_demand) {
                demanded = 1;
                first_demand = last_demand = x;
            } else {
                const auto lo =
                    std::lower_bound(level.demands.begin(), level.demands.end(), first);
                const auto hi = std::upper_bound(lo, level.demands.end(), last);
                demanded = static_cast<std::uint64_t>(hi - lo);
                if (demanded > 0) {
                    first_demand = *lo;
                    last_demand = *(hi - 1);
                }
            }
            const bool filled = last > sweep.emit;
            if (demanded == 0 && !filled) continue;  // never touched at this level
            const bool fill_first =
                filled && (demanded == 0 || sweep.first_fill(std::max(first, sweep.emit + 1)) <
                                                SweepKey{first_demand, 0});
            SweepKey last_event = filled ? sweep.last_fill(last) : SweepKey{};
            if (demanded > 0) last_event = std::max(last_event, SweepKey{last_demand, 0});
            ++level.lines;
            if (fill_first) {
                ++level.counts.prefetch_fills;
                level.counts.hits += demanded;
                if (demanded > 0) ++level.counts.prefetch_useful;
            } else {
                ++level.counts.misses;
                level.counts.hits += demanded - 1;
                reaching.push_back(first_demand);
            }
            level.head.push_back({x, last_event, fill_first && demanded == 0});
        }
        std::sort(level.head.begin(), level.head.end(),
                  [](const InitLevel::Line& a, const InitLevel::Line& b) {
                      return a.last > b.last;
                  });
        const std::uint64_t tail = level.tail_end - level.tail_begin;
        level.lines += tail;
        level.counts.prefetch_fills += tail;
        if (level.every_demand) {  // tail lines below n are demanded once, after their fill
            level.counts.hits += sweep.n - level.tail_begin;
            level.counts.prefetch_useful += sweep.n - level.tail_begin;
        }
    }
    memory_demands = std::move(reaching);
    return levels;
}
}  // namespace

/// One core's part of one batched pass, as pass collapsing compares passes
/// (docs/simulator.md item 5): the pass's run plan, the prefetcher state it
/// left behind, and the outcome of each demand access and prefetch fill.
struct PassRecord {
    StreamRunPlan plan;
    StreamPrefetcher::State prefetcher;
    std::vector<std::uint8_t> demands;  ///< per access: level | kTlbLookup | kTlbMiss
    std::vector<std::uint8_t> fills;    ///< per fill: bit l set iff path level l missed

    friend bool operator==(const PassRecord&, const PassRecord&) = default;
};

/// Per-core state of one batched traversal: the address cursor, the core's
/// resolved lookup path, its prefetcher's run plan, and the two one-entry
/// page-translation caches. Demand and fill translations cache separately
/// on purpose: a prefetch fill's page is never TLB-validated, so letting a
/// fill populate the demand cache would skip a TLB access that the scalar
/// oracle performs (and that could miss).
struct MachineSim::CoreRun {
    std::uint64_t base = 0;    ///< start of this core's virtual array
    std::uint64_t cursor = 0;  ///< address of the next demand access
    double latency_mult = 1.0;
    const ResolvedLevel* path = nullptr;
    std::size_t path_len = 0;
    SetAssocCache* tlb = nullptr;  ///< null when the TLB model is off
    StreamPrefetcher* prefetcher = nullptr;
    int degree = 0;  ///< prefetcher->spec().degree, hoisted out of the hot loop
    StreamRunPlan plan;
    std::uint64_t demand_page = kNoPage;
    std::uint64_t demand_frame_base = 0;
    std::uint64_t fill_page = kNoPage;
    std::uint64_t fill_frame_base = 0;
    Cycles total = 0;  ///< measured-pass cycle accumulator
    PassRecord record;       ///< the pass being simulated, when recorded
    PassRecord previous;     ///< the recorded pass before it
    std::uint8_t* next_fill = nullptr;  ///< where record.fills takes the next fill
};

MachineSim::MachineSim(MachineSpec spec)
    : spec_(std::make_shared<const MachineSpec>(std::move(spec))),
      seed_(spec_->seed),
      memory_(*spec_) {
    // validate() also covers what the first traversal relies on: every
    // level's geometry is valid and its instances partition the cores.
    const auto problems = spec_->validate();
    SERVET_CHECK_MSG(problems.empty(), "machine spec failed validation");
    register_counters();
}

MachineSim MachineSim::replica(std::uint64_t seed) const { return MachineSim(*this, seed); }

MachineSim::MachineSim(const MachineSim& parent, std::uint64_t seed)
    : spec_(parent.spec_), seed_(seed), memory_(parent.memory_), counters_(parent.counters_) {}

void MachineSim::build_microarchitecture() {
    const MachineSpec& spec = *spec_;
    const std::size_t n_cores = static_cast<std::size_t>(spec.n_cores);
    caches_.reserve(spec.levels.size());
    instance_of_.reserve(spec.levels.size());
    for (const CacheLevelSpec& level : spec.levels) {
        std::vector<SetAssocCache> instances;
        instances.reserve(level.instances.size());
        for (std::size_t i = 0; i < level.instances.size(); ++i)
            instances.emplace_back(level.geometry);
        caches_.push_back(std::move(instances));

        std::vector<int> core_to_instance(n_cores, -1);
        for (std::size_t i = 0; i < level.instances.size(); ++i)
            for (CoreId c : level.instances[i])
                core_to_instance[static_cast<std::size_t>(c)] = static_cast<int>(i);
        instance_of_.push_back(std::move(core_to_instance));
    }
    prefetchers_.assign(n_cores, StreamPrefetcher(spec.prefetcher));

    if (spec.tlb.enabled) {
        // A fully associative TLB over virtual pages is a one-set cache
        // with page-sized "lines" and one way per entry.
        const CacheGeometry tlb_geometry{
            .size = static_cast<Bytes>(spec.tlb.entries) * spec.page_size,
            .line_size = spec.page_size,
            .associativity = spec.tlb.entries,
            .physically_indexed = false};
        tlbs_.assign(n_cores, SetAssocCache(tlb_geometry));
    }

    resolved_paths_.assign(n_cores, std::vector<ResolvedLevel>{});
    for (std::size_t core = 0; core < n_cores; ++core) {
        std::vector<ResolvedLevel>& path = resolved_paths_[core];
        path.reserve(spec.levels.size());
        for (std::size_t level = 0; level < spec.levels.size(); ++level) {
            const int instance = instance_of_[level][core];
            SERVET_CHECK_MSG(instance >= 0, "core not covered by a cache instance");
            path.push_back({&caches_[level][static_cast<std::size_t>(instance)],
                            spec.levels[level].hit_cycles,
                            spec.levels[level].geometry.physically_indexed});
        }
    }
    built_ = true;
}

void MachineSim::register_counters() {
    using obs::Stability;
    counters_.levels.reserve(spec_->levels.size());
    for (const CacheLevelSpec& level : spec_->levels) {
        const std::string base = "sim.cache." + level.name;
        counters_.levels.push_back(
            {&obs::counter(base + ".hits", Stability::Stable),
             &obs::counter(base + ".misses", Stability::Stable),
             &obs::counter(base + ".evictions", Stability::Stable)});
    }
    counters_.prefetch_issued = &obs::counter("sim.prefetch.issued", Stability::Stable);
    counters_.prefetch_useful = &obs::counter("sim.prefetch.useful", Stability::Stable);
    counters_.tlb_misses = &obs::counter("sim.tlb.misses", Stability::Stable);
    counters_.page_faults = &obs::counter("sim.page.faults", Stability::Stable);
    counters_.page_translations = &obs::counter("sim.page.translations", Stability::Stable);
    counters_.contended_accesses =
        &obs::counter("sim.mem.contended_accesses", Stability::Stable);
    counters_.traverse_calls = &obs::counter("sim.traverse.calls", Stability::Stable);
    counters_.bandwidth_queries = &obs::counter("sim.bandwidth.queries", Stability::Stable);
    counters_.traverse_accesses =
        &obs::histogram("sim.traverse.accesses", Stability::Stable,
                        {1e3, 1e4, 1e5, 1e6, 1e7, 1e8});
}

void MachineSim::flush_traverse_counters(std::uint64_t demand_accesses) {
    for (std::size_t level = 0; level < caches_.size(); ++level) {
        std::uint64_t hits = 0, misses = 0, evictions = 0, useful = 0;
        for (SetAssocCache& cache : caches_[level]) {
            hits += cache.hit_count();
            misses += cache.miss_count();
            evictions += cache.eviction_count();
            useful += cache.prefetch_useful_count();
            cache.reset_counters();
        }
        counters_.levels[level].hits->add(hits);
        counters_.levels[level].misses->add(misses);
        counters_.levels[level].evictions->add(evictions);
        counters_.prefetch_useful->add(useful);
    }
    std::uint64_t tlb_misses = 0;
    for (SetAssocCache& tlb : tlbs_) {
        tlb_misses += tlb.miss_count();
        tlb.reset_counters();
    }
    counters_.tlb_misses->add(tlb_misses);
    // The mapper is recreated at traverse start, so its totals are this
    // traverse's page-map faults. Translations are tallied logically (one
    // per demand access plus one per prefetch fill) rather than read from
    // the mapper: the batched engine answers most translations from its
    // page caches without a mapper call, and the counter must not depend
    // on which engine ran.
    counters_.page_faults->add(mapper_->mapped_pages());
    counters_.page_translations->add(tally_translations_);
    counters_.prefetch_issued->add(tally_prefetch_issued_);
    counters_.contended_accesses->add(tally_contended_);
    tally_translations_ = 0;
    tally_prefetch_issued_ = 0;
    tally_contended_ = 0;
    counters_.traverse_calls->increment();
    counters_.traverse_accesses->observe(static_cast<double>(demand_accesses));
}

void MachineSim::reset_microarchitecture(Bytes array_bytes, bool fresh_placement) {
    if (!built_) {
        build_microarchitecture();  // born empty: nothing to invalidate
    } else {
        for (auto& level : caches_)
            for (SetAssocCache& cache : level) cache.invalidate_all();
        for (StreamPrefetcher& prefetcher : prefetchers_) prefetcher.reset();
        for (SetAssocCache& tlb : tlbs_) tlb.invalidate_all();
    }
    // Reseed the mapper deterministically: per run for fresh allocations,
    // per array size for static buffers (so a reference run and the pair
    // runs that are compared against it see identical placements).
    ++run_counter_;
    const std::uint64_t salt = fresh_placement ? run_counter_ : array_bytes;
    // Physical memory: comfortably larger than all caches plus any working
    // set we simulate — 16 GiB of frames keeps random placement uniform.
    const std::uint64_t frames = (16 * GiB) / spec_->page_size;
    mapper_ = std::make_unique<PageMapper>(spec_->page_policy, spec_->page_size, frames,
                                           spec_->page_colors(),
                                           seed_ ^ (salt * 0x9e3779b97f4a7c15ULL));
    page_shift_ = mapper_->page_shift();
    page_mask_ = spec_->page_size - 1;
}

void MachineSim::fill_for_prefetch(CoreId core, std::uint64_t vaddr) {
    ++tally_translations_;
    const std::uint64_t paddr = mapper_->translate(vaddr);
    for (std::size_t level = 0; level < caches_.size(); ++level) {
        const int instance = instance_of_[level][static_cast<std::size_t>(core)];
        if (instance < 0) continue;
        const bool physical = spec_->levels[level].geometry.physically_indexed;
        caches_[level][static_cast<std::size_t>(instance)].prefetch_fill(physical ? paddr : vaddr);
    }
}

Cycles MachineSim::access_cost(CoreId core, std::uint64_t vaddr, double latency_mult) {
    ++total_accesses_;
    ++simulated_accesses_;
    ++tally_translations_;

    // Prefetcher observes the demand stream and may pull lines in ahead.
    std::uint64_t prefetch_addrs[8];
    SERVET_CHECK(spec_->prefetcher.degree <= 8);
    const int n_prefetch =
        prefetchers_[static_cast<std::size_t>(core)].observe(vaddr, prefetch_addrs);

    // Translation first: a TLB miss pays the page walk regardless of where
    // the data itself hits.
    Cycles tlb_penalty = 0;
    if (!tlbs_.empty() && !tlbs_[static_cast<std::size_t>(core)].access(vaddr))
        tlb_penalty = spec_->tlb.miss_cycles;

    const std::uint64_t paddr = mapper_->translate(vaddr);
    Cycles cost = -1;
    for (std::size_t level = 0; level < caches_.size(); ++level) {
        const int instance = instance_of_[level][static_cast<std::size_t>(core)];
        SERVET_CHECK_MSG(instance >= 0, "core not covered by a cache instance");
        const bool physical = spec_->levels[level].geometry.physically_indexed;
        const bool hit =
            caches_[level][static_cast<std::size_t>(instance)].access(physical ? paddr : vaddr);
        if (hit) {
            cost = spec_->levels[level].hit_cycles;
            break;
        }
    }
    if (cost < 0) {
        cost = spec_->memory.latency_cycles * latency_mult;
        if (latency_mult > 1.0) ++tally_contended_;  // bus-queueing stall
    }

    tally_prefetch_issued_ += static_cast<std::uint64_t>(n_prefetch);
    for (int p = 0; p < n_prefetch; ++p) fill_for_prefetch(core, prefetch_addrs[p]);
    return cost + tlb_penalty;
}

void MachineSim::reference_pass(const std::vector<CoreId>& cores,
                                const std::vector<std::uint64_t>& bases, const AccessRun& run,
                                const std::vector<double>& latency_mult,
                                std::vector<Cycles>* totals) {
    for (std::uint64_t k = 0; k < run.count; ++k) {
        const std::uint64_t offset = run.address(k);
        for (std::size_t i = 0; i < cores.size(); ++i) {
            const Cycles cost = access_cost(cores[i], bases[i] + offset, latency_mult[i]);
            if (totals != nullptr) (*totals)[i] += cost;
        }
    }
}

inline std::uint8_t MachineSim::batched_fill(CoreRun& run, std::uint64_t vaddr) {
    const std::uint64_t vpage = vaddr >> page_shift_;
    std::uint64_t paddr;
    if (vpage == run.fill_page) {
        paddr = run.fill_frame_base | (vaddr & page_mask_);
    } else {
        paddr = mapper_->translate(vaddr);
        run.fill_page = vpage;
        run.fill_frame_base = paddr & ~page_mask_;
    }
    std::uint8_t missed = 0;
    for (std::size_t l = 0; l < run.path_len; ++l)
        if (!run.path[l].cache->prefetch_fill(run.path[l].physically_indexed ? paddr : vaddr))
            missed |= static_cast<std::uint8_t>(1U << l);
    return missed;
}

template <bool kRecord>
inline Cycles MachineSim::batched_access(CoreRun& run, std::uint64_t vaddr,
                                         std::uint64_t index) {
    // Translation. Consecutive demand accesses to the same page cannot
    // change this core's TLB outcome (nothing else touches its TLB in
    // between, and prefetch fills never do), so the TLB and mapper are
    // consulted only on a page crossing.
    Cycles tlb_penalty = 0;
    std::uint8_t outcome = 0;
    const std::uint64_t vpage = vaddr >> page_shift_;
    std::uint64_t paddr;
    if (vpage == run.demand_page) {
        paddr = run.demand_frame_base | (vaddr & page_mask_);
    } else {
        if (run.tlb != nullptr) {
            outcome = kTlbLookup;
            if (!run.tlb->access(vaddr)) {
                tlb_penalty = spec_->tlb.miss_cycles;
                outcome |= kTlbMiss;
            }
        }
        paddr = mapper_->translate(vaddr);
        run.demand_page = vpage;
        run.demand_frame_base = paddr & ~page_mask_;
    }

    Cycles cost = -1;
    std::size_t l = 0;
    for (; l < run.path_len; ++l) {
        if (run.path[l].cache->access(run.path[l].physically_indexed ? paddr : vaddr)) {
            cost = run.path[l].hit_cycles;
            break;
        }
    }
    if (cost < 0) {
        cost = spec_->memory.latency_cycles * run.latency_mult;
        if (run.latency_mult > 1.0) ++tally_contended_;  // bus-queueing stall
    }
    if constexpr (kRecord) run.record.demands[index] = outcome | static_cast<std::uint8_t>(l);

    // Prefetch emission follows the run plan; fills land after the demand
    // lookup, exactly where the scalar oracle issues them.
    const bool emits = (index == 0) ? run.plan.first_emits : (index >= run.plan.emit_from);
    if (emits) {
        const std::int64_t pf_stride =
            (index == 0) ? run.plan.first_stride : run.plan.emit_stride;
        for (int d = 1; d <= run.degree; ++d) {
            const std::uint64_t pf_addr = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(vaddr) + static_cast<std::int64_t>(d) * pf_stride);
            const std::uint8_t missed = batched_fill(run, pf_addr);
            if constexpr (kRecord) *run.next_fill++ = missed;
        }
    }
    return cost + tlb_penalty;
}

Cycles MachineSim::outcome_cycles(const CoreRun& run, std::uint8_t outcome) const {
    const std::size_t level = outcome & kLevelMask;
    const Cycles cost = level < run.path_len ? run.path[level].hit_cycles
                                             : spec_->memory.latency_cycles * run.latency_mult;
    const Cycles tlb_penalty = (outcome & kTlbMiss) != 0 ? spec_->tlb.miss_cycles : 0;
    return cost + tlb_penalty;
}

bool MachineSim::closed_form_init(std::vector<CoreRun>& runs, const AccessRun& init) {
    const CoreRun& lead = runs.front();  // every core's plan and path shape are the same
    const StreamRunPlan& plan = lead.plan;
    const std::uint64_t line = static_cast<std::uint64_t>(init.stride);
    const Bytes page = page_mask_ + 1;
    const InitSchedule sweep{init.count, plan.emit_from,
                             static_cast<std::uint64_t>(lead.degree)};
    // The closed form covers a sweep whose prefetch fills stream at the line
    // stride from step `emit` on, opening at most one new page per step.
    if (sweep.degree == 0 || plan.first_emits || sweep.emit >= sweep.n ||
        plan.emit_stride != init.stride || sweep.degree >= page / line)
        return false;
    std::vector<Bytes> line_bytes(lead.path_len);
    for (std::size_t l = 0; l < lead.path_len; ++l) {
        line_bytes[l] = lead.path[l].cache->geometry().line_size;
        if (line_bytes[l] < line || line_bytes[l] > page) return false;
    }
    std::vector<std::uint64_t> memory_demands;
    const std::vector<InitLevel> levels = plan_init_levels(sweep, line_bytes, memory_demands);

    struct Instance {
        SetAssocCache* cache;
        const InitLevel* level;
        bool physical;
        std::vector<std::size_t> members;  ///< positions in `runs` it serves
    };
    std::vector<Instance> instances;
    for (std::size_t l = 0; l < lead.path_len; ++l) {
        const std::size_t level_begin = instances.size();
        for (std::size_t i = 0; i < runs.size(); ++i) {
            SetAssocCache* cache = runs[i].path[l].cache;
            auto it = std::find_if(instances.begin() + static_cast<std::ptrdiff_t>(level_begin),
                                   instances.end(),
                                   [&](const Instance& inst) { return inst.cache == cache; });
            if (it == instances.end()) {
                instances.push_back(
                    {cache, &levels[l], runs[i].path[l].physically_indexed, {}});
                it = instances.end() - 1;
            }
            it->members.push_back(i);
        }
    }
    // Precondition: no line is evicted between its first and last event.
    // Then every line misses once, on its first event, and each set ends
    // holding the lines with the latest last events. A line's events span
    // at most degree + ratio steps, in which one core touches at most
    // 2 * degree + ratio consecutive L1 lines; if the lines of one set
    // among those, over the cores sharing the instance, fit its ways, the
    // LRU way is always a line whose events are over.
    const auto ceil_div = [](std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; };
    for (const Instance& inst : instances) {
        const CacheGeometry& geometry = inst.cache->geometry();
        const std::uint64_t r = inst.level->ratio;
        const std::uint64_t window = (2 * sweep.degree + r + r - 2) / r + 1;  // level lines
        const std::uint64_t sets = geometry.set_count();
        const std::uint64_t per_page = page / geometry.line_size;
        const std::uint64_t per_set =
            inst.physical ? ((window + per_page - 2) / per_page + 1) *
                                ceil_div(std::min(window, per_page), sets)
                          : ceil_div(window, sets);
        if (inst.members.size() * per_set > static_cast<std::uint64_t>(geometry.associativity))
            return false;
    }

    // Page frames, mapped in the order the sweep first touches the pages:
    // page by page, and within a step cores in run order.
    const std::uint64_t last_demand = (sweep.n - 1) * line;
    const std::uint64_t last_fill = (sweep.end() - 1) * line;
    const std::uint64_t pages = (last_fill >> page_shift_) + 1;
    std::vector<std::vector<std::uint64_t>> frames(runs.size(),
                                                   std::vector<std::uint64_t>(pages));
    for (std::uint64_t k = 0; k < pages; ++k)
        for (std::size_t i = 0; i < runs.size(); ++i)
            frames[i][k] = mapper_->frame_of((runs[i].base >> page_shift_) + k);

    for (std::size_t i = 0; i < runs.size(); ++i) {
        CoreRun& run = runs[i];
        run.cursor = run.base + sweep.n * line;
        run.demand_page = (run.base + last_demand) >> page_shift_;
        run.demand_frame_base = frames[i][last_demand >> page_shift_] << page_shift_;
        run.fill_page = (run.base + last_fill) >> page_shift_;
        run.fill_frame_base = frames[i][last_fill >> page_shift_] << page_shift_;
        if (run.latency_mult > 1.0) tally_contended_ += memory_demands.size();
        if (run.tlb == nullptr) continue;
        // The TLB sees each demand page once, in order: all misses.
        const std::uint64_t demand_pages = (last_demand >> page_shift_) + 1;
        const std::uint64_t entries =
            static_cast<std::uint64_t>(run.tlb->geometry().associativity);
        const std::uint64_t kept = std::min(demand_pages, entries);
        for (std::uint64_t w = 0; w < kept; ++w) {
            const std::uint64_t k = demand_pages - 1 - w;
            run.tlb->place(run.base + (k << page_shift_), static_cast<int>(w), k + 1, false);
        }
        run.tlb->settle({.misses = demand_pages, .evictions = demand_pages - kept},
                        demand_pages);
    }

    // Each instance ends holding, per set, the lines with the latest last
    // events: walk its lines latest first (the tail from its end, then the
    // head; the cores of one step last to first) and fill sets until full.
    for (const Instance& inst : instances) {
        const InitLevel& level = *inst.level;
        SetAssocCache& cache = *inst.cache;
        const std::uint64_t ways = static_cast<std::uint64_t>(cache.geometry().associativity);
        const std::uint64_t sets = cache.geometry().set_count();
        const std::uint64_t per_page = page / level.line_bytes;
        // When sets are a whole number of pages, a page's lines fill sets of
        // one color, and a page of a color whose sets are full is skipped.
        const bool colored = sets % per_page == 0;
        std::vector<std::uint64_t> occupancy(sets, 0);
        std::vector<std::uint64_t> full_in_color(colored ? sets / per_page : 0, 0);
        std::uint64_t full_sets = 0, placed = 0;
        const std::size_t members = inst.members.size();
        const auto frame = [&](std::size_t member, std::uint64_t page_index) {
            const std::size_t i = inst.members[member];
            return inst.physical ? frames[i][page_index]
                                 : (runs[i].base >> page_shift_) + page_index;
        };
        const auto address = [&](std::size_t member, std::uint64_t x) {
            const std::uint64_t offset = x * level.line_bytes;
            return (frame(member, offset >> page_shift_) << page_shift_) |
                   (offset & page_mask_);
        };
        // Clock at a member's event: earlier members' events through its
        // step, later members' before it, its own up to it.
        const auto stamp_of = [&](std::size_t member, SweepKey key) {
            return member * level.events_before(sweep, key.step + 1) +
                   (members - 1 - member) * level.events_before(sweep, key.step) +
                   level.events_through(sweep, key);
        };
        const auto place = [&](std::uint64_t addr, std::uint64_t stamp, bool prefetched) {
            const std::uint64_t set = cache.set_of(addr);
            if (occupancy[set] == ways) return;
            cache.place(addr, static_cast<int>(occupancy[set]), stamp, prefetched);
            ++placed;
            if (++occupancy[set] == ways) {
                ++full_sets;
                if (colored) ++full_in_color[set / per_page];
            }
        };
        // Lines latest first; the members of one step last to first.
        const auto place_in_order = [&](const std::vector<InitLevel::Line>& lines) {
            for (std::size_t i = 0; i < lines.size() && full_sets < sets;) {
                std::size_t group_end = i + 1;
                while (group_end < lines.size() &&
                       lines[group_end].last.step == lines[i].last.step)
                    ++group_end;
                for (std::size_t member = members; member-- > 0;)
                    for (std::size_t g = i; g < group_end; ++g)
                        place(address(member, lines[g].index), stamp_of(member, lines[g].last),
                              lines[g].prefetched);
                i = group_end;
            }
        };
        // Tail lines [from, to), latest first.
        const auto tail_lines = [&](std::uint64_t from, std::uint64_t to) {
            std::vector<InitLevel::Line> lines;
            for (std::uint64_t x = to; x-- > from;) lines.push_back(level.tail_line(sweep, x));
            return lines;
        };

        // The body: tail lines with one line per step, above every head
        // event and below the sweep's last step. Its stamps fall linearly
        // with the line, its prefetch bits are all alike, and it holds all
        // but a handful of the lines, so it gets its own loop.
        std::uint64_t body_end = level.tail_end;
        while (body_end > level.tail_begin &&
               level.tail_line(sweep, body_end - 1).last.step + 1 >= sweep.n)
            --body_end;
        std::uint64_t body_begin = level.tail_begin;
        while (body_begin < body_end &&
               level.tail_line(sweep, body_begin).last.step <= sweep.emit + 1)
            ++body_begin;

        place_in_order(tail_lines(body_end, level.tail_end));
        if (body_begin < body_end) {
            const InitLevel::Line top = level.tail_line(sweep, body_end - 1);
            std::uint64_t slope = 0;  // stamp drop from one body line to the next
            if (body_end - 1 > body_begin)
                slope = stamp_of(0, top.last) -
                        stamp_of(0, level.tail_line(sweep, body_end - 2).last);
            std::vector<std::uint64_t> top_stamp(members), page_base(members);
            for (std::size_t member = 0; member < members; ++member)
                top_stamp[member] = stamp_of(member, top.last);
            std::uint64_t page_index = kNoPage;
            for (std::uint64_t x = body_end; x-- > body_begin && full_sets < sets;) {
                const std::uint64_t offset = x * level.line_bytes;
                if (offset >> page_shift_ != page_index) {
                    page_index = offset >> page_shift_;
                    bool all_full = colored;
                    for (std::size_t member = 0; member < members; ++member) {
                        page_base[member] = frame(member, page_index) << page_shift_;
                        all_full = all_full &&
                                   full_in_color[(page_base[member] / level.line_bytes % sets) /
                                                 per_page] == per_page;
                    }
                    if (all_full) {  // no member can place a line of this page
                        x = std::max(page_index * per_page, body_begin);
                        continue;
                    }
                }
                const std::uint64_t drop = (body_end - 1 - x) * slope;
                for (std::size_t member = members; member-- > 0;)
                    place(page_base[member] | (offset & page_mask_), top_stamp[member] - drop,
                          top.prefetched);
            }
        }
        if (full_sets < sets) {
            std::vector<InitLevel::Line> rest = tail_lines(level.tail_begin, body_begin);
            rest.insert(rest.end(), level.head.begin(), level.head.end());
            place_in_order(rest);
        }
        CacheCounts counts;
        counts.hits = members * level.counts.hits;
        counts.misses = members * level.counts.misses;
        counts.evictions = members * level.lines - placed;
        counts.prefetch_fills = members * level.counts.prefetch_fills;
        counts.prefetch_useful = members * level.counts.prefetch_useful;
        cache.settle(counts, members * level.events_before(sweep, sweep.n));
    }
    return true;
}

void MachineSim::begin_run(std::vector<CoreRun>& runs, const AccessRun& r) {
    for (CoreRun& run : runs) {
        run.cursor = run.base + r.base;
        run.plan = run.prefetcher->plan_run(run.cursor, r.stride, r.count);
        // The batched inner loop keeps no per-access tallies; the whole
        // pass is accounted here in closed form (one logical translation
        // per demand access and per prefetch fill, matching what the
        // scalar oracle counts as it goes).
        const std::uint64_t issued =
            emitting_accesses(run.plan, r.count) * static_cast<std::uint64_t>(run.degree);
        total_accesses_ += r.count;
        tally_translations_ += r.count + issued;
        tally_prefetch_issued_ += issued;
    }
}

void MachineSim::measured_passes(std::vector<CoreRun>& runs, const AccessRun& measure,
                                 int measure_passes) {
    const std::int64_t stride = measure.stride;
    const std::uint64_t count = measure.count;
    // A fill's outcome is one byte with a bit per level, so a deeper
    // hierarchy is simulated pass by pass.
    const bool recordable = spec_->levels.size() <= 8;
    std::vector<CacheMark> marks;
    for (int pass = -1; pass < measure_passes; ++pass) {  // pass -1 = warm-up
        begin_run(runs, measure);
        const bool measured = pass >= 0;
        // Measured pass j is compared with the pass before it while a pass
        // after j is left to cut, so the warm-up and passes 0 .. m-2 are
        // recorded; the last pass, and all of them when m is 1, are not.
        if (!recordable || std::max(pass, 0) + 1 >= measure_passes) {
            if (measured)
                batched_pass<true, false>(runs, stride, count);
            else
                batched_pass<false, false>(runs, stride, count);
            continue;
        }
        marks.clear();
        for (auto& level : caches_)
            for (const SetAssocCache& cache : level) marks.push_back(cache.mark());
        for (const SetAssocCache& tlb : tlbs_) marks.push_back(tlb.mark());
        const std::uint64_t contended = tally_contended_;
        for (CoreRun& run : runs) {
            run.record.plan = run.plan;
            run.record.prefetcher = run.prefetcher->state();
            run.record.demands.resize(count);
            run.record.fills.resize(emitting_accesses(run.plan, count) *
                                    static_cast<std::uint64_t>(run.degree));
            run.next_fill = run.record.fills.data();
        }
        if (measured)
            batched_pass<true, true>(runs, stride, count);
        else
            batched_pass<false, true>(runs, stride, count);
        const bool repeats =
            measured && std::all_of(runs.begin(), runs.end(), [](const CoreRun& run) {
                return run.record == run.previous;
            });
        if (!repeats) {
            for (CoreRun& run : runs) std::swap(run.record, run.previous);
            continue;
        }
        // This pass left the state as it found it, so every later pass
        // repeats it event for event: book its counts once per remaining
        // pass and re-add its cycles access by access, in the order the
        // scalar oracle sums them (a product would round differently).
        const std::uint64_t skipped = static_cast<std::uint64_t>(measure_passes - 1 - pass);
        std::size_t i = 0;
        for (auto& level : caches_)
            for (SetAssocCache& cache : level) cache.repeat_since(marks[i++], skipped);
        for (SetAssocCache& tlb : tlbs_) tlb.repeat_since(marks[i++], skipped);
        tally_contended_ += skipped * (tally_contended_ - contended);
        for (std::uint64_t s = 0; s < skipped; ++s) {
            begin_run(runs, measure);
            for (CoreRun& run : runs) {
                SERVET_CHECK(run.plan == run.record.plan);
                for (const std::uint8_t outcome : run.record.demands)
                    run.total += outcome_cycles(run, outcome);
            }
        }
        return;
    }
}

template <bool kMeasure, bool kRecord>
void MachineSim::batched_pass(std::vector<CoreRun>& runs, std::int64_t stride,
                              std::uint64_t count) {
    simulated_accesses_ += count * runs.size();
    for (std::uint64_t k = 0; k < count; ++k) {
        for (CoreRun& run : runs) {
            const Cycles cost = batched_access<kRecord>(run, run.cursor, k);
            run.cursor += static_cast<std::uint64_t>(stride);
            if constexpr (kMeasure) run.total += cost;
        }
    }
}

TraversalResult MachineSim::run_traversal(const std::vector<CoreId>& cores, Bytes array_bytes,
                                          Bytes stride, int measure_passes,
                                          bool fresh_placement, bool batched) {
    SERVET_TRACE_SPAN("sim/traverse");
    SERVET_CHECK(!cores.empty());
    SERVET_CHECK(array_bytes > 0 && stride > 0 && measure_passes > 0);
    for (CoreId c : cores) SERVET_CHECK(c >= 0 && c < spec_->n_cores);
    // Each core needs its own array, prefetcher stream, and page caches;
    // listing a core twice would silently alias them.
    for (std::size_t i = 0; i < cores.size(); ++i)
        for (std::size_t j = i + 1; j < cores.size(); ++j)
            SERVET_CHECK_MSG(cores[i] != cores[j], "traverse cores must be distinct");

    const std::uint64_t accesses_before = total_accesses_;
    reset_microarchitecture(array_bytes, fresh_placement);

    // Address ranges keyed by core id (not list position), so a core's
    // static buffer lands on the same pages whether it runs solo or paired.
    const std::size_t n_cores = cores.size();
    std::vector<std::uint64_t> base(n_cores);
    for (std::size_t i = 0; i < n_cores; ++i)
        base[i] = (static_cast<std::uint64_t>(cores[i]) + 1) << kCoreSpaceBits;

    const std::vector<double> latency_mult = memory_.latency_multipliers(cores);

    const Bytes line = spec_->levels.empty() ? 64 : spec_->levels.front().geometry.line_size;
    // Runs are planned as offsets from zero; each core adds its own base.
    const AccessStream stream = AccessStream::plan(0, array_bytes, stride, line);

    std::vector<Cycles> total(n_cores, 0.0);
    if (batched) {
        std::vector<CoreRun> runs(n_cores);
        for (std::size_t i = 0; i < n_cores; ++i) {
            const std::size_t core = static_cast<std::size_t>(cores[i]);
            runs[i].base = base[i];
            runs[i].latency_mult = latency_mult[i];
            runs[i].path = resolved_paths_[core].data();
            runs[i].path_len = resolved_paths_[core].size();
            runs[i].tlb = tlbs_.empty() ? nullptr : &tlbs_[core];
            runs[i].prefetcher = &prefetchers_[core];
            runs[i].degree = prefetchers_[core].spec().degree;
        }
        begin_run(runs, stream.init);
        if (!closed_form_init(runs, stream.init))
            batched_pass<false, false>(runs, stream.init.stride, stream.init.count);
        measured_passes(runs, stream.measure, measure_passes);
        for (std::size_t i = 0; i < n_cores; ++i) total[i] = runs[i].total;
    } else {
        // Initialization: the benchmark's setup loop writes the stride into
        // every element, touching each line sequentially. Interleaved across
        // cores like the measured phase.
        reference_pass(cores, base, stream.init, latency_mult, nullptr);
        for (int pass = -1; pass < measure_passes; ++pass)  // pass -1 = warm-up
            reference_pass(cores, base, stream.measure, latency_mult,
                           pass >= 0 ? &total : nullptr);
    }

    flush_traverse_counters(total_accesses_ - accesses_before);

    TraversalResult result;
    result.accesses_per_core =
        stream.measure.count * static_cast<std::uint64_t>(measure_passes);
    result.cycles_per_access.resize(n_cores);
    for (std::size_t i = 0; i < n_cores; ++i)
        result.cycles_per_access[i] = total[i] / static_cast<double>(result.accesses_per_core);
    return result;
}

TraversalResult MachineSim::traverse(const std::vector<CoreId>& cores, Bytes array_bytes,
                                     Bytes stride, int measure_passes, bool fresh_placement) {
    return run_traversal(cores, array_bytes, stride, measure_passes, fresh_placement,
                         /*batched=*/true);
}

TraversalResult MachineSim::traverse_reference(const std::vector<CoreId>& cores,
                                               Bytes array_bytes, Bytes stride,
                                               int measure_passes, bool fresh_placement) {
    return run_traversal(cores, array_bytes, stride, measure_passes, fresh_placement,
                         /*batched=*/false);
}

Cycles MachineSim::traverse_one(CoreId core, Bytes array_bytes, Bytes stride,
                                int measure_passes, bool fresh_placement) {
    return traverse({core}, array_bytes, stride, measure_passes, fresh_placement)
        .cycles_per_access.front();
}

std::uint64_t MachineSim::state_digest() const {
    Fingerprint fp;
    fp.add(built_);
    if (!built_) return fp.value();
    for (const auto& level : caches_)
        for (const SetAssocCache& cache : level) cache.digest(fp);
    for (const SetAssocCache& tlb : tlbs_) tlb.digest(fp);
    for (const StreamPrefetcher& prefetcher : prefetchers_) prefetcher.digest(fp);
    mapper_->digest(fp);
    return fp.value();
}

BytesPerSecond MachineSim::copy_bandwidth(CoreId core, const std::vector<CoreId>& active,
                                          Bytes array_bytes) const {
    SERVET_CHECK(core >= 0 && core < spec_->n_cores);
    counters_.bandwidth_queries->increment();

    // A copy working set that fits in some cache level streams from that
    // cache and sees no memory contention. Scale bandwidth by how close the
    // level is to the core (L1 fastest). Source + destination arrays.
    const Bytes working_set = 2 * array_bytes;
    for (std::size_t level = 0; level < spec_->levels.size(); ++level) {
        if (working_set <= spec_->levels[level].geometry.size) {
            const double boost = 4.0 / static_cast<double>(level + 1);
            return spec_->memory.single_core_bandwidth * std::max(boost, 1.5);
        }
    }
    return memory_.stream_bandwidth(core, active);
}

}  // namespace servet::sim
