#include "core/suite.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <utility>

#include "base/check.hpp"
#include "base/fs.hpp"
#include "base/hash.hpp"
#include "base/log.hpp"
#include "core/journal.hpp"
#include "core/measure.hpp"
#include "core/phase_codec.hpp"
#include "exec/memo_cache.hpp"
#include "exec/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace servet::core {

void PhaseTimer::record(const std::string& phase, Seconds elapsed) {
    const std::lock_guard<std::mutex> lock(mutex_);
    (*sink_)[phase] += elapsed;
}

Seconds PhaseTimer::total(const std::string& phase) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sink_->find(phase);
    return it == sink_->end() ? 0 : it->second;
}

std::uint64_t SuiteResult::counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

bool SuiteResult::measurements_equal(const SuiteResult& other) const {
    return curve == other.curve && cache_levels == other.cache_levels &&
           has_shared_caches == other.has_shared_caches &&
           shared_caches == other.shared_caches &&
           has_mem_overhead == other.has_mem_overhead && mem_overhead == other.mem_overhead &&
           has_comm == other.has_comm && comm == other.comm && errors == other.errors;
}

Profile SuiteResult::to_profile(const std::string& machine_name, int cores,
                                Bytes page_size) const {
    Profile profile;
    profile.machine = machine_name;
    profile.cores = cores;
    profile.page_size = page_size;

    for (std::size_t i = 0; i < cache_levels.size(); ++i) {
        ProfileCacheLevel cache;
        cache.size = cache_levels[i].size;
        cache.method = cache_levels[i].method;
        if (has_shared_caches && i < shared_caches.size())
            cache.groups = shared_caches[i].groups;
        profile.caches.push_back(std::move(cache));
    }

    if (has_mem_overhead) {
        profile.memory.reference_bandwidth = mem_overhead.reference_bandwidth;
        for (std::size_t t = 0; t < mem_overhead.tiers.size(); ++t) {
            ProfileMemoryTier tier;
            tier.bandwidth = mem_overhead.tiers[t].bandwidth;
            tier.groups = mem_overhead.tiers[t].groups;
            for (const MemScalabilityCurve& scal : mem_overhead.scalability) {
                if (scal.tier == t) tier.scalability = scal.bandwidth_by_n;
            }
            profile.memory.tiers.push_back(std::move(tier));
        }
    }

    if (has_comm) {
        for (const CommLayer& layer : comm.layers) {
            ProfileCommLayer out;
            out.latency = layer.latency;
            out.pairs = layer.pairs;
            out.p2p = layer.p2p;
            out.slowdown = layer.slowdown_by_n;
            profile.comm.push_back(std::move(out));
        }
    }

    profile.phase_seconds = phase_seconds;
    if (embed_counters) profile.counters = counters;
    for (const PhaseError& error : errors) profile.errors[error.phase] = error.message;
    return profile;
}

SuiteResult run_suite(Platform& platform, msg::Network* network, SuiteOptions options) {
    SERVET_TRACE_SPAN("suite/run");
    SERVET_CHECK(options.jobs >= 1);
    // The journal identity hashes the options exactly as the caller
    // passed them — before the per-phase sizes derived below (page_size,
    // array_bytes, probe_message) overwrite anything — so a resumed run
    // that passes the same flags hashes the same.
    const std::uint64_t options_hash = suite_options_hash(options);
    SuiteResult result;
    result.embed_counters = options.profile_counters;
    PhaseTimer timer(result.phase_seconds);

    // Snapshot the Stable counters so the result reports this run's deltas
    // — robust when several suites run in one process (tests, tools).
    const std::map<std::string, std::uint64_t> counters_before =
        obs::registry().stable_counters();

    // jobs counts concurrent measurement tasks; the calling thread
    // participates in every parallel_for, so the pool holds jobs-1 workers.
    std::unique_ptr<exec::ThreadPool> pool;
    if (options.jobs > 1) pool = std::make_unique<exec::ThreadPool>(options.jobs - 1);

    exec::MemoCache memo;
    const bool want_memo = options.use_memo || !options.memo_path.empty();
    if (!options.memo_path.empty()) {
        switch (memo.load_file(options.memo_path)) {
            case exec::MemoLoad::Loaded:
                SERVET_LOG_INFO("suite: loaded %zu memo records from %s", memo.size(),
                                options.memo_path.c_str());
                break;
            case exec::MemoLoad::Absent:
                break;  // cold start: the save below will create it
            case exec::MemoLoad::Malformed:
                // Not fatal — the run just re-measures — but silence here
                // would hide a corrupt file that keeps every future run
                // cold until the save path overwrites it.
                SERVET_LOG_WARN("suite: ignoring malformed memo file %s",
                                options.memo_path.c_str());
                break;
        }
    }
    if (want_memo && !options.run_dir.empty() && create_directories(options.run_dir)) {
        // Task-level crash recovery: each fresh measurement appends to
        // run_dir/memo.servet as it lands, so a killed run's *partial*
        // phase is warm on resume — the phase re-runs, but every task it
        // already measured replays from the memo. The load is torn-tail
        // tolerant because dying mid-append is this file's normal case.
        const std::string memo_journal = options.run_dir + "/memo.servet";
        if (memo.load_file(memo_journal, exec::MemoLoadMode::TornTailOk) ==
            exec::MemoLoad::Loaded)
            SERVET_LOG_INFO("suite: loaded %zu memo records from run journal %s",
                            memo.size(), memo_journal.c_str());
        if (!memo.journal_to(memo_journal))
            SERVET_LOG_WARN("suite: cannot journal measurements to %s",
                            memo_journal.c_str());
    }

    MeasureEngine engine(&platform, network, pool.get(), want_memo ? &memo : nullptr);
    engine.set_task_deadline(options.task_deadline);
    if (pool != nullptr && !engine.deterministic())
        SERVET_LOG_INFO("suite: platform is not forkable; running serially");

    // Crash safety: with a run directory, every completed phase commits
    // to a write-ahead journal, and a resumed run replays the committed
    // phases instead of re-measuring them. An incompatible journal throws
    // out of run_suite — that is the refusal path, not a phase error.
    std::unique_ptr<RunJournal> journal;
    if (!options.run_dir.empty()) {
        RunJournal::Header header;
        header.options_hash = options_hash;
        header.fingerprint = engine.fingerprint();
        header.machine = platform.name();
        header.cores = platform.core_count();
        header.page_size = platform.page_size();
        journal = std::make_unique<RunJournal>(
            options.run_dir, header,
            options.resume ? RunJournal::Mode::Resume : RunJournal::Mode::Create);
        if (journal->dropped_torn_tail())
            SERVET_LOG_WARN(
                "suite: journal in %s had a torn trailing record (crash mid-commit); "
                "that phase will re-run",
                options.run_dir.c_str());
        if (options.resume && !journal->records().empty())
            SERVET_LOG_INFO("suite: resuming from %s with %zu committed phase(s)",
                            options.run_dir.c_str(), journal->records().size());
        // Targeted re-measurement (validate --repair): invalidate the
        // implicated phases up front, then let the normal replay/commit
        // path re-measure exactly those.
        for (const std::string& phase : options.remeasure) {
            if (journal->find(phase) == nullptr) continue;
            if (journal->drop(phase))
                SERVET_LOG_INFO("suite: dropped phase %s from journal; it will "
                                "re-measure",
                                phase.c_str());
            else
                SERVET_LOG_WARN("suite: cannot drop phase %s from journal %s",
                                phase.c_str(), options.run_dir.c_str());
        }
    }
    obs::Counter& journal_replays =
        obs::counter("suite.journal.phases.replayed", obs::Stability::Stable);
    obs::Counter& journal_appends =
        obs::counter("suite.journal.phases.appended", obs::Stability::Stable);

    // Forensic digest stored on each commit line: the Stable counters at
    // commit time. Not used for replay decisions (per-phase deltas are
    // not schedule-invariant when phases overlap).
    const auto counters_digest = [] {
        Fingerprint fp;
        for (const auto& [name, value] : obs::registry().stable_counters()) {
            fp.add(std::string_view(name));
            fp.add(value);
        }
        return fp.value();
    };

    // Phase isolation: a phase body that throws is recorded — name plus
    // message — instead of propagating, so one broken probe costs its
    // phase, not the suite. The sink is mutex-guarded (phases 2-4 run
    // concurrently) and sorted by phase name at the end, keeping the
    // error list schedule-invariant.
    std::mutex errors_mutex;
    obs::Counter& phase_errors =
        obs::counter("suite.phase.errors", obs::Stability::Stable);
    const auto isolate = [&](const std::string& phase, auto&& body) {
        try {
            body();
        } catch (const std::exception& e) {
            phase_errors.increment();
            SERVET_LOG_WARN("suite: phase %s failed: %s", phase.c_str(), e.what());
            const std::lock_guard<std::mutex> lock(errors_mutex);
            result.errors.push_back({phase, e.what()});
        }
    };

    // The one path every phase takes. A journaled record that decodes is
    // replayed outside isolate() (decoding cannot throw); a corrupt one
    // falls through to re-measurement. A measured phase commits after its
    // result landed, inside isolate(): an append failure only costs crash
    // protection. Returns whether `out` now holds the phase's result.
    const auto run_phase = [&](const std::string& phase, auto& out, auto decode, auto encode,
                               auto measure) {
        if (const RunJournal::Record* record =
                journal == nullptr ? nullptr : journal->find(phase)) {
            if (auto decoded = decode(record->payload)) {
                out = std::move(*decoded);
                timer.record(phase, record->seconds);
                journal_replays.increment();
                SERVET_LOG_INFO("suite: phase %s replayed from journal (%zu-byte record)",
                                phase.c_str(), record->payload.size());
                return true;
            }
            SERVET_LOG_WARN("suite: journaled %s record does not decode; re-measuring",
                            phase.c_str());
        }
        bool produced = false;
        isolate(phase, [&] {
            out = timer.time(phase, measure);
            produced = true;
            if (journal == nullptr) return;
            if (journal->append(phase, encode(out), timer.total(phase), counters_digest()))
                journal_appends.increment();
            else
                SERVET_LOG_WARN("suite: cannot append phase %s to journal %s; this phase "
                                "loses crash protection",
                                phase.c_str(), options.run_dir.c_str());
        });
        return produced;
    };

    // Skipping cache-size detection starves the phases that consume its
    // sizes; they skip along with it rather than run mis-sized.
    if (!options.run_cache_size) {
        options.run_shared_cache = false;
        options.run_mem_overhead = false;
    }

    // Phase 1: cache size estimate (Section III-A). Runs first — every
    // other phase is sized by its result — with its sweep parallel inside.
    options.detect.page_size = platform.page_size();
    if (options.run_cache_size) {
        CacheSizePayload cache;
        run_phase("cache_size", cache, decode_cache_size, encode_cache_size, [&] {
            CacheSizePayload measured;
            measured.curve = run_mcalibrator(engine, options.mcalibrator);
            measured.levels = detect_cache_levels(measured.curve, options.detect);
            SERVET_LOG_INFO("suite: detected %zu cache levels", measured.levels.size());
            return measured;
        });
        result.curve = std::move(cache.curve);
        result.cache_levels = std::move(cache.levels);
    }

    std::vector<Bytes> sizes;
    for (const CacheLevelEstimate& level : result.cache_levels) sizes.push_back(level.size);

    // Phases 2-4 are mutually independent given the sizes, so they fan
    // out like any batch of measurement tasks; each body is one phase.
    std::vector<std::pair<std::string, std::function<void(const std::string&)>>> fan_out;

    // Phase 2: shared caches (Section III-B) — needs at least two cores.
    if (options.run_shared_cache && platform.core_count() > 1 && !sizes.empty()) {
        fan_out.emplace_back("shared_caches", [&](const std::string& phase) {
            result.has_shared_caches =
                run_phase(phase, result.shared_caches, decode_shared_caches,
                          encode_shared_caches, [&] {
                              return detect_shared_caches(engine, sizes, options.shared_cache);
                          });
        });
    }

    // Phase 3: memory access overhead (Section III-C); arrays must stream
    // past the LLC.
    if (options.run_mem_overhead && platform.core_count() > 1) {
        if (!sizes.empty()) options.mem_overhead.array_bytes = 4 * sizes.back();
        fan_out.emplace_back("mem_overhead", [&](const std::string& phase) {
            result.has_mem_overhead =
                run_phase(phase, result.mem_overhead, decode_mem_overhead,
                          encode_mem_overhead, [&] {
                              return characterize_memory_overhead(engine, options.mem_overhead);
                          });
        });
    }

    // Phase 4: communication costs (Section III-D); probe with the L1 size.
    if (options.run_comm && network != nullptr && network->endpoint_count() > 1) {
        if (!sizes.empty()) options.comm.probe_message = sizes.front();
        fan_out.emplace_back("comm_costs", [&](const std::string& phase) {
            result.has_comm =
                run_phase(phase, result.comm, decode_comm_costs, encode_comm_costs,
                          [&] { return characterize_communication(engine, options.comm); });
        });
    }

    // Keep the "dag" names: the goldens and test_obs_determinism pin
    // exec.dag.nodes, and bench_suite's exec.dag.share sums the
    // dag/<phase> spans.
    if (!fan_out.empty())
        obs::counter("exec.dag.nodes", obs::Stability::Stable).add(fan_out.size());
    const auto run_downstream = [&](std::size_t i) {
        SERVET_TRACE_SPAN("dag/" + fan_out[i].first);
        fan_out[i].second(fan_out[i].first);
    };
    // A non-deterministic platform is shared mutable state: its phases
    // must not overlap, so they run one after another in the order above.
    if (pool != nullptr && engine.deterministic()) {
        pool->parallel_for(fan_out.size(), run_downstream);
    } else {
        for (std::size_t i = 0; i < fan_out.size(); ++i) run_downstream(i);
    }

    std::sort(result.errors.begin(), result.errors.end(),
              [](const PhaseError& a, const PhaseError& b) { return a.phase < b.phase; });
    if (!result.errors.empty())
        SERVET_LOG_WARN("suite: %zu phase(s) failed; profile will be partial",
                        result.errors.size());

    for (const auto& [name, value] : obs::registry().stable_counters()) {
        const auto it = counters_before.find(name);
        const std::uint64_t before = it == counters_before.end() ? 0 : it->second;
        if (value > before) result.counters.emplace(name, value - before);
    }
    SERVET_LOG_INFO(
        "suite: measurements %llu run, %llu deduped; memo %llu hits / %llu misses",
        static_cast<unsigned long long>(result.counter("exec.tasks.run")),
        static_cast<unsigned long long>(result.counter("exec.tasks.deduped")),
        static_cast<unsigned long long>(result.counter("exec.memo.hits")),
        static_cast<unsigned long long>(result.counter("exec.memo.misses")));

    if (!options.memo_path.empty() && engine.memoizable()) {
        if (memo.save_file(options.memo_path)) {
            SERVET_LOG_INFO("suite: saved %zu memo records to %s", memo.size(),
                            options.memo_path.c_str());
        } else {
            SERVET_LOG_ERROR("suite: failed to save memo to %s", options.memo_path.c_str());
        }
    }
    return result;
}

}  // namespace servet::core
