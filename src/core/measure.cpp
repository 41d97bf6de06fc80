#include "core/measure.hpp"

#include <exception>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "base/check.hpp"
#include "base/clock.hpp"
#include "base/deadline.hpp"
#include "base/hash.hpp"
#include "base/text.hpp"
#include "exec/task_key.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace servet::core {

namespace {

obs::Counter& batches_counter() {
    static obs::Counter& c = obs::counter("exec.batches", obs::Stability::Stable);
    return c;
}
obs::Counter& requested_counter() {
    static obs::Counter& c = obs::counter("exec.tasks.requested", obs::Stability::Stable);
    return c;
}
obs::Counter& run_counter() {
    static obs::Counter& c = obs::counter("exec.tasks.run", obs::Stability::Stable);
    return c;
}
obs::Counter& deduped_counter() {
    static obs::Counter& c = obs::counter("exec.tasks.deduped", obs::Stability::Stable);
    return c;
}
// Stable: which tasks fail is a function of task keys and fault-plan
// seeds, and run() executes every task even when some throw.
obs::Counter& failed_counter() {
    static obs::Counter& c = obs::counter("exec.tasks.failed", obs::Stability::Stable);
    return c;
}
obs::Histogram& task_us_histogram() {
    static obs::Histogram& h =
        obs::histogram("exec.task.us", obs::Stability::Volatile,
                       {10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0});
    return h;
}

}  // namespace

MeasureEngine::MeasureEngine(Platform* platform, msg::Network* network, exec::ThreadPool* pool,
                             exec::MemoCache* memo)
    : platform_(platform), network_(network), pool_(pool), memo_(memo) {
    SERVET_CHECK_MSG(platform_ != nullptr || network_ != nullptr,
                     "measurement engine needs at least one substrate");
    // forkable() is the documented query for replica support; the old
    // probe-by-discarded-fork(0, 0) burned a full substrate clone (and on
    // stateful platforms could perturb them) just to learn a static fact.
    const bool platform_forks = platform_ == nullptr || platform_->forkable();
    const bool network_forks = network_ == nullptr || network_->forkable();
    deterministic_ = platform_forks && network_forks;
    if (!deterministic_) return;
    // Combine whichever fingerprints exist; either being 0 (not
    // content-addressable) poisons the whole engine's, disabling the memo.
    std::uint64_t fp = platform_ != nullptr ? platform_->fingerprint() : ~0ULL;
    if (fp != 0 && network_ != nullptr) {
        const std::uint64_t net_fp = network_->fingerprint();
        fp = net_fp == 0 ? 0 : fp ^ mix64(net_fp);
    }
    fingerprint_ = fp;
}

std::string MeasureEngine::memo_key(const std::string& task_key) const {
    return format_hex64(fingerprint_) + '/' + task_key;
}

std::vector<double> MeasureEngine::run_one(const MeasureTask& task) {
    SERVET_CHECK_MSG(!task.key.empty(), "measurement task needs a key");
    SERVET_TRACE_SPAN("measure/" + task.key);
    const std::uint64_t start_ns = monotonic_ns();
    std::string key;
    if (memoizable()) {
        key = memo_key(task.key);
        if (std::optional<std::vector<double>> hit = memo_->lookup(key))
            return *std::move(hit);
    }
    std::vector<double> values;
    DeadlineGuard deadline(task_deadline_);
    if (deterministic_) {
        const std::uint64_t seed = exec::seed_of(task.key);
        std::unique_ptr<Platform> platform;
        if (platform_ != nullptr) platform = platform_->fork(seed, task.placement_salt);
        std::unique_ptr<msg::Network> network;
        if (network_ != nullptr) network = network_->fork(seed);
        values = task.body(platform.get(), network.get());
    } else {
        values = task.body(platform_, network_);
    }
    if (memoizable()) memo_->store(key, values);
    task_us_histogram().observe(static_cast<double>(monotonic_ns() - start_ns) / 1e3);
    return values;
}

std::vector<std::vector<double>> MeasureEngine::run(const std::vector<MeasureTask>& tasks) {
    batches_counter().increment();
    requested_counter().add(tasks.size());
    std::vector<std::vector<double>> results(tasks.size());

    // A throwing task must not cut the batch short: the remaining tasks
    // still run (their counter contributions are part of the Stable
    // contract — a serial run that stopped at the first throw would
    // disagree with a parallel run that had already finished later
    // tasks), errors are collected per index, and the lowest-index one is
    // rethrown once the batch is complete.
    std::vector<std::exception_ptr> errors(tasks.size());
    const auto run_at = [&](std::size_t i) {
        try {
            results[i] = run_one(tasks[i]);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    const auto rethrow_first = [&](std::uint64_t failures) {
        failed_counter().add(failures);
        for (const std::exception_ptr& e : errors)
            if (e) std::rethrow_exception(e);
    };

    // Non-deterministic substrates are shared mutable state: tasks must
    // run one at a time, in index order, on the caller's thread. Equal
    // keys are NOT deduplicated here — on a non-deterministic substrate
    // each occurrence is a genuine remeasurement.
    if (!deterministic_) {
        run_counter().add(tasks.size());
        for (std::size_t i = 0; i < tasks.size(); ++i) run_at(i);
        std::uint64_t failures = 0;
        for (const std::exception_ptr& e : errors)
            if (e) ++failures;
        if (failures > 0) rethrow_first(failures);
        return results;
    }

    // Within-batch dedup. Two tasks with equal keys measure the same
    // thing (the MeasureTask::key contract), so the duplicate's result is
    // a copy. Beyond saving work, this is what keeps execution counts
    // schedule-invariant: without it, two racing duplicates may both miss
    // the memo and both execute under --jobs N, while a serial run
    // executes once and hits once.
    std::vector<std::size_t> unique;                // first occurrence of each key
    std::vector<std::size_t> source(tasks.size());  // index -> its representative
    std::unordered_map<std::string_view, std::size_t> first;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto [it, inserted] = first.try_emplace(tasks[i].key, i);
        source[i] = it->second;
        if (inserted) unique.push_back(i);
    }
    deduped_counter().add(tasks.size() - unique.size());
    run_counter().add(unique.size());

    if (pool_ != nullptr && unique.size() > 1) {
        pool_->parallel_for(unique.size(), [&](std::size_t u) { run_at(unique[u]); });
    } else {
        for (const std::size_t u : unique) run_at(u);
    }
    // A duplicate shares its representative's fate — result or error —
    // exactly as if it had executed.
    std::uint64_t failures = 0;
    for (const std::size_t u : unique)
        if (errors[u]) ++failures;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (source[i] == i) continue;
        results[i] = results[source[i]];
        errors[i] = errors[source[i]];
    }
    if (failures > 0) rethrow_first(failures);
    return results;
}

}  // namespace servet::core
