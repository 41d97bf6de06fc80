#include "exec/pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "base/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace servet::exec {

namespace {

// Pool shape depends on --jobs, so these are observability-only metrics:
// a jobs=1 run submits nothing (the caller drains parallel_for itself).
obs::Counter& submitted_counter() {
    static obs::Counter& c =
        obs::counter("exec.pool.tasks_submitted", obs::Stability::Volatile);
    return c;
}

obs::Gauge& queue_hwm_gauge() {
    static obs::Gauge& g = obs::gauge("exec.pool.queue_hwm");
    return g;
}

/// Shared state of one parallel_for invocation. Claim/finish counters are
/// separate because an error abandons unclaimed iterations: completion
/// means "no more claims possible and every claimed iteration returned".
struct ForLoop {
    explicit ForLoop(std::size_t total) : n(total) {}

    const std::size_t n;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> claimed{0};
    std::atomic<std::size_t> finished{0};

    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;
    std::size_t error_index = 0;

    void record_error(std::size_t index, std::exception_ptr e) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error || index < error_index) {
            error = std::move(e);
            error_index = index;
        }
        // Abandon unclaimed iterations; in-flight ones drain normally.
        next.store(n);
    }

    /// Claims and runs iterations until none are left. A claim is counted
    /// before it takes an index, and finished even when the index is out
    /// of range, so complete() never sees every index taken while a
    /// claimed iteration has yet to run.
    void drain(const std::function<void(std::size_t)>& body) {
        for (;;) {
            claimed.fetch_add(1);
            const std::size_t i = next.fetch_add(1);
            if (i < n) {
                try {
                    body(i);
                } catch (...) {
                    record_error(i, std::current_exception());
                }
            }
            std::lock_guard<std::mutex> lock(mutex);
            finished.fetch_add(1, std::memory_order_relaxed);
            done.notify_all();
            if (i >= n) return;
        }
    }

    /// Called under `mutex`. Sequentially consistent loads, `next` first:
    /// once it reads n or more, every claim that took an index is visible
    /// in `claimed`, and `finished` changes only under the mutex.
    [[nodiscard]] bool complete() const {
        return next.load() >= n && finished.load() == claimed.load();
    }
};

}  // namespace

ThreadPool::ThreadPool(int threads) {
    const int count = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            SERVET_TRACE_SPAN("exec/task");
            task();
        } catch (...) {
            SERVET_LOG_ERROR("exec: exception escaped a submitted task (dropped)");
        }
    }
}

void ThreadPool::submit(std::function<void()> task) {
    std::size_t depth = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        depth = queue_.size();
    }
    submitted_counter().increment();
    queue_hwm_gauge().record_max(depth);
    ready_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
    if (n == 0) return;
    auto loop = std::make_shared<ForLoop>(n);

    // Helpers assist if and when a worker is free; the caller never waits
    // for them to start.
    const std::size_t helpers =
        std::min<std::size_t>(workers_.size(), n > 0 ? n - 1 : 0);
    for (std::size_t h = 0; h < helpers; ++h)
        submit([loop, body] { loop->drain(body); });

    loop->drain(body);

    std::unique_lock<std::mutex> lock(loop->mutex);
    loop->done.wait(lock, [&] { return loop->complete(); });
    if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace servet::exec
