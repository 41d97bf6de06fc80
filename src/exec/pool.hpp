// Bounded thread pool with a cooperative parallel_for. The design rule
// that keeps nested use deadlock-free: the thread that calls parallel_for
// participates in executing the iteration space itself, and pool workers
// only assist. Even with every worker busy (or a zero-worker pool), the
// caller can always finish the loop alone, so a parallel_for issued from
// inside another parallel_for — e.g. a suite phase, itself one iteration
// of the phase fan-out, fanning out its own probe tasks — completes
// without reserving threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace servet::exec {

class ThreadPool {
  public:
    /// Spawns `threads` workers (clamped to >= 1).
    explicit ThreadPool(int threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] int thread_count() const { return static_cast<int>(workers_.size()); }

    /// Fire-and-forget execution. The callable must not throw — there is
    /// nobody to rethrow to; exceptions escaping it are logged and
    /// dropped. Use parallel_for for propagating work.
    void submit(std::function<void()> task);

    /// Runs body(0) ... body(n-1), in any order, and returns when all have
    /// finished. The calling thread executes iterations too (see file
    /// comment). If bodies throw, iterations not yet claimed are
    /// abandoned, in-flight ones are drained, and the exception with the
    /// smallest iteration index is rethrown here.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  private:
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

}  // namespace servet::exec
