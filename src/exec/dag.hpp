// Deterministic task-DAG runner. Tasks are named, depend on earlier-added
// tasks, and run on a ThreadPool when one is given — independent tasks
// concurrently, dependents only after every dependency succeeded. Without
// a pool the DAG runs serially in a deterministic topological order
// (insertion order among ready tasks), which is the jobs=1 path of the
// suite. Task bodies may issue nested ThreadPool::parallel_for calls; the
// cooperative pool design makes that safe.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exec/pool.hpp"

namespace servet::exec {

class TaskDag {
  public:
    /// Adds a task. Every name in `deps` must have been added before
    /// (checked), which also rules out cycles by construction.
    void add(std::string key, std::function<void()> body,
             const std::vector<std::string>& deps = {});

    /// Runs every task. If a body throws, tasks depending on it
    /// (transitively) are skipped, independent tasks still run, and the
    /// first failure (by insertion order) is rethrown once all settled.
    /// The DAG is single-shot: run() may be called once.
    void run(ThreadPool* pool);

    [[nodiscard]] std::size_t task_count() const { return nodes_.size(); }

  private:
    struct Node {
        std::string key;
        std::function<void()> body;
        std::vector<std::size_t> deps;
        std::vector<std::size_t> dependents;
    };

    struct ParallelRun;  // run_parallel's state, shared with its tasks

    [[nodiscard]] std::size_t index_of(const std::string& key) const;
    void run_serial();
    void run_parallel(ThreadPool& pool);

    std::vector<Node> nodes_;
    bool ran_ = false;
};

}  // namespace servet::exec
