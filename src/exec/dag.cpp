#include "exec/dag.hpp"

#include <condition_variable>
#include <memory>
#include <mutex>

#include "base/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace servet::exec {

std::size_t TaskDag::index_of(const std::string& key) const {
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].key == key) return i;
    return nodes_.size();
}

void TaskDag::add(std::string key, std::function<void()> body,
                  const std::vector<std::string>& deps) {
    SERVET_CHECK_MSG(index_of(key) == nodes_.size(), "duplicate task key");
    Node node;
    node.key = std::move(key);
    node.body = std::move(body);
    for (const std::string& dep : deps) {
        const std::size_t d = index_of(dep);
        SERVET_CHECK_MSG(d < nodes_.size(), "dependency not added before dependent");
        node.deps.push_back(d);
        nodes_[d].dependents.push_back(nodes_.size());
    }
    nodes_.push_back(std::move(node));
}

namespace {

enum class State { Pending, Done, Failed };

bool ready(const std::vector<State>& state, const std::vector<std::size_t>& deps) {
    for (const std::size_t d : deps)
        if (state[d] != State::Done) return false;
    return true;
}

/// True when some dependency failed (or was itself skipped).
bool blocked(const std::vector<State>& state, const std::vector<std::size_t>& deps) {
    for (const std::size_t d : deps)
        if (state[d] == State::Failed) return true;
    return false;
}

}  // namespace

void TaskDag::run_serial() {
    std::vector<State> state(nodes_.size(), State::Pending);
    std::exception_ptr error;
    std::size_t error_index = 0;

    // Insertion order is a valid topological order (deps precede
    // dependents by construction), so one pass settles everything, and
    // skips propagate through chains naturally.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (blocked(state, nodes_[i].deps)) {
            state[i] = State::Failed;
            continue;
        }
        try {
            SERVET_TRACE_SPAN("dag/" + nodes_[i].key);
            nodes_[i].body();
            state[i] = State::Done;
        } catch (...) {
            state[i] = State::Failed;
            if (!error || i < error_index) {
                error = std::current_exception();
                error_index = i;
            }
        }
    }
    if (error) std::rethrow_exception(error);
}

/// State of one parallel run, owned jointly by the caller and every queued
/// or running task. Nothing it holds refers back to the owning
/// shared_ptr, so it is freed when the caller and the last task let go.
struct TaskDag::ParallelRun {
    ParallelRun(const std::vector<Node>& dag_nodes, ThreadPool& run_pool)
        : nodes(dag_nodes), pool(run_pool), state(dag_nodes.size(), State::Pending) {}

    const std::vector<Node>& nodes;
    ThreadPool& pool;
    std::mutex mutex;
    std::condition_variable all_settled;
    std::vector<State> state;
    std::size_t settled = 0;
    std::exception_ptr error;
    std::size_t error_index = 0;

    /// Settles node i with the given outcome and returns the tasks that
    /// became runnable. Skips sweep transitively via a worklist: a failed
    /// node fails its pending dependents, which fail theirs, and so on.
    std::vector<std::size_t> settle(std::size_t i, std::exception_ptr failure) {
        std::vector<std::size_t> runnable;
        std::lock_guard<std::mutex> lock(mutex);
        if (failure && (!error || i < error_index)) {
            error = failure;
            error_index = i;
        }
        state[i] = failure ? State::Failed : State::Done;
        ++settled;
        std::vector<std::size_t> sweep{i};
        while (!sweep.empty()) {
            const std::size_t s = sweep.back();
            sweep.pop_back();
            for (const std::size_t dep : nodes[s].dependents) {
                if (state[dep] != State::Pending) continue;
                if (blocked(state, nodes[dep].deps)) {
                    state[dep] = State::Failed;
                    ++settled;
                    sweep.push_back(dep);
                } else if (ready(state, nodes[dep].deps)) {
                    runnable.push_back(dep);
                }
            }
        }
        all_settled.notify_all();
        return runnable;
    }

    /// Queues node i; the task keeps the run alive until it has settled
    /// the node and queued whatever that made runnable.
    static void spawn(const std::shared_ptr<ParallelRun>& run, std::size_t i) {
        run->pool.submit([run, i] {
            std::exception_ptr failure;
            try {
                SERVET_TRACE_SPAN("dag/" + run->nodes[i].key);
                run->nodes[i].body();
            } catch (...) {
                failure = std::current_exception();
            }
            for (const std::size_t next : run->settle(i, failure)) spawn(run, next);
        });
    }
};

void TaskDag::run_parallel(ThreadPool& pool) {
    const auto run = std::make_shared<ParallelRun>(nodes_, pool);
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].deps.empty()) ParallelRun::spawn(run, i);

    std::unique_lock<std::mutex> lock(run->mutex);
    run->all_settled.wait(lock, [&] { return run->settled == nodes_.size(); });
    if (run->error) std::rethrow_exception(run->error);
}

void TaskDag::run(ThreadPool* pool) {
    SERVET_CHECK_MSG(!ran_, "TaskDag::run is single-shot");
    ran_ = true;
    if (nodes_.empty()) return;
    obs::counter("exec.dag.nodes", obs::Stability::Stable).add(nodes_.size());
    if (pool == nullptr) {
        run_serial();
        return;
    }
    run_parallel(*pool);
}

}  // namespace servet::exec
