// A persistent worker pool with a submit/wait API — the execution engine
// under the Monte-Carlo replication loop (and any other embarrassingly
// parallel sweep).  Motivation: the evaluator previously spawned and joined
// fresh std::threads on *every* estimate call, so every cell of every
// experiment paid thread-creation latency and no workers were shared
// across cells.
//
// Design:
//  * ThreadPool owns long-lived workers (lazily sized to
//    hardware_concurrency for the shared global() pool).
//  * Work is submitted in batches through a TaskGroup; wait() blocks until
//    every task of that group has run.
//  * wait() *lends the calling thread* to its own group's still-queued
//    tasks (work-helping).  This keeps nested parallelism deadlock-free:
//    a pool task may itself submit a group to the same pool and wait on it,
//    even on a single-worker pool.
//  * Determinism is the caller's contract: tasks are identified by their
//    submission index, so pinning one RNG stream per task index yields
//    bit-identical results regardless of which OS thread runs which task.
//  * Every pool reports to the global MetricsRegistry under "pool.*":
//    tasks executed / helped, live + peak queue depth, and per-worker
//    busy/idle nanoseconds (relaxed sharded atomics — a few ns per task).

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "support/metrics.hpp"

namespace ld::support {

class TaskGroup;

/// Persistent pool of worker threads.  Threads are started in the
/// constructor and joined in the destructor; submission happens through
/// TaskGroup.
class ThreadPool {
public:
    /// `workers == 0` sizes the pool to std::thread::hardware_concurrency()
    /// (at least one worker either way).
    explicit ThreadPool(std::size_t workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t worker_count() const noexcept { return workers_.size(); }

    /// Process-wide shared pool, created on first use and sized to the
    /// hardware.  All library components default to this pool so workers
    /// are shared across experiment cells.
    static ThreadPool& global();

private:
    friend class TaskGroup;

    struct Job {
        std::function<void()> fn;
        TaskGroup* group;
    };

    void worker_loop();

    /// Pop and run one queued job belonging to `group` (work-helping).
    /// Returns false if no such job is queued.
    bool try_help(TaskGroup& group);

    void enqueue(Job job);

    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<Job> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;

    // Cached global-registry metrics (shared by every pool instance, so
    // counts aggregate across dedicated test pools and the global pool).
    Counter& tasks_executed_;
    Counter& tasks_helped_;
    Counter& busy_ns_;
    Counter& idle_ns_;
    Gauge& queue_depth_;
};

/// One batch of tasks on a pool.  Submit any number of jobs, then wait().
/// The destructor waits too, so a group can never outlive its jobs.
/// If a job throws, the first exception is captured and rethrown from
/// wait() on the submitting thread.
class TaskGroup {
public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Queue one job for execution on the pool.
    void submit(std::function<void()> job);

    /// Block until every submitted job has finished, helping with this
    /// group's queued jobs on the calling thread.  Rethrows the first
    /// job exception, if any.
    void wait();

private:
    friend class ThreadPool;

    /// Run `job` on the current thread and account for its completion.
    void run(std::function<void()>& job);

    ThreadPool& pool_;
    std::mutex mutex_;
    std::condition_variable done_;
    std::size_t pending_ = 0;
    std::exception_ptr error_;
};

/// A per-row pass over CSR-shaped data (graph assembly: checks, row sorts,
/// approval lists) cut into contiguous blocks of rows that run on the
/// global pool.  Blocks are cut at equal shares of work, a row costing its
/// entries (weighted by the pass) plus one, so the heavy low-id rows of
/// Chung–Lu and hyperbolic graphs do not pile into one block.  The block
/// count is the pool width, capped so that every block carries at least
/// kMinBlockWork; a pass that fits in one block runs inline on the
/// calling thread and does not start the pool.
/// Where blocks write only their own rows, the result does not depend on
/// the cut, hence not on the pool width either.
class RowBlocks {
public:
    /// Work below which a pass stays in one block, in units of one CSR
    /// entry visited by a scan.
    static constexpr std::size_t kMinBlockWork = std::size_t{1} << 16;

    /// Units per entry of a row sort (a few compares and moves each).
    static constexpr std::size_t kSortWork = 8;

    /// The rows of a CSR, row v spanning offsets[v] .. offsets[v + 1] and
    /// costing `entry_work` units per entry plus one.  Non-monotone
    /// offsets still cut [0, n) into blocks, only not evenly.  `width`
    /// caps the block count; 0 means the pool width.
    explicit RowBlocks(std::span<const std::size_t> offsets, std::size_t entry_work = 1,
                       std::size_t width = 0);

    /// `rows` rows that cost `row_work` units each.
    RowBlocks(std::size_t rows, std::size_t row_work, std::size_t width = 0);

    std::size_t count() const noexcept { return bounds_.size() - 1; }
    std::size_t begin(std::size_t block) const { return bounds_[block]; }
    std::size_t end(std::size_t block) const { return bounds_[block + 1]; }

    /// Run `body(block, begin, end)` for every block through run_blocks,
    /// so a pass whose blocks check rows in order fails like the serial
    /// pass.
    void run(
        const std::function<void(std::size_t, std::size_t, std::size_t)>& body) const;

private:
    void cut(std::size_t rows, std::size_t width,
             const std::function<std::size_t(std::size_t)>& work_before);

    std::vector<std::size_t> bounds_;  // count() + 1 row boundaries
};

/// Run `body(0)` .. `body(count - 1)`: inline when count is 1, else on the
/// global pool with the caller helping.  A call that throws stops; the
/// others run on, and the lowest index's exception is rethrown.
void run_blocks(std::size_t count, const std::function<void(std::size_t)>& body);

}  // namespace ld::support
