// The replication execution engine: a persistent thread pool plus one
// ReplicationWorkspace per worker thread.  Every estimate_* call runs its
// replication loop through an engine, so workers and their workspaces are
// shared across experiment cells instead of being recreated per call.
//
// Determinism contract: for a fixed (seed, threads) pair the parent RNG
// is split into `threads` jumped streams up front, stream t runs the t-th
// replication chunk, and partial statistics are merged in stream order
// (certified runs seed each replication by its index instead) — so
// results are bit-identical no matter which OS thread executes which
// chunk and how cells are scheduled.

#pragma once

#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "ld/election/workspace.hpp"
#include "support/thread_pool.hpp"

namespace ld::election {

/// Pool + per-thread workspaces.  Thread-safe; one engine can serve many
/// concurrent estimate calls.
class ReplicationEngine {
public:
    /// Engine over `pool` (defaults to the process-wide shared pool).
    /// The pool must outlive the engine.
    explicit ReplicationEngine(support::ThreadPool& pool = support::ThreadPool::global())
        : pool_(&pool) {}

    support::ThreadPool& pool() const noexcept { return *pool_; }

    /// The calling thread's workspace, created on first use and reused for
    /// every subsequent replication chunk this thread runs through this
    /// engine — including chunks of later estimate calls on different
    /// instances (buffers are re-sized per replication, so no state leaks
    /// across cells).
    ReplicationWorkspace& local_workspace();

    /// Process-wide engine used when EvalOptions names no engine.
    static ReplicationEngine& shared();

private:
    support::ThreadPool* pool_;
    std::mutex mutex_;
    std::unordered_map<std::thread::id, std::unique_ptr<ReplicationWorkspace>> workspaces_;
};

}  // namespace ld::election
