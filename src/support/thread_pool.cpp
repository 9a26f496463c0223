#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "support/stopwatch.hpp"

namespace ld::support {

ThreadPool::ThreadPool(std::size_t workers)
    : tasks_executed_(MetricsRegistry::global().counter("pool.tasks_executed")),
      tasks_helped_(MetricsRegistry::global().counter("pool.tasks_helped")),
      busy_ns_(MetricsRegistry::global().counter("pool.busy_ns")),
      idle_ns_(MetricsRegistry::global().counter("pool.idle_ns")),
      queue_depth_(MetricsRegistry::global().gauge("pool.queue_depth")) {
    if (workers == 0) {
        workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    MetricsRegistry::global().gauge("pool.workers").set(static_cast<std::int64_t>(workers));
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    ready_.notify_all();
    for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool;
    return pool;
}

void ThreadPool::worker_loop() {
    for (;;) {
        Job job;
        {
            const Stopwatch wait_clock;
            std::unique_lock<std::mutex> lock(mutex_);
            ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            idle_ns_.add(wait_clock.elapsed_ns());
            if (queue_.empty()) return;  // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
            queue_depth_.add(-1);
        }
        const Stopwatch run_clock;
        job.group->run(job.fn);
        busy_ns_.add(run_clock.elapsed_ns());
        tasks_executed_.add(1);
    }
}

bool ThreadPool::try_help(TaskGroup& group) {
    Job job;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = std::find_if(queue_.begin(), queue_.end(),
                                     [&](const Job& j) { return j.group == &group; });
        if (it == queue_.end()) return false;
        job = std::move(*it);
        queue_.erase(it);
        queue_depth_.add(-1);
    }
    job.group->run(job.fn);
    tasks_helped_.add(1);
    return true;
}

void ThreadPool::enqueue(Job job) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
        queue_depth_.add(1);
    }
    ready_.notify_one();
}

TaskGroup::~TaskGroup() {
    // Absorb any leftover exception: wait() already gave the caller a
    // chance to observe it; a throwing destructor would terminate.
    try {
        wait();
    } catch (...) {
    }
}

void TaskGroup::submit(std::function<void()> job) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++pending_;
    }
    pool_.enqueue(ThreadPool::Job{std::move(job), this});
}

void TaskGroup::wait() {
    // Help with this group's still-queued jobs instead of idling — this is
    // what makes nested waits on a shared pool deadlock-free.
    while (pool_.try_help(*this)) {
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
    if (error_) {
        auto error = std::exchange(error_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void TaskGroup::run(std::function<void()>& job) {
    try {
        job();
    } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
    }
    // Notify under the lock: once pending_ hits zero a waiter may destroy
    // this group, so the condition variable must not be touched after the
    // lock is released.
    const std::lock_guard<std::mutex> lock(mutex_);
    --pending_;
    done_.notify_all();
}

RowBlocks::RowBlocks(std::span<const std::size_t> offsets, std::size_t entry_work,
                     std::size_t width) {
    // The work before row v is offsets[v] * entry_work + v (every caller's
    // offsets start at 0).
    cut(offsets.size() - 1, width,
        [offsets, entry_work](std::size_t v) { return offsets[v] * entry_work + v; });
}

RowBlocks::RowBlocks(std::size_t rows, std::size_t row_work, std::size_t width) {
    cut(rows, width, [row_work](std::size_t v) { return v * row_work; });
}

void RowBlocks::cut(std::size_t rows, std::size_t width,
                    const std::function<std::size_t(std::size_t)>& work_before) {
    const std::size_t total = work_before(rows);
    std::size_t blocks = std::max<std::size_t>(total / kMinBlockWork, 1);
    // Only a pass that can split asks for the pool width, so one that
    // cannot never starts the pool.
    if (blocks > 1) {
        blocks = std::min(blocks, width == 0 ? ThreadPool::global().worker_count() : width);
    }
    bounds_.assign(1, 0);
    for (std::size_t b = 1; b < blocks; ++b) {
        // First row whose preceding work reaches b/blocks of the total.
        const std::size_t share = total * b / blocks;
        std::size_t lo = bounds_.back();
        std::size_t hi = rows;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (work_before(mid) < share) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if (lo > bounds_.back() && lo < rows) bounds_.push_back(lo);
    }
    bounds_.push_back(rows);
}

void RowBlocks::run(
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) const {
    run_blocks(count(), [&](std::size_t b) { body(b, bounds_[b], bounds_[b + 1]); });
}

void run_blocks(std::size_t count, const std::function<void(std::size_t)>& body) {
    if (count == 1) {
        body(0);
        return;
    }
    std::vector<std::exception_ptr> errors(count);
    {
        TaskGroup group(ThreadPool::global());
        for (std::size_t b = 0; b < count; ++b) {
            group.submit([&, b] {
                try {
                    body(b);
                } catch (...) {
                    errors[b] = std::current_exception();
                }
            });
        }
        group.wait();
    }
    for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

}  // namespace ld::support
