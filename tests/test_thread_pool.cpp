// Tests for the persistent worker pool under the replication engine:
// completion, exception propagation, and — critically — deadlock-free
// nested submit/wait on a single-worker pool (work-helping); and for the
// RowBlocks helper graph assembly runs its per-row passes through.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace {

using ld::support::RowBlocks;
using ld::support::TaskGroup;
using ld::support::ThreadPool;

TEST(ThreadPool, RunsEverySubmittedTask) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    TaskGroup group(pool);
    for (int i = 0; i < 100; ++i) {
        group.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOneWorker) {
    ThreadPool pool;  // 0 → hardware_concurrency, clamped to >= 1
    EXPECT_GE(pool.worker_count(), 1u);
    EXPECT_GE(ThreadPool::global().worker_count(), 1u);
}

TEST(ThreadPool, WaitHelpsOnSingleWorkerPool) {
    // More tasks than workers: wait() must lend the calling thread.
    ThreadPool pool(1);
    std::atomic<int> counter{0};
    TaskGroup group(pool);
    for (int i = 0; i < 64; ++i) {
        group.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, NestedSubmitWaitDoesNotDeadlock) {
    // A pool task that itself fans out a group on the same single-worker
    // pool and waits — the nested-parallelism shape of an experiment cell
    // running a pooled estimate.  Work-helping makes this finish.
    ThreadPool pool(1);
    std::atomic<int> inner_total{0};
    TaskGroup outer(pool);
    for (int i = 0; i < 4; ++i) {
        outer.submit([&pool, &inner_total] {
            TaskGroup inner(pool);
            for (int j = 0; j < 8; ++j) {
                inner.submit([&inner_total] {
                    inner_total.fetch_add(1, std::memory_order_relaxed);
                });
            }
            inner.wait();
        });
    }
    outer.wait();
    EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, FirstExceptionRethrownFromWait) {
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
        group.submit([i, &ran] {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (i == 3) throw std::runtime_error("task failed");
        });
    }
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 8);  // failure doesn't cancel the rest of the group
}

TEST(ThreadPool, GroupsShareOnePoolConcurrently) {
    ThreadPool pool(2);
    std::atomic<int> a{0}, b{0};
    TaskGroup ga(pool), gb(pool);
    for (int i = 0; i < 16; ++i) {
        ga.submit([&a] { a.fetch_add(1, std::memory_order_relaxed); });
        gb.submit([&b] { b.fetch_add(1, std::memory_order_relaxed); });
    }
    ga.wait();
    gb.wait();
    EXPECT_EQ(a.load(), 16);
    EXPECT_EQ(b.load(), 16);
}

TEST(RowBlocks, SmallPassesStayInOneBlock) {
    // 4000 rows of 8 entries: 36000 units, under one block's minimum.
    std::vector<std::size_t> offsets(4001);
    for (std::size_t v = 0; v <= 4000; ++v) offsets[v] = 8 * v;
    const RowBlocks blocks(offsets);
    ASSERT_EQ(blocks.count(), 1u);
    EXPECT_EQ(blocks.begin(0), 0u);
    EXPECT_EQ(blocks.end(0), 4000u);
    const auto caller = std::this_thread::get_id();
    blocks.run([&](std::size_t, std::size_t, std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);  // inline
    });
    EXPECT_EQ(RowBlocks(0, 1).count(), 1u);
    EXPECT_EQ(RowBlocks(1 << 20, 1, 1).count(), 1u);  // width 1: one block
}

TEST(RowBlocks, CutsAtEqualSharesOfEntries) {
    // Row v holds about 2e6 / (v + 1) entries, the heavy rows first.
    const std::size_t n = 200000;
    std::vector<std::size_t> offsets(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + 2000000 / (v + 1);
    const RowBlocks blocks(offsets, 1, 4);
    ASSERT_EQ(blocks.count(), 4u);
    // Block b ends at the first row whose preceding work (entries plus
    // one per row) reaches (b + 1) / 4 of the total.
    const auto work_before = [&](std::size_t v) { return offsets[v] + v; };
    const std::size_t total = work_before(n);
    std::vector<int> visits(n, 0);
    blocks.run([&](std::size_t block, std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, blocks.begin(block));
        EXPECT_EQ(end, blocks.end(block));
        for (std::size_t v = begin; v < end; ++v) ++visits[v];
    });
    for (std::size_t b = 0; b < blocks.count(); ++b) {
        const std::size_t share = total * (b + 1) / 4;
        EXPECT_LT(work_before(blocks.end(b) - 1), share) << "block " << b;
        EXPECT_GE(work_before(blocks.end(b)), share) << "block " << b;
        const double work = static_cast<double>(work_before(blocks.end(b)) -
                                                work_before(blocks.begin(b)));
        EXPECT_NEAR(work / static_cast<double>(total / 4), 1.0, 0.05) << "block " << b;
    }
    EXPECT_LT(blocks.end(0), n / 100);  // the first block is a few heavy rows
    EXPECT_EQ(std::count(visits.begin(), visits.end(), 1),
              static_cast<std::ptrdiff_t>(n));
}

TEST(RowBlocks, LowestBlockExceptionIsRethrown) {
    const RowBlocks blocks(1 << 20, 1, 4);
    ASSERT_EQ(blocks.count(), 4u);
    std::atomic<int> ran{0};
    try {
        blocks.run([&](std::size_t block, std::size_t, std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (block == 3) throw std::runtime_error("block 3");
            if (block == 1) throw std::runtime_error("block 1");
        });
        ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& error) {
        EXPECT_EQ(std::string(error.what()), "block 1");
    }
    EXPECT_EQ(ran.load(), 4);  // a failing block does not cancel the others
}

}  // namespace
