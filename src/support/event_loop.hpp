// Epoll-based event loop for the serve layer: a thin RAII `Poller` over
// epoll(7) and a single-threaded callback `EventLoop` on top of it.
//
// The loop owns nothing but file-descriptor *registrations* — callers
// keep ownership of their fds and must remove them from the loop before
// closing (a registration carries a generation token, so an event for a
// closed-and-reused fd number can never be delivered to the wrong
// callback).  Cross-thread interaction happens through two doors only:
// post() (run a task on the loop thread; wakes the loop via an eventfd)
// and stop().  Everything else — add_fd/set_interest/remove_fd — is
// loop-thread-only, which is what keeps the registration table lock-free.
//
// This is deliberately not a general-purpose reactor: level-triggered
// only, one coarse periodic tick (write-stall sweeps, health checks),
// no timer wheel, no multi-thread dispatch.  `liquidd serve` needs to
// hold tens of thousands of mostly-idle connections with a handful of
// active ones, and level-triggered epoll plus a tick is the simplest
// thing that does that.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ld::support::net {

/// Readiness / interest bits — a portable veneer over EPOLL* flags so
/// the serve layer never includes <sys/epoll.h> directly.
inline constexpr std::uint32_t kEventRead = 1u << 0;
inline constexpr std::uint32_t kEventWrite = 1u << 1;
/// Peer closed its write side (half-close); data may still be readable.
/// Reported only for an fd registered with kEventRead.
inline constexpr std::uint32_t kEventRdHangup = 1u << 2;
/// Full hangup: both directions are gone (close or reset).
inline constexpr std::uint32_t kEventHangup = 1u << 3;
inline constexpr std::uint32_t kEventError = 1u << 4;

/// RAII epoll instance.  add/modify/remove mirror epoll_ctl; wait fills
/// an event vector.  The `token` registered with each fd is returned
/// with its events — the EventLoop uses it to detect stale events for
/// recycled descriptor numbers.
class Poller {
public:
    struct Event {
        int fd = -1;
        std::uint32_t token = 0;
        std::uint32_t events = 0;  ///< kEvent* bits
    };

    Poller();
    ~Poller();
    Poller(const Poller&) = delete;
    Poller& operator=(const Poller&) = delete;

    void add(int fd, std::uint32_t interest, std::uint32_t token);
    void modify(int fd, std::uint32_t interest, std::uint32_t token);
    void remove(int fd) noexcept;

    /// Wait up to `timeout_ms` (-1 = forever).  Returns the events that
    /// fired; EINTR returns an empty batch.
    std::size_t wait(std::vector<Event>& out, int timeout_ms);

private:
    int epoll_fd_ = -1;
};

/// Single-threaded callback loop.  One thread calls run(); any thread
/// may post() or stop().
class EventLoop {
public:
    /// Invoked with the kEvent* readiness bits that fired.
    using FdCallback = std::function<void(std::uint32_t events)>;

    EventLoop();
    ~EventLoop();
    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    /// Register `fd` (loop thread, or any thread before run() starts).
    /// The callback stays registered until remove_fd.
    void add_fd(int fd, std::uint32_t interest, FdCallback callback);
    void set_interest(int fd, std::uint32_t interest);
    void remove_fd(int fd) noexcept;
    bool watches(int fd) const;

    /// Queue `task` for the loop thread and wake it.  Thread-safe;
    /// tasks run in post order, after the current event batch.
    void post(std::function<void()> task);

    /// Coarse periodic callback on the loop thread (0 = no tick).
    /// Loop-thread-only (or before run()).
    void set_tick(std::chrono::milliseconds period, std::function<void()> on_tick);

    /// Dispatch events and tasks until stop().  Runs on the caller's
    /// thread; reentry is a bug.
    void run();

    /// Ask the loop to exit after the current batch.  Thread-safe.
    void stop();

    std::size_t fd_count() const noexcept {
        return fd_gauge_.load(std::memory_order_relaxed);
    }
    bool on_loop_thread() const noexcept {
        return std::this_thread::get_id() == loop_thread_.load(std::memory_order_relaxed);
    }

private:
    struct Registration {
        FdCallback callback;
        std::uint32_t interest = 0;
        std::uint32_t token = 0;
    };

    void wake() noexcept;
    void run_tasks();

    Poller poller_;
    int wake_fd_ = -1;  ///< eventfd: post()/stop() → epoll_wait wakeup

    std::unordered_map<int, Registration> registrations_;  ///< loop thread only
    std::uint32_t next_token_ = 1;
    std::atomic<std::size_t> fd_gauge_{0};

    std::mutex task_mutex_;
    std::vector<std::function<void()>> tasks_;

    std::chrono::milliseconds tick_period_{0};
    std::function<void()> on_tick_;

    std::atomic<bool> stop_{false};
    std::atomic<std::thread::id> loop_thread_{};
};

}  // namespace ld::support::net
