#include "support/event_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "support/net.hpp"

namespace ld::support::net {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw NetError(what + ": " + std::strerror(errno));
}

std::uint32_t to_epoll(std::uint32_t interest) {
    // A half-close is observed while reading only: level-triggered, it
    // would fire on every wait once the read side is done.
    std::uint32_t events = 0;
    if (interest & kEventRead) events |= EPOLLIN | EPOLLRDHUP;
    if (interest & kEventWrite) events |= EPOLLOUT;
    return events;
}

std::uint32_t from_epoll(std::uint32_t events) {
    std::uint32_t bits = 0;
    if (events & EPOLLIN) bits |= kEventRead;
    if (events & EPOLLOUT) bits |= kEventWrite;
    if (events & EPOLLRDHUP) bits |= kEventRdHangup;
    if (events & EPOLLHUP) bits |= kEventHangup;
    if (events & EPOLLERR) bits |= kEventError;
    return bits;
}

/// fd + registration token packed into epoll's u64 user-data word, so a
/// stale event for a recycled fd number can be told apart from a live
/// registration without any extra bookkeeping.
std::uint64_t pack(int fd, std::uint32_t token) {
    return (static_cast<std::uint64_t>(token) << 32) |
           static_cast<std::uint32_t>(fd);
}

}  // namespace

// Poller -------------------------------------------------------------------

Poller::Poller() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) fail("epoll_create1");
}

Poller::~Poller() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Poller::add(int fd, std::uint32_t interest, std::uint32_t token) {
    epoll_event event{};
    event.events = to_epoll(interest);
    event.data.u64 = pack(fd, token);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
        fail("epoll_ctl(ADD)");
    }
}

void Poller::modify(int fd, std::uint32_t interest, std::uint32_t token) {
    epoll_event event{};
    event.events = to_epoll(interest);
    event.data.u64 = pack(fd, token);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) != 0) {
        fail("epoll_ctl(MOD)");
    }
}

void Poller::remove(int fd) noexcept {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

std::size_t Poller::wait(std::vector<Event>& out, int timeout_ms) {
    epoll_event events[128];
    const int ready = ::epoll_wait(epoll_fd_, events, 128, timeout_ms);
    out.clear();
    if (ready < 0) {
        if (errno == EINTR) return 0;
        fail("epoll_wait");
    }
    out.reserve(static_cast<std::size_t>(ready));
    for (int i = 0; i < ready; ++i) {
        Event event;
        event.fd = static_cast<int>(events[i].data.u64 & 0xffffffffu);
        event.token = static_cast<std::uint32_t>(events[i].data.u64 >> 32);
        event.events = from_epoll(events[i].events);
        out.push_back(event);
    }
    return static_cast<std::size_t>(ready);
}

// EventLoop ----------------------------------------------------------------

EventLoop::EventLoop() {
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) fail("eventfd");
    poller_.add(wake_fd_, kEventRead, 0);
}

EventLoop::~EventLoop() {
    if (wake_fd_ >= 0) ::close(wake_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t interest, FdCallback callback) {
    Registration registration;
    registration.callback = std::move(callback);
    registration.interest = interest;
    registration.token = next_token_++;
    if (registration.token == 0) registration.token = next_token_++;
    poller_.add(fd, interest, registration.token);
    registrations_[fd] = std::move(registration);
    fd_gauge_.store(registrations_.size(), std::memory_order_relaxed);
}

void EventLoop::set_interest(int fd, std::uint32_t interest) {
    const auto found = registrations_.find(fd);
    if (found == registrations_.end()) return;
    if (found->second.interest == interest) return;
    poller_.modify(fd, interest, found->second.token);
    found->second.interest = interest;
}

void EventLoop::remove_fd(int fd) noexcept {
    if (registrations_.erase(fd) > 0) poller_.remove(fd);
    fd_gauge_.store(registrations_.size(), std::memory_order_relaxed);
}

bool EventLoop::watches(int fd) const {
    return registrations_.find(fd) != registrations_.end();
}

void EventLoop::post(std::function<void()> task) {
    {
        std::lock_guard<std::mutex> lock(task_mutex_);
        tasks_.push_back(std::move(task));
    }
    wake();
}

void EventLoop::set_tick(std::chrono::milliseconds period,
                         std::function<void()> on_tick) {
    tick_period_ = period;
    on_tick_ = std::move(on_tick);
}

void EventLoop::wake() noexcept {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto rc = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::run_tasks() {
    std::vector<std::function<void()>> batch;
    {
        std::lock_guard<std::mutex> lock(task_mutex_);
        batch.swap(tasks_);
    }
    for (auto& task : batch) task();
}

void EventLoop::run() {
    loop_thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    using Clock = std::chrono::steady_clock;
    Clock::time_point next_tick =
        tick_period_.count() > 0 ? Clock::now() + tick_period_ : Clock::time_point::max();

    std::vector<Poller::Event> events;
    while (!stop_.load(std::memory_order_acquire)) {
        int timeout = -1;
        if (tick_period_.count() > 0) {
            const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                                  next_tick - Clock::now())
                                  .count();
            timeout = left <= 0 ? 0 : static_cast<int>(std::min<long long>(left, 60'000));
        }
        poller_.wait(events, timeout);

        for (const Poller::Event& event : events) {
            if (event.fd == wake_fd_) {
                std::uint64_t drained = 0;
                [[maybe_unused]] const auto rc =
                    ::read(wake_fd_, &drained, sizeof drained);
                continue;
            }
            // A callback earlier in this batch may have removed (and the
            // owner closed, and accept() recycled) this fd: deliver only
            // when the registration token still matches.
            const auto found = registrations_.find(event.fd);
            if (found == registrations_.end() || found->second.token != event.token) {
                continue;
            }
            // Invoke a copy: the callback may remove_fd its own
            // registration (a connection closing itself), which would
            // otherwise destroy the std::function mid-execution.
            const FdCallback callback = found->second.callback;
            callback(event.events);
        }

        run_tasks();

        if (tick_period_.count() > 0 && Clock::now() >= next_tick) {
            if (on_tick_) on_tick_();
            next_tick = Clock::now() + tick_period_;
        }
    }
    run_tasks();  // drain anything posted alongside the stop
    loop_thread_.store(std::thread::id{}, std::memory_order_relaxed);
}

void EventLoop::stop() {
    stop_.store(true, std::memory_order_release);
    wake();
}

}  // namespace ld::support::net
