#include "ld/serve/event_front.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <stdexcept>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "support/metrics.hpp"

namespace ld::serve {

namespace {

using support::net::kEventError;
using support::net::kEventHangup;
using support::net::kEventRdHangup;
using support::net::kEventRead;
using support::net::kEventWrite;

constexpr std::chrono::steady_clock::time_point kNoStall{};

}  // namespace

// Conn ---------------------------------------------------------------------

Conn::Conn(std::shared_ptr<support::net::EventLoop> loop, EventFront* front,
           support::net::Socket socket)
    : loop_(std::move(loop)), front_(front), socket_(std::move(socket)) {}

void Conn::send(const std::string& line) noexcept {
    if (dead_.load(std::memory_order_relaxed)) return;
    {
        std::lock_guard<std::mutex> lock(out_mutex_);
        out_buffer_.append(line);
        out_buffer_.push_back('\n');
    }
    if (loop_->on_loop_thread()) {
        flush();
        return;
    }
    // Coalesce cross-thread flush requests: one queued flush drains
    // every line appended before it runs.
    if (!flush_queued_.exchange(true, std::memory_order_acq_rel)) {
        auto self = shared_from_this();
        loop_->post([self] {
            self->flush_queued_.store(false, std::memory_order_release);
            self->flush();
        });
    }
}

void Conn::finish_inflight() noexcept {
    if (inflight_.fetch_sub(1) != 1) return;
    if (dead_.load(std::memory_order_relaxed)) return;
    // Last response: only a half-closed peer's connection may now be torn
    // down, so only then is the loop woken to decide.  A peer that closes
    // after this load sees inflight_ at 0 in its own maybe_close.
    if (!peer_done_.load()) return;
    auto self = shared_from_this();
    loop_->post([self] { self->maybe_close(); });
}

void Conn::flush() {
    if (!socket_.valid() || dead_.load(std::memory_order_relaxed)) return;
    bool fatal = false;
    bool emptied = false;
    std::size_t wrote = 0;
    {
        std::lock_guard<std::mutex> lock(out_mutex_);
        while (out_offset_ < out_buffer_.size()) {
            const std::string_view rest(out_buffer_.data() + out_offset_,
                                        out_buffer_.size() - out_offset_);
            std::size_t accepted = 0;
            try {
                accepted = socket_.write_nonblocking(rest);
            } catch (const support::net::NetError&) {
                fatal = true;
                break;
            }
            if (accepted == 0) break;  // socket buffer full
            wrote += accepted;
            out_offset_ += accepted;
        }
        if (!fatal && out_offset_ == out_buffer_.size()) {
            out_buffer_.clear();
            out_offset_ = 0;
            emptied = true;
        }
    }
    if (fatal) {
        dead_.store(true, std::memory_order_relaxed);
        if (front_) front_->close_conn(shared_from_this());
        return;
    }
    const std::uint32_t read_bits = read_closed_ ? 0 : kEventRead;
    if (emptied) {
        stall_since_ = kNoStall;
        if (want_write_) {
            want_write_ = false;
            loop_->set_interest(socket_.fd(), read_bits);
        }
        maybe_close();
        return;
    }
    // Bytes remain: (re-)arm writability and anchor the stall clock at
    // the last moment the kernel accepted anything.
    if (wrote > 0 || stall_since_ == kNoStall) {
        stall_since_ = std::chrono::steady_clock::now();
    }
    if (!want_write_) {
        want_write_ = true;
        loop_->set_interest(socket_.fd(), read_bits | kEventWrite);
    }
}

void Conn::maybe_close() {
    if (!socket_.valid() || !read_closed_) return;
    if (inflight_.load() != 0) return;
    {
        std::lock_guard<std::mutex> lock(out_mutex_);
        if (out_offset_ < out_buffer_.size()) return;
    }
    if (front_) front_->close_conn(shared_from_this());
}

// EventFront ---------------------------------------------------------------

EventFront::EventFront(FrontConfig config, LineHandler on_line,
                       std::function<void()> on_drain_signal)
    : config_(std::move(config)),
      on_line_(std::move(on_line)),
      on_drain_signal_(std::move(on_drain_signal)),
      loop_(std::make_shared<support::net::EventLoop>()) {
    // The tick drives write-stall sweeps, so it must fire a few times
    // within one write_timeout to enforce the deadline with any accuracy.
    if (config_.write_timeout.count() > 0) {
        const auto quarter =
            std::chrono::milliseconds(std::max<std::int64_t>(config_.write_timeout.count() / 4, 10));
        if (quarter < config_.tick) config_.tick = quarter;
    }
}

EventFront::~EventFront() {
    shutdown();
    // Remaining Conn sockets close via RAII when conns_ is destroyed.
}

void EventFront::start() {
    if (started_) throw std::logic_error("EventFront::start called twice");
    started_ = true;

    if (!config_.unix_socket.empty()) {
        unix_listener_.emplace(support::net::Listener::unix_domain(config_.unix_socket));
        support::net::set_nonblocking(unix_listener_->fd());
    }
    if (config_.tcp_port.has_value()) {
        tcp_listener_.emplace(support::net::Listener::tcp_loopback(*config_.tcp_port));
        support::net::set_nonblocking(tcp_listener_->fd());
        tcp_port_ = tcp_listener_->port();
    }

    // The loop thread has not started yet, so registering here is safe.
    if (unix_listener_) {
        loop_->add_fd(unix_listener_->fd(), kEventRead,
                      [this](std::uint32_t) { handle_accept(*unix_listener_); });
    }
    if (tcp_listener_) {
        loop_->add_fd(tcp_listener_->fd(), kEventRead,
                      [this](std::uint32_t) { handle_accept(*tcp_listener_); });
    }
    if (config_.signal_wake_fd >= 0) {
        loop_->add_fd(config_.signal_wake_fd, kEventRead, [this](std::uint32_t) {
            // One-shot: deregister (never consume the byte — other
            // watchers may share the fd) and hand off to the owner.
            loop_->remove_fd(config_.signal_wake_fd);
            if (on_drain_signal_) on_drain_signal_();
        });
    }
    loop_->set_tick(config_.tick, [this] { on_tick(); });

    loop_thread_ = std::thread([this] { run_loop(); });
}

void EventFront::run_loop() {
    try {
        loop_->run();
    } catch (const std::exception& error) {
        // An epoll-layer failure or a throwing line handler ends the
        // transport: surface it, run the tasks already posted (drain
        // calls from here on run inline), and ask the owner to drain.
        std::fprintf(stderr, "liquidd serve: event loop failed: %s\n", error.what());
        {
            // Under the lock no task is posted, so every post_and_wait
            // either got its task run here or runs inline after the flag.
            std::lock_guard<std::mutex> lock(post_mutex_);
            loop_->stop();
            try {
                loop_->run();  // stopped: runs the queued tasks once and returns
            } catch (const std::exception&) {
                // The tasks after the one that threw are dropped; their
                // post_and_wait callers run them inline.
            }
            loop_failed_.store(true, std::memory_order_release);
        }
        if (on_drain_signal_) on_drain_signal_();
    }
}

void EventFront::handle_accept(support::net::Listener& listener) {
    // Accept in bounded bursts; level-triggered epoll re-reports the
    // listener if a backlog remains.
    for (int burst = 0; burst < 64; ++burst) {
        if (!listener.valid()) return;
        bool exhausted = false;
        std::optional<support::net::Socket> client;
        try {
            client = listener.try_accept(&exhausted);
        } catch (const support::net::NetError&) {
            support::MetricsRegistry::global().counter("serve.accept_errors").add(1);
            return;  // transient accept failure; next readiness retries
        }
        if (!client.has_value()) {
            if (exhausted && !listeners_paused_) {
                // Out of descriptors: stop watching the listeners so the
                // loop does not spin on the connection it cannot accept;
                // a later tick re-arms them once connections have closed.
                listeners_paused_ = true;
                if (unix_listener_ && loop_->watches(unix_listener_->fd())) {
                    loop_->remove_fd(unix_listener_->fd());
                }
                if (tcp_listener_ && loop_->watches(tcp_listener_->fd())) {
                    loop_->remove_fd(tcp_listener_->fd());
                }
            }
            return;
        }
        if (!accepting_.load(std::memory_order_relaxed)) continue;  // draining: drop

        const int fd = client->fd();
        std::shared_ptr<Conn> conn(new Conn(loop_, this, std::move(*client)));
        conns_.emplace(fd, conn);
        conn_count_.fetch_add(1, std::memory_order_relaxed);
        if (config_.connections_gauge) {
            config_.connections_gauge->fetch_add(1, std::memory_order_relaxed);
        }
        support::MetricsRegistry::global().counter("serve.connections").add(1);
        loop_->add_fd(fd, kEventRead, [this, conn](std::uint32_t events) {
            on_conn_event(conn, events);
        });
        if (!config_.handshake.empty()) conn->send(config_.handshake);
    }
}

void EventFront::on_conn_event(const std::shared_ptr<Conn>& conn,
                               std::uint32_t events) {
    if (!conn->socket_.valid()) return;  // stale: closed earlier in this batch
    if (events & (kEventRead | kEventRdHangup | kEventHangup | kEventError)) {
        // Read first even on hangups: bytes the peer sent before closing
        // are still in the kernel buffer and may hold whole requests.
        read_pass(conn);
    }
    if (!conn->socket_.valid()) return;
    if (events & (kEventHangup | kEventError)) {
        // Full hangup — responses are undeliverable, drop immediately.
        conn->dead_.store(true, std::memory_order_relaxed);
        close_conn(conn);
        return;
    }
    if (events & kEventWrite) conn->flush();
}

void EventFront::read_pass(const std::shared_ptr<Conn>& conn) {
    char chunk[16 * 1024];
    // Bounded passes per wakeup so one firehose client cannot starve the
    // rest of the loop; leftovers are re-reported level-triggered.
    for (int pass = 0; pass < 4 && !conn->read_closed_; ++pass) {
        if (!conn->socket_.valid() || conn->dead()) return;
        std::optional<std::size_t> got;
        try {
            got = conn->socket_.read_nonblocking(chunk, sizeof chunk);
        } catch (const support::net::NetError&) {
            conn->dead_.store(true, std::memory_order_relaxed);
            close_conn(conn);
            return;
        }
        if (!got.has_value()) break;  // drained for now (EAGAIN)
        if (*got == 0) {              // orderly EOF: half-close
            conn->read_closed_ = true;
            conn->peer_done_.store(true);
            break;
        }
        // The bytes held from earlier reads hold no '\n': search only the
        // new ones, so a line dribbled in over many reads is scanned once.
        const std::size_t scanned = conn->in_buffer_.size();
        conn->in_buffer_.append(chunk, *got);
        std::size_t start = 0;
        std::size_t newline = conn->in_buffer_.find('\n', scanned);
        while (newline != std::string::npos) {
            std::size_t end = newline;
            if (end > start && conn->in_buffer_[end - 1] == '\r') --end;
            const std::string line = conn->in_buffer_.substr(start, end - start);
            start = newline + 1;
            on_line_(conn, line);
            if (!conn->socket_.valid() || conn->dead()) return;
            newline = conn->in_buffer_.find('\n', start);
        }
        conn->in_buffer_.erase(0, start);
    }
    if (!conn->read_closed_) return;

    if (!conn->in_buffer_.empty()) {
        // Final unterminated line: honor it, matching LineReader.
        std::string line;
        line.swap(conn->in_buffer_);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        on_line_(conn, line);
    }
    if (conn->socket_.valid() && !conn->dead()) {
        loop_->set_interest(conn->socket_.fd(),
                            conn->want_write_ ? kEventWrite : 0);
        conn->maybe_close();
    }
}

void EventFront::close_conn(const std::shared_ptr<Conn>& conn) {
    if (!conn->socket_.valid()) return;
    const int fd = conn->socket_.fd();
    conn->dead_.store(true, std::memory_order_relaxed);
    loop_->remove_fd(fd);
    conn->socket_.close();
    conns_.erase(fd);
    conn_count_.fetch_sub(1, std::memory_order_relaxed);
    if (config_.connections_gauge) {
        config_.connections_gauge->fetch_sub(1, std::memory_order_relaxed);
    }
}

void EventFront::on_tick() {
    if (listeners_paused_) {
        listeners_paused_ = false;
        if (accepting_.load(std::memory_order_relaxed)) {
            if (unix_listener_ && unix_listener_->valid() &&
                !loop_->watches(unix_listener_->fd())) {
                loop_->add_fd(unix_listener_->fd(), kEventRead,
                              [this](std::uint32_t) { handle_accept(*unix_listener_); });
            }
            if (tcp_listener_ && tcp_listener_->valid() &&
                !loop_->watches(tcp_listener_->fd())) {
                loop_->add_fd(tcp_listener_->fd(), kEventRead,
                              [this](std::uint32_t) { handle_accept(*tcp_listener_); });
            }
        }
    }

    if (config_.write_timeout.count() <= 0) return;
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<Conn>> stalled;
    for (const auto& entry : conns_) {
        const std::shared_ptr<Conn>& conn = entry.second;
        if (conn->stall_since_ == kNoStall) continue;
        bool pending = false;
        {
            std::lock_guard<std::mutex> lock(conn->out_mutex_);
            pending = conn->out_offset_ < conn->out_buffer_.size();
        }
        if (pending && now - conn->stall_since_ >= config_.write_timeout) {
            stalled.push_back(conn);
        }
    }
    for (const std::shared_ptr<Conn>& conn : stalled) {
        // The peer stopped reading: drop it rather than buffer forever.
        conn->dead_.store(true, std::memory_order_relaxed);
        close_conn(conn);
    }
}

void EventFront::post_and_wait(const std::function<void()>& fn) {
    std::future<void> finished;
    {
        std::lock_guard<std::mutex> lock(post_mutex_);
        if (started_ && !shut_down_ && !loop_failed() && loop_thread_.joinable() &&
            !loop_->on_loop_thread()) {
            auto done = std::make_shared<std::promise<void>>();
            finished = done->get_future();
            loop_->post([&fn, done] {
                fn();
                done->set_value();
            });
        }
    }
    if (!finished.valid()) {
        fn();
        return;
    }
    try {
        finished.get();
    } catch (const std::future_error&) {
        fn();  // the loop failed and dropped the task unrun
    }
}

void EventFront::barrier() {
    post_and_wait([] {});
}

void EventFront::stop_accepting() {
    accepting_.store(false, std::memory_order_relaxed);
    post_and_wait([this] {
        if (unix_listener_) {
            if (loop_->watches(unix_listener_->fd())) loop_->remove_fd(unix_listener_->fd());
            unix_listener_->close();
        }
        if (tcp_listener_) {
            if (loop_->watches(tcp_listener_->fd())) loop_->remove_fd(tcp_listener_->fd());
            tcp_listener_->close();
        }
    });
}

void EventFront::settle_inputs() {
    // Two barriers: the first may run inside the loop iteration that is
    // already in progress; the second necessarily follows a fresh
    // poll-dispatch cycle, so every request line that was readable when
    // the first barrier was posted has been handed to on_line by now.
    barrier();
    barrier();
}

bool EventFront::flush_all(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
        if (loop_failed()) return false;  // nothing flushes without the loop
        bool pending = false;
        post_and_wait([this, &pending] {
            for (const auto& entry : conns_) {
                const std::shared_ptr<Conn>& conn = entry.second;
                if (conn->dead()) continue;
                std::lock_guard<std::mutex> lock(conn->out_mutex_);
                if (conn->out_offset_ < conn->out_buffer_.size()) {
                    pending = true;
                    break;
                }
            }
        });
        if (!pending) return true;
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

void EventFront::close_all() {
    post_and_wait([this] {
        std::vector<std::shared_ptr<Conn>> all;
        all.reserve(conns_.size());
        for (const auto& entry : conns_) all.push_back(entry.second);
        for (const std::shared_ptr<Conn>& conn : all) close_conn(conn);
    });
}

void EventFront::shutdown() {
    if (shut_down_) return;
    shut_down_ = true;
    if (loop_thread_.joinable()) {
        loop_->stop();
        loop_thread_.join();
    }
    if (unix_listener_) unix_listener_->close();
    if (tcp_listener_) tcp_listener_->close();
}

// Readiness ----------------------------------------------------------------

int signal_ready(const std::string& ready_file, int ready_fd) {
    static constexpr char kReady[] = "ready\n";
    static constexpr std::size_t kReadyLen = sizeof kReady - 1;
    int kept = -1;
    if (!ready_file.empty()) {
        // O_RDWR, not O_WRONLY: opening a FIFO write-only blocks until a
        // reader appears, and readiness signaling must never block the
        // server.  The fd is kept open (returned) so a reader that shows
        // up late still collects the byte.
        const int fd = ::open(ready_file.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd < 0) {
            throw support::net::NetError(std::string("open ready file ") + ready_file +
                                         ": " + std::strerror(errno));
        }
        if (::write(fd, kReady, kReadyLen) != static_cast<ssize_t>(kReadyLen)) {
            const int saved = errno;
            ::close(fd);
            throw support::net::NetError(std::string("write ready file ") + ready_file +
                                         ": " + std::strerror(saved));
        }
        kept = fd;
    }
    if (ready_fd >= 0) {
        if (::write(ready_fd, kReady, kReadyLen) != static_cast<ssize_t>(kReadyLen)) {
            const int saved = errno;
            ::close(ready_fd);
            throw support::net::NetError(std::string("write ready fd: ") +
                                         std::strerror(saved));
        }
        ::close(ready_fd);
    }
    return kept;
}

}  // namespace ld::serve
