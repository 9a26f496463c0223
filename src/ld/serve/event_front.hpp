// The client-facing half of the serve layer, rebuilt on the epoll
// EventLoop: listeners, nonblocking connections, newline framing, write
// buffering, write-stall policing, and drain choreography — everything
// transport, nothing protocol.  `Server` (local evaluation) and
// `ShardRouter` (request forwarding) both sit behind one EventFront and
// differ only in the line handler they install.
//
// Threading: ONE loop thread owns every socket.  Reads, line framing,
// accepts, and flushes happen there; the only cross-thread operations
// are Conn::send (append to the connection's out-buffer, then hop to
// the loop to flush) and the drain-sequence calls (stop_accepting,
// settle_inputs, flush_all, close_all, shutdown), which post work and
// wait.  This replaces the PR-4 thread-per-connection model: a held
// connection now costs one fd and ~one buffered line, not a thread, so
// thousands of mostly-idle clients are cheap.
//
// Write-stall policy (unchanged semantics from the reader-thread
// model): a peer whose out-buffer accepts nothing for `write_timeout`
// has stopped reading and is dropped, so it can never head-of-line
// block a drain or grow the buffer without bound.
//
// Hangup taxonomy: a read of 0 / EPOLLRDHUP is a *half-close* — the
// peer is done sending but may still be reading, so in-flight responses
// keep flushing and the connection closes only once the last one is
// out.  EPOLLHUP/EPOLLERR is a *full* hangup (close or reset): pending
// input is salvaged, pending output is undeliverable, drop immediately.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "support/event_loop.hpp"
#include "support/net.hpp"

namespace ld::serve {

class EventFront;

/// One client connection, owned by the front's event loop.  Handlers
/// and worker threads hold it shared: the socket closes with the
/// last reference's front-side teardown, and sends to a dropped peer
/// degrade to no-ops instead of racing a close.
class Conn : public std::enable_shared_from_this<Conn> {
public:
    /// Buffered line send (newline appended).  Thread-safe; never
    /// blocks the caller — bytes land in the out-buffer and the loop
    /// thread flushes them as the socket drains.
    void send(const std::string& line) noexcept;

    bool dead() const noexcept { return dead_.load(std::memory_order_relaxed); }

    /// In-flight accounting for admitted requests: a half-closed
    /// connection is torn down only after its last response flushed.
    void add_inflight() noexcept {
        inflight_.fetch_add(1, std::memory_order_relaxed);
    }
    void finish_inflight() noexcept;

private:
    friend class EventFront;
    Conn(std::shared_ptr<support::net::EventLoop> loop, EventFront* front,
         support::net::Socket socket);

    void flush();        ///< loop thread: drain out-buffer into the socket
    void maybe_close();  ///< loop thread: close once read-closed + quiet

    std::shared_ptr<support::net::EventLoop> loop_;
    EventFront* front_;

    // Loop-thread-only state.
    support::net::Socket socket_;
    std::string in_buffer_;   ///< at most one partial line between wakeups
    bool read_closed_ = false;
    bool want_write_ = false;
    std::chrono::steady_clock::time_point stall_since_{};

    std::mutex out_mutex_;
    std::string out_buffer_;      ///< guarded by out_mutex_
    std::size_t out_offset_ = 0;  ///< flushed prefix (guarded by out_mutex_)

    std::atomic<bool> flush_queued_{false};
    std::atomic<bool> dead_{false};
    std::atomic<int> inflight_{0};
    /// read_closed_ for worker threads.  It and inflight_ are seq_cst, so
    /// of a worker finishing the last request and the loop seeing EOF, at
    /// least one sees the other's write and runs maybe_close.
    std::atomic<bool> peer_done_{false};
};

struct FrontConfig {
    /// Unix-domain socket path ("" = no Unix listener).
    std::string unix_socket;
    /// TCP loopback port; 0 = ephemeral.  nullopt = no TCP listener.
    std::optional<std::uint16_t> tcp_port;
    /// Drop a peer whose writes make no progress this long (0 = never).
    std::chrono::milliseconds write_timeout{5'000};
    /// Loop tick period: write-stall sweeps + listener re-arm cadence.
    std::chrono::milliseconds tick{200};
    /// A readable fd (e.g. support::SignalDrain::wake_fd()) watched by
    /// the loop; readiness fires the on_drain_signal callback once.
    int signal_wake_fd = -1;
    /// Server-first line sent on accept ("" = none).
    std::string handshake;
    /// Live-connection gauge to mirror (ServeStatus::connections).
    std::atomic<std::uint64_t>* connections_gauge = nullptr;
};

class EventFront {
public:
    using LineHandler =
        std::function<void(const std::shared_ptr<Conn>&, const std::string&)>;

    /// `on_line` runs on the loop thread for every complete request
    /// line — it must either answer inline (cheap methods) or enqueue
    /// and return (evals).  `on_drain_signal` fires once when
    /// config.signal_wake_fd becomes readable, and once when the loop
    /// fails (see loop_failed).
    EventFront(FrontConfig config, LineHandler on_line,
               std::function<void()> on_drain_signal = {});

    /// Stops the loop and closes everything still open.
    ~EventFront();

    EventFront(const EventFront&) = delete;
    EventFront& operator=(const EventFront&) = delete;

    /// Bind listeners and launch the loop thread.  On return the
    /// listeners are accepting (this is what --ready-file reports).
    void start();

    std::uint16_t tcp_port() const noexcept { return tcp_port_; }
    std::size_t connection_count() const noexcept {
        return conn_count_.load(std::memory_order_relaxed);
    }
    /// Descriptors registered with the loop (listeners + connections +
    /// wake/signal fds) — exported as the `loop.fds` gauge.
    std::size_t loop_fd_count() const noexcept { return loop_->fd_count(); }

    /// Whether the loop thread ended on an exception (an epoll failure or
    /// a throwing line handler).  The drain calls below then run inline.
    bool loop_failed() const noexcept {
        return loop_failed_.load(std::memory_order_acquire);
    }

    // Drain sequence (called in this order by Server/ShardRouter):

    /// Close the listeners; connects from here on are refused.
    void stop_accepting();

    /// Double barrier: returns only after the loop has completed one
    /// full poll-dispatch cycle and the tasks queued behind it — i.e.
    /// every request line that was readable when the drain began has
    /// been handed to on_line.  Callers loop {settle; re-check queues}.
    void settle_inputs();

    /// Wait (bounded) for every connection's out-buffer to flush.
    bool flush_all(std::chrono::milliseconds timeout);

    /// Tear down every connection (clients see EOF).
    void close_all();

    /// Stop the loop and join its thread.  Idempotent.
    void shutdown();

private:
    friend class Conn;

    void run_loop();
    void handle_accept(support::net::Listener& listener);
    void on_conn_event(const std::shared_ptr<Conn>& conn, std::uint32_t events);
    void read_pass(const std::shared_ptr<Conn>& conn);
    void close_conn(const std::shared_ptr<Conn>& conn);
    void on_tick();
    void barrier();  ///< post a no-op and wait for it
    /// Run `fn` on the loop thread and wait; runs inline when the loop
    /// is not running or has failed (or the caller *is* the loop thread).
    void post_and_wait(const std::function<void()>& fn);

    FrontConfig config_;
    LineHandler on_line_;
    std::function<void()> on_drain_signal_;

    std::shared_ptr<support::net::EventLoop> loop_;
    std::optional<support::net::Listener> unix_listener_;
    std::optional<support::net::Listener> tcp_listener_;
    std::uint16_t tcp_port_ = 0;
    std::thread loop_thread_;

    std::unordered_map<int, std::shared_ptr<Conn>> conns_;  ///< loop thread only
    std::atomic<std::size_t> conn_count_{0};
    std::atomic<bool> accepting_{true};
    /// Held while post_and_wait posts, and while a failed loop runs its
    /// last tasks and sets loop_failed_: no task is left with a waiter.
    std::mutex post_mutex_;
    std::atomic<bool> loop_failed_{false};
    bool listeners_paused_ = false;  ///< fd exhaustion backoff (loop thread)
    bool started_ = false;
    bool shut_down_ = false;
};

/// Signal "listeners are accepting" to process supervisors: write
/// "ready\n" to `ready_fd` (then close it) and/or to `ready_file`.
/// The file fd is opened O_RDWR (so a FIFO never blocks the server)
/// and returned still open — keeping it open lets a late FIFO reader
/// still collect the byte; the caller closes it at drain.  Returns -1
/// when no ready_file was given.  Throws NetError when a requested
/// signal cannot be delivered.
int signal_ready(const std::string& ready_file, int ready_fd);

}  // namespace ld::serve
