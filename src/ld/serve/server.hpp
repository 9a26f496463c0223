// The `liquidd serve` long-running evaluation server.
//
// Threading model: one event-loop thread plus W workers, W being the
// shared ThreadPool's worker count (one per hardware thread):
//
//   event-loop thread  owned by the EventFront: accepts clients, frames
//                      request lines, flushes responses.  health,
//                      metrics and shutdown execute inline here, and so
//                      do instance.state and instance.info when their
//                      connection has nothing queued or running.  Every
//                      other eval or instance.* request joins its
//                      connection's lane; evals and patches pass
//                      admission first — `overloaded` once
//                      queue_capacity requests wait, which is the whole
//                      backpressure story.  Response writes are buffered
//                      per connection and policed by write_timeout: a
//                      peer that stops reading is dropped, never allowed
//                      to wedge a worker or a drain.
//   W workers          serve one FIFO lane per busy connection, one
//                      request per turn, round-robin.  One worker at a
//                      time holds a lane, so a connection's requests run
//                      and answer in the order sent while different
//                      connections run concurrently.  An idle worker
//                      parks on its own condition variable, on a LIFO
//                      stack, and a newly busy lane goes to the most
//                      recently parked worker: a lone connection keeps
//                      one warm thread.
//
// Graceful drain (SIGTERM/SIGINT via support::SignalDrain — its wake fd
// is watched by the event loop —, the `shutdown` RPC, or
// request_drain()): stop accepting, reject new evals with
// `shutting_down`, finish every admitted request, flush every response,
// flush metrics, close connections.  wait() performs the teardown and
// returns 0.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ld/serve/event_front.hpp"
#include "ld/serve/instance_cache.hpp"
#include "ld/serve/protocol.hpp"
#include "ld/serve/router.hpp"
#include "support/net.hpp"

namespace ld::serve {

struct ServerConfig {
    /// Unix-domain socket path ("" = no Unix listener).
    std::string unix_socket;
    /// TCP loopback port; 0 picks an ephemeral port (readable via
    /// Server::tcp_port after start()).  nullopt = no TCP listener.
    std::optional<std::uint16_t> tcp_port;
    /// Admission bound: once this many requests wait in the lanes, evals
    /// and patches are rejected with `overloaded`.  0 rejects every eval
    /// (useful in tests).
    std::size_t queue_capacity = 128;
    /// Default EvalOptions::threads for requests that name none (0 =
    /// auto, one per hardware thread).
    std::size_t eval_threads = 0;
    /// Per-request replication sanity cap.
    std::size_t max_replications = 1'000'000;
    /// Default ε for the certified windowed inner tally applied to eval
    /// requests that name no `tally_eps` (0 = exact).
    double tally_epsilon = election::kDefaultTallyEpsilon;
    /// Default per-request deadline applied when a request carries no
    /// deadline_ms (0 = none).
    std::chrono::milliseconds default_deadline{0};
    /// Bound on how long a response may sit unflushed because the
    /// client's socket buffer stays full (it stopped reading): such a
    /// peer is dropped, so it can never head-of-line-block a worker or
    /// hang a drain (0 = buffer indefinitely).
    std::chrono::milliseconds write_timeout{5'000};
    /// Watch support::SignalDrain's wake pipe and drain on SIGINT/SIGTERM
    /// (the caller installs the handler; see cli::run_serve).
    bool drain_on_signal = false;
    /// Flush a liquidd.metrics.v1 report here as the last drain step
    /// ("" = none).
    std::string metrics_out;
};

class Server {
public:
    explicit Server(ServerConfig config);

    /// Drains (if still running) and joins everything.
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind listeners and spawn the event-loop and worker threads.
    /// Throws support::net::NetError when a bind fails.  On return the
    /// listeners are accepting.
    void start();

    /// Block until a drain is requested, then tear down: finish admitted
    /// evals, close connections, flush metrics.  Returns the process
    /// exit code: 0, or 1 after an event-loop failure.
    int wait();

    /// Trigger a graceful drain (thread-safe; idempotent).
    void request_drain();

    bool draining() const noexcept {
        return status_.draining.load(std::memory_order_relaxed);
    }

    /// Bound TCP port (after start(); 0 when no TCP listener).
    std::uint16_t tcp_port() const noexcept { return tcp_port_; }

    /// Synchronous in-process entry sharing the full pipeline —
    /// parsing, default deadline, admission against the live queue,
    /// routing — without sockets.  Drives unit tests and bench_serve.
    std::string handle_line(const std::string& line);

    Router& router() noexcept { return router_; }
    InstanceCache& cache() noexcept { return cache_; }
    const ServerConfig& config() const noexcept { return config_; }

private:
    /// One connection's requests in arrival order.  A lane exists while
    /// it has work queued or running, and one worker at a time serves it.
    struct Lane {
        std::shared_ptr<Conn> conn;
        std::deque<Request> pending;
    };
    struct Worker {
        std::condition_variable wake;
        Lane* lane = nullptr;  ///< handed over while parked
        std::thread thread;
    };

    void handle_connection_line(const std::shared_ptr<Conn>& conn,
                                const std::string& line);
    void worker_loop(Worker& self);
    Request parse_with_default_deadline(const std::string& line);
    void set_queue_depth_locked();  ///< mutex_ held
    /// The `overloaded` response for `id`; counts the rejection.
    std::string overloaded_error(const json::Value& id);
    void refresh_loop_gauges();
    void do_drain();

    ServerConfig config_;
    InstanceCache cache_;
    ServeStatus status_;
    Router router_;

    std::unique_ptr<EventFront> front_;
    std::uint16_t tcp_port_ = 0;

    std::mutex mutex_;
    std::condition_variable idle_cv_;  ///< drain waits for no lanes
    /// Busy lanes by connection.  Node-based, so a Lane* stays valid
    /// until its lane is erased.
    std::unordered_map<const Conn*, Lane> lanes_;
    std::deque<Lane*> ready_;      ///< lanes with work that no worker holds
    std::vector<Worker*> parked_;  ///< idle workers, most recent last
    std::vector<std::unique_ptr<Worker>> workers_;
    std::size_t queued_ = 0;  ///< requests in lanes, not yet running
    bool stop_workers_ = false;

    std::mutex drain_mutex_;
    std::condition_variable drain_cv_;
    bool drain_requested_ = false;
    bool started_ = false;
    bool drained_ = false;
};

}  // namespace ld::serve
