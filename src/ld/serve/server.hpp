// The `liquidd serve` long-running evaluation server.
//
// Threading model (down from ~one thread per connection to two):
//
//   event-loop thread  owned by the EventFront: accepts clients, frames
//                      request lines, flushes responses.  Cheap methods
//                      (instance.info, metrics, health, shutdown)
//                      execute inline on this thread; `eval` goes
//                      through admission into the bounded queue — or is
//                      rejected with `overloaded` when the queue is
//                      full, which is the whole backpressure story: the
//                      server never buffers more than queue_capacity
//                      evals.  `instance.load` also hops to the
//                      dispatcher (bypassing the admission bound — it
//                      is control plane, never `overloaded`) so a large
//                      instance realization cannot stall the loop.
//                      Response writes are buffered per connection and
//                      policed by write_timeout: a peer that stops
//                      reading is dropped, never allowed to wedge the
//                      dispatcher or a drain.
//   dispatcher thread  pops evals, coalesces up to batch_max requests
//                      that target the same cached instance into one
//                      micro-batch (identical requests are computed once
//                      and fanned back to every waiter), and runs them
//                      on the shared ReplicationEngine/ThreadPool.
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
    /// Admission bound: evals queued beyond this are rejected with
    /// `overloaded`.  0 rejects every eval (useful in tests).
    std::size_t queue_capacity = 128;
    /// Micro-batch bound: evals per dispatcher pass sharing one warm
    /// instance.
    std::size_t batch_max = 16;
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
    /// peer is dropped, so it can never head-of-line-block the
    /// dispatcher or hang a drain (0 = buffer indefinitely).
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

    /// Bind listeners and spawn the event-loop/dispatcher threads.
    /// Throws support::net::NetError when a bind fails.  On return the
    /// listeners are accepting.
    void start();

    /// Block until a drain is requested, then tear down: finish admitted
    /// evals, close connections, flush metrics.  Returns the process
    /// exit code (0).
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
    struct QueuedEval {
        Request request;
        std::shared_ptr<Conn> conn;
        std::string batch_key;  ///< instance fingerprint ("" = never batched)
        std::string dedup_key;  ///< full params identity
    };

    void handle_connection_line(const std::shared_ptr<Conn>& conn,
                                const std::string& line);
    void dispatcher_loop();
    void execute_batch(std::vector<QueuedEval>& batch);
    Request parse_with_default_deadline(const std::string& line);
    bool try_admit_locked() const;  ///< queue_mutex_ held
    void set_queue_depth_locked();  ///< queue_mutex_ held
    void refresh_loop_gauges();
    void do_drain();

    ServerConfig config_;
    InstanceCache cache_;
    ServeStatus status_;
    Router router_;

    std::unique_ptr<EventFront> front_;
    std::uint16_t tcp_port_ = 0;

    std::thread dispatcher_;

    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;   ///< dispatcher wakeups
    std::condition_variable idle_cv_;    ///< drain waits for empty + idle
    std::deque<QueuedEval> queue_;
    bool dispatcher_busy_ = false;
    bool stop_dispatcher_ = false;

    std::mutex drain_mutex_;
    std::condition_variable drain_cv_;
    bool drain_requested_ = false;
    bool started_ = false;
    bool drained_ = false;
};

}  // namespace ld::serve
