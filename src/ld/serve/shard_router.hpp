// `liquidd serve --route`: a shard-routing front that speaks
// liquidd.rpc.v1 to clients and fans requests out across N backend
// liquidd servers, keyed by instance content-fingerprint.
//
// Routing.  The InstanceCache key is deterministic — the same
// (graph, competencies, n, alpha, seed) tuple fingerprints identically
// in every process — so the router can compute it locally without
// realizing anything: `eval`/`instance.info` route by their `instance`
// fingerprint, `instance.load` by the fingerprint its params imply.
// The key is FNV-1a-hashed onto a home backend; unroutable backends
// (down, or draining per their own health reports) are skipped by
// scanning forward, so affinity is stable while everyone is up and
// degrades to the next shard, not to failure, when one is not.
//
// `instance.load` is *broadcast* to every routable backend (the home
// backend's response answers the client; the other copies are
// absorbed).  That makes failover safe: when a backend dies mid-run and
// its in-flight evals are replayed onto the next shard, the instance
// they reference is already warm there — never `not_found`.
//
// Health.  A maintenance thread probes every backend each
// health_interval with a `health` request (ids prefixed "hc" so they
// can never collide with the numeric ids used for forwarded requests).
// A missed probe deadline or a failed send marks the backend down and
// its reader replays that backend's in-flight requests elsewhere; a
// `"status": "draining"` report routes new work away while in-flight
// responses keep streaming back.
//
// Threading: the EventFront loop thread parses client lines and
// forwards them (backend writes are short, mutex-serialized,
// write_timeout-bounded); one reader thread per backend demultiplexes
// responses back to clients by rewriting ids; the maintenance thread
// reconnects and probes.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ld/serve/event_front.hpp"
#include "ld/serve/protocol.hpp"
#include "support/net.hpp"

namespace ld::serve {

/// One `--route` entry: "unix:/path", "tcp:PORT", a bare socket path, or
/// a bare port number.
struct BackendSpec {
    std::string unix_socket;      ///< "" when TCP
    std::uint16_t tcp_port = 0;   ///< 0 when Unix
    std::string display;          ///< normalized label for health/logs
};

/// Parse one backend spec; throws support::net::NetError on nonsense.
BackendSpec parse_backend_spec(const std::string& spec);

struct ShardRouterConfig {
    /// Client-facing listeners, as in ServerConfig.
    std::string unix_socket;
    std::optional<std::uint16_t> tcp_port;
    /// The backend shards, in hash-ring order (order matters: it is the
    /// affinity layout).
    std::vector<BackendSpec> backends;
    /// Health-probe cadence; a probe unanswered for 3 intervals marks
    /// the backend down.
    std::chrono::milliseconds health_interval{1'000};
    /// Bound on client response writes AND backend forward writes.
    std::chrono::milliseconds write_timeout{5'000};
    /// Drain on SIGINT/SIGTERM via support::SignalDrain.
    bool drain_on_signal = false;
    /// Flush a liquidd.metrics.v1 report here on drain ("" = none).
    std::string metrics_out;
};

class ShardRouter {
public:
    explicit ShardRouter(ShardRouterConfig config);
    ~ShardRouter();

    ShardRouter(const ShardRouter&) = delete;
    ShardRouter& operator=(const ShardRouter&) = delete;

    /// Connect backends (best effort — the maintenance thread retries),
    /// bind listeners, start forwarding.
    void start();

    /// Block until a drain is requested, then tear down: wait (bounded)
    /// for in-flight responses, close backends and clients, flush
    /// metrics.  Returns the process exit code: 0, or 1 after an event-loop failure.
    int wait();

    /// Trigger a graceful drain (thread-safe; idempotent).
    void request_drain();

    bool draining() const noexcept {
        return draining_.load(std::memory_order_relaxed);
    }

    std::uint16_t tcp_port() const noexcept { return tcp_port_; }

    /// Shard selection: FNV-1a(key) picks the home backend; scan forward
    /// to the first routable one.  Returns routable.size() when none is.
    /// Static and pure so affinity/failover are unit-testable.
    static std::size_t pick_backend(const std::string& key,
                                    const std::vector<bool>& routable);

    /// The routing key for a request: its instance fingerprint when it
    /// names or implies one, else the canonical params rendering.
    static std::string routing_key_of(const Request& request);

private:
    /// One forwarded request awaiting its backend response.
    struct Pending {
        std::shared_ptr<Conn> client;  ///< null: absorbed broadcast copy
        json::Value client_id;
        std::string method;
        json::Value params;
        std::string routing_key;
        std::optional<std::chrono::steady_clock::time_point> deadline;
        int attempts = 0;
    };

    struct Backend {
        BackendSpec spec;
        std::mutex mutex;  ///< guards socket writes, pending, probe state
        support::net::Socket socket;
        std::thread reader;
        std::atomic<bool> connected{false};
        std::atomic<bool> remote_draining{false};
        std::unordered_map<std::uint64_t, Pending> pending;
        bool awaiting_probe = false;
        std::chrono::steady_clock::time_point probe_deadline{};
    };

    void on_client_line(const std::shared_ptr<Conn>& conn, const std::string& line);
    void forward_request(const std::shared_ptr<Conn>& conn, Request request);
    /// Route + send with retry across routable backends.  On success the
    /// request is pending on some backend; on failure the client (when
    /// present) has been answered with an error.  Owns finish_inflight
    /// on every failure path.
    void dispatch_forward(Pending pending);
    bool try_send(std::size_t index, Pending pending);
    void reader_loop(std::size_t index);
    void handle_backend_line(std::size_t index, const std::string& line,
                             bool& saw_handshake);
    void on_backend_down(std::size_t index);
    void fail_pending(Pending& pending, ErrorCode code, const std::string& message);
    bool try_connect(std::size_t index);
    void maintenance_loop();
    std::vector<bool> routable_snapshot() const;
    void refresh_backend_gauge();
    std::size_t total_pending();
    std::string render_router_health(const json::Value& id);
    void do_drain();

    ShardRouterConfig config_;
    std::vector<std::unique_ptr<Backend>> backends_;
    std::unique_ptr<EventFront> front_;
    std::uint16_t tcp_port_ = 0;

    std::atomic<std::uint64_t> next_internal_id_{1};
    std::atomic<std::uint64_t> next_probe_id_{1};
    /// Cleared during drain teardown: orphaned requests then fail with
    /// `shutting_down` instead of hopping to another backend.
    std::atomic<bool> replay_enabled_{true};

    std::thread maintenance_;
    std::mutex maintenance_mutex_;
    std::condition_variable maintenance_cv_;
    bool stop_maintenance_ = false;

    std::atomic<bool> draining_{false};
    std::mutex drain_mutex_;
    std::condition_variable drain_cv_;
    bool drain_requested_ = false;
    bool started_ = false;
    bool drained_ = false;
};

}  // namespace ld::serve
