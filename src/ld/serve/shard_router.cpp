#include "ld/serve/shard_router.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "ld/serve/instance_cache.hpp"
#include "ld/serve/params.hpp"
#include "support/metrics.hpp"
#include "support/signal_drain.hpp"

namespace ld::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t hash = kFnvOffset;
    for (const unsigned char byte : text) {
        hash ^= byte;
        hash *= kFnvPrime;
    }
    return hash;
}

bool all_digits(const std::string& text) {
    if (text.empty()) return false;
    return std::all_of(text.begin(), text.end(),
                       [](unsigned char c) { return std::isdigit(c) != 0; });
}

std::uint16_t parse_port(const std::string& text, const std::string& spec) {
    if (!all_digits(text)) {
        throw support::net::NetError("route: bad backend port in '" + spec + "'");
    }
    const unsigned long port = std::stoul(text);
    if (port == 0 || port > 65'535) {
        throw support::net::NetError("route: backend port out of range in '" + spec + "'");
    }
    return static_cast<std::uint16_t>(port);
}

}  // namespace

BackendSpec parse_backend_spec(const std::string& spec) {
    BackendSpec backend;
    if (spec.rfind("unix:", 0) == 0) {
        backend.unix_socket = spec.substr(5);
        if (backend.unix_socket.empty()) {
            throw support::net::NetError("route: empty unix path in '" + spec + "'");
        }
    } else if (spec.rfind("tcp:", 0) == 0) {
        backend.tcp_port = parse_port(spec.substr(4), spec);
    } else if (all_digits(spec)) {
        backend.tcp_port = parse_port(spec, spec);
    } else if (!spec.empty()) {
        backend.unix_socket = spec;  // bare path
    } else {
        throw support::net::NetError("route: empty backend spec");
    }
    backend.display = backend.unix_socket.empty()
                          ? "tcp:" + std::to_string(backend.tcp_port)
                          : "unix:" + backend.unix_socket;
    return backend;
}

std::size_t ShardRouter::pick_backend(const std::string& key,
                                      const std::vector<bool>& routable) {
    const std::size_t n = routable.size();
    if (n == 0) return 0;
    const std::size_t home = static_cast<std::size_t>(fnv1a(key) % n);
    for (std::size_t offset = 0; offset < n; ++offset) {
        const std::size_t index = (home + offset) % n;
        if (routable[index]) return index;
    }
    return n;
}

std::string ShardRouter::routing_key_of(const Request& request) {
    if (request.params.is_object()) {
        const json::Value* instance = request.params.find("instance");
        if (instance && instance->is_string()) return instance->as_string();
        if (request.method == "instance.load") {
            // Compute the fingerprint the backend will compute — the
            // cache key is deterministic, so the router needs no model
            // state to know where the instance lives.
            // A malformed load (a missing key, or a count out of range)
            // falls through to the generic key: any stable key will do,
            // the backend reports the real bad_request.
            try {
                const json::Value& params = request.params;
                const std::string graph = params.at("graph").as_string();
                const std::string competencies = params.at("competencies").as_string();
                const std::optional<std::uint64_t> n =
                    json::count_of(params.at("n").as_number());
                const double alpha = params.at("alpha").as_number();
                std::optional<std::uint64_t> seed = 1;
                if (const json::Value* s = params.find("seed")) {
                    seed = json::count_of(s->as_number());
                }
                if (n && seed) {
                    return InstanceCache::fingerprint(graph, competencies, *n, alpha,
                                                      *seed);
                }
            } catch (const std::exception&) {
            }
        }
    }
    return json::dump(request.params);
}

ShardRouter::ShardRouter(ShardRouterConfig config) : config_(std::move(config)) {
    for (const BackendSpec& spec : config_.backends) {
        auto backend = std::make_unique<Backend>();
        backend->spec = spec;
        backends_.push_back(std::move(backend));
    }
}

ShardRouter::~ShardRouter() {
    if (started_ && !drained_) {
        request_drain();
        wait();
    }
}

void ShardRouter::start() {
    if (started_) return;
    if (backends_.empty()) {
        throw support::net::NetError("route: no backends configured");
    }
    if (config_.unix_socket.empty() && !config_.tcp_port.has_value()) {
        throw support::net::NetError("serve: no listener configured");
    }

    FrontConfig front_config;
    front_config.unix_socket = config_.unix_socket;
    front_config.tcp_port = config_.tcp_port;
    front_config.write_timeout = config_.write_timeout;
    front_config.handshake = render_handshake();
    if (config_.drain_on_signal) {
        front_config.signal_wake_fd = support::SignalDrain::wake_fd();
    }
    front_ = std::make_unique<EventFront>(
        std::move(front_config),
        [this](const std::shared_ptr<Conn>& conn, const std::string& line) {
            on_client_line(conn, line);
        },
        [this] {
            if (front_->loop_failed() || support::SignalDrain::requested()) {
                request_drain();
            }
        });

    // Best-effort initial connects before we accept clients, so the
    // first request does not race the first health pass.
    for (std::size_t i = 0; i < backends_.size(); ++i) try_connect(i);
    refresh_backend_gauge();

    front_->start();
    tcp_port_ = front_->tcp_port();
    started_ = true;
    maintenance_ = std::thread([this] { maintenance_loop(); });
}

void ShardRouter::request_drain() {
    {
        std::lock_guard<std::mutex> lock(drain_mutex_);
        if (drain_requested_) return;
        drain_requested_ = true;
    }
    draining_.store(true, std::memory_order_relaxed);
    drain_cv_.notify_all();
}

int ShardRouter::wait() {
    {
        std::unique_lock<std::mutex> lock(drain_mutex_);
        drain_cv_.wait(lock, [this] { return drain_requested_; });
        if (!drained_) {
            drained_ = true;
            lock.unlock();
            do_drain();
        }
    }
    // A failed event loop drains too, but is no clean exit.
    return front_ && front_->loop_failed() ? 1 : 0;
}

void ShardRouter::do_drain() {
    auto& registry = support::MetricsRegistry::global();

    // 1. Stop accepting and settle: every client line that was readable
    //    when the drain began has now been forwarded or rejected.
    front_->stop_accepting();
    front_->settle_inputs();

    // 2. Bounded wait for the backends to answer everything in flight.
    //    Failover stays live: a backend dying here still replays onto
    //    the survivors.
    const auto bound = std::max<std::chrono::milliseconds>(
        config_.write_timeout * 2, std::chrono::milliseconds(10'000));
    const auto deadline = std::chrono::steady_clock::now() + bound;
    while (total_pending() > 0 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // 3. Teardown: no more failover hops — orphans now fail with
    //    shutting_down.  Unblock every reader and join it; each reader
    //    fails its backend's leftovers on the way out.
    replay_enabled_.store(false, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(maintenance_mutex_);
        stop_maintenance_ = true;
    }
    maintenance_cv_.notify_all();
    if (maintenance_.joinable()) maintenance_.join();
    for (const auto& backend : backends_) {
        std::lock_guard<std::mutex> lock(backend->mutex);
        backend->connected.store(false, std::memory_order_relaxed);
        if (backend->socket.valid()) backend->socket.shutdown_both();
    }
    for (const auto& backend : backends_) {
        if (backend->reader.joinable()) backend->reader.join();
    }

    // 4. Deliver buffered client responses, close clients, stop the loop.
    front_->flush_all(config_.write_timeout.count() > 0
                          ? config_.write_timeout + std::chrono::milliseconds(1'000)
                          : std::chrono::milliseconds(10'000));
    front_->close_all();
    front_->shutdown();

    // 5. Flush metrics.
    registry.counter("route.drains").add(1);
    if (!config_.metrics_out.empty()) {
        std::ofstream out(config_.metrics_out);
        if (out) support::write_metrics_json(out, registry.snapshot());
    }
}

void ShardRouter::on_client_line(const std::shared_ptr<Conn>& conn,
                                 const std::string& line) {
    auto& registry = support::MetricsRegistry::global();
    Request request;
    try {
        request = parse_request(line, std::chrono::steady_clock::now());
    } catch (const ProtocolError& e) {
        registry.counter("serve.errors").add(1);
        conn->send(render_error(id_of_line(line), e.code(), e.what()));
        return;
    }

    // Router-local control plane: health and metrics describe the
    // router itself; shutdown drains it.  Everything else is forwarded.
    if (request.method == "health") {
        conn->send(render_router_health(request.id));
        return;
    }
    if (request.method == "metrics") {
        registry.gauge("loop.fds").set(
            static_cast<std::int64_t>(front_->loop_fd_count()));
        registry.gauge("loop.conns").set(
            static_cast<std::int64_t>(front_->connection_count()));
        std::ostringstream os;
        support::write_metrics_json(os, registry.snapshot());
        json::Object result;
        result.emplace("report", json::parse(os.str()));
        conn->send(render_result(request.id, std::move(result)));
        return;
    }
    if (request.method == "shutdown") {
        json::Object result;
        result.emplace("draining", json::Value(true));
        conn->send(render_result(request.id, std::move(result)));
        request_drain();
        return;
    }

    if (draining()) {
        conn->send(render_error(request.id, ErrorCode::ShuttingDown,
                                "router is draining"));
        return;
    }
    forward_request(conn, std::move(request));
}

void ShardRouter::forward_request(const std::shared_ptr<Conn>& conn,
                                  Request request) {
    auto& registry = support::MetricsRegistry::global();
    const std::string key = routing_key_of(request);

    if (request.method == "instance.load" || request.method == "instance.patch") {
        // Broadcast: the home backend answers the client, every other
        // routable backend warms the same instance so a later failover
        // replay can never miss the cache.  instance.patch broadcasts
        // for the same reason: every routable backend advances its live
        // session, so a failover lands on a backend whose delegation
        // state already matches (patch ops are absolute assignments —
        // idempotent under the at-least-once delivery this creates; only
        // the epoch can run ahead, which expect_epoch detects).
        const std::vector<bool> routable = routable_snapshot();
        const std::size_t home = pick_backend(key, routable);
        if (home < routable.size()) {
            for (std::size_t i = 0; i < backends_.size(); ++i) {
                if (i == home || !routable[i]) continue;
                Pending copy;
                copy.client = nullptr;  // absorbed
                copy.method = request.method;
                copy.params = request.params;
                copy.routing_key = key;
                if (try_send(i, std::move(copy))) {
                    registry.counter("route.broadcast").add(1);
                }
            }
        }
    }

    Pending pending;
    pending.client = conn;
    pending.client_id = request.id;
    pending.method = request.method;
    pending.params = request.params;
    pending.routing_key = key;
    pending.deadline = request.deadline;
    conn->add_inflight();
    dispatch_forward(std::move(pending));
}

void ShardRouter::dispatch_forward(Pending pending) {
    auto& registry = support::MetricsRegistry::global();
    const int max_attempts = static_cast<int>(backends_.size());
    while (pending.attempts < max_attempts) {
        const std::size_t index =
            pick_backend(pending.routing_key, routable_snapshot());
        if (index >= backends_.size()) break;  // nothing routable at all
        if (pending.attempts > 0) registry.counter("route.retries").add(1);
        pending.attempts += 1;
        // try_send consumes pending on success; keep a rebuildable copy.
        Pending attempt = pending;
        if (try_send(index, std::move(attempt))) {
            registry.counter("route.forwarded").add(1);
            return;
        }
        // try_send marked that backend down; the next pick scans past it.
    }
    registry.counter("route.no_backend").add(1);
    fail_pending(pending, ErrorCode::Overloaded,
                 "no healthy backend available; retry later");
}

bool ShardRouter::try_send(std::size_t index, Pending pending) {
    Backend& backend = *backends_[index];
    const std::uint64_t internal =
        next_internal_id_.fetch_add(1, std::memory_order_relaxed);

    json::Object forward;
    forward.emplace("id", json::Value(static_cast<double>(internal)));
    forward.emplace("method", json::Value(pending.method));
    if (!pending.params.is_null()) forward.emplace("params", pending.params);
    if (pending.deadline.has_value()) {
        const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
            *pending.deadline - std::chrono::steady_clock::now());
        // An already-expired deadline still forwards (as 1ms): the
        // backend owns deadline semantics and reports the expiry.
        forward.emplace("deadline_ms",
                        json::Value(static_cast<double>(
                            std::max<std::int64_t>(remaining.count(), 1))));
    }
    const std::string line = json::dump(json::Value(std::move(forward)));

    std::lock_guard<std::mutex> lock(backend.mutex);
    if (!backend.connected.load(std::memory_order_relaxed)) return false;
    try {
        const int timeout_ms = config_.write_timeout.count() > 0
                                   ? static_cast<int>(config_.write_timeout.count())
                                   : -1;
        support::net::write_line(backend.socket, line, timeout_ms);
    } catch (const support::net::NetError&) {
        // Send failed: mark the backend down and unblock its reader,
        // which replays the rest of its pending onto the survivors.
        backend.connected.store(false, std::memory_order_relaxed);
        backend.socket.shutdown_both();
        return false;
    }
    backend.pending.emplace(internal, std::move(pending));
    return true;
}

void ShardRouter::reader_loop(std::size_t index) {
    Backend& backend = *backends_[index];
    bool saw_handshake = false;
    try {
        support::net::LineReader reader(backend.socket);
        std::string line;
        while (reader.read_line(line)) {
            handle_backend_line(index, line, saw_handshake);
            if (!backend.connected.load(std::memory_order_relaxed)) break;
        }
    } catch (const std::exception&) {
        // Connection dropped mid-read; treated as EOF below.
    }
    on_backend_down(index);
}

void ShardRouter::handle_backend_line(std::size_t index, const std::string& line,
                                      bool& saw_handshake) {
    Backend& backend = *backends_[index];
    json::Value value;
    try {
        value = json::parse(line);
    } catch (const std::exception&) {
        return;  // not ours to diagnose; ignore the line
    }
    if (!value.is_object()) return;

    if (!saw_handshake && value.contains("schema")) {
        saw_handshake = true;
        const json::Value& schema = value.at("schema");
        if (!schema.is_string() || schema.as_string() != kSchema) {
            // Whatever this is, it does not speak liquidd.rpc.v1.
            backend.connected.store(false, std::memory_order_relaxed);
        }
        return;
    }

    const json::Value* id = value.find("id");
    if (!id) return;

    if (id->is_string() && id->as_string().rfind("hc", 0) == 0) {
        // Health-probe ack.  "draining" routes new work away while this
        // backend's in-flight responses keep streaming back.
        bool remote_draining = false;
        if (const json::Value* result = value.find("result")) {
            if (result->is_object()) {
                if (const json::Value* status = result->find("status")) {
                    remote_draining =
                        status->is_string() && status->as_string() == "draining";
                }
            }
        }
        {
            std::lock_guard<std::mutex> lock(backend.mutex);
            backend.awaiting_probe = false;
        }
        backend.remote_draining.store(remote_draining, std::memory_order_relaxed);
        refresh_backend_gauge();
        return;
    }

    if (!id->is_number()) return;
    const std::optional<std::uint64_t> internal = json::count_of(id->as_number());
    if (!internal) return;  // not an id this router issued
    Pending pending;
    {
        std::lock_guard<std::mutex> lock(backend.mutex);
        const auto found = backend.pending.find(*internal);
        if (found == backend.pending.end()) return;  // duplicate/stale
        pending = std::move(found->second);
        backend.pending.erase(found);
    }
    if (!pending.client) return;  // absorbed broadcast copy

    // Rewrite the backend's internal id back to the client's own.
    json::Object response = value.as_object();
    response.insert_or_assign("id", pending.client_id);
    pending.client->send(json::dump(json::Value(std::move(response))));
    pending.client->finish_inflight();
}

void ShardRouter::on_backend_down(std::size_t index) {
    Backend& backend = *backends_[index];
    std::unordered_map<std::uint64_t, Pending> orphans;
    {
        std::lock_guard<std::mutex> lock(backend.mutex);
        backend.connected.store(false, std::memory_order_relaxed);
        backend.remote_draining.store(false, std::memory_order_relaxed);
        backend.awaiting_probe = false;
        backend.socket.close();
        orphans.swap(backend.pending);
    }
    refresh_backend_gauge();

    auto& registry = support::MetricsRegistry::global();
    const bool replay = replay_enabled_.load(std::memory_order_relaxed);
    for (auto& entry : orphans) {
        Pending& pending = entry.second;
        if (!pending.client) continue;  // absorbed broadcast copy: drop
        if (replay) {
            registry.counter("route.failover_replayed").add(1);
            dispatch_forward(std::move(pending));
        } else {
            fail_pending(pending, ErrorCode::ShuttingDown, "router is draining");
        }
    }
}

void ShardRouter::fail_pending(Pending& pending, ErrorCode code,
                               const std::string& message) {
    if (!pending.client) return;
    pending.client->send(render_error(pending.client_id, code, message));
    pending.client->finish_inflight();
}

bool ShardRouter::try_connect(std::size_t index) {
    Backend& backend = *backends_[index];
    if (backend.connected.load(std::memory_order_relaxed)) return true;
    // The previous reader (if any) has observed the disconnect and is
    // exiting; reap it before handing the Backend a fresh socket.
    if (backend.reader.joinable()) backend.reader.join();

    support::net::Socket socket;
    try {
        socket = backend.spec.unix_socket.empty()
                     ? support::net::connect_tcp_loopback(backend.spec.tcp_port)
                     : support::net::connect_unix(backend.spec.unix_socket);
    } catch (const support::net::NetError&) {
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(backend.mutex);
        backend.socket = std::move(socket);
        // Optimistically routable on connect — waiting for the first
        // health ack would open a no-backend window at startup.
        backend.connected.store(true, std::memory_order_relaxed);
        backend.remote_draining.store(false, std::memory_order_relaxed);
        backend.awaiting_probe = false;
    }
    backend.reader = std::thread([this, index] { reader_loop(index); });
    support::MetricsRegistry::global().counter("route.connects").add(1);
    refresh_backend_gauge();
    return true;
}

void ShardRouter::maintenance_loop() {
    auto& registry = support::MetricsRegistry::global();
    while (true) {
        {
            std::unique_lock<std::mutex> lock(maintenance_mutex_);
            maintenance_cv_.wait_for(lock, config_.health_interval,
                                     [this] { return stop_maintenance_; });
            if (stop_maintenance_) return;
        }
        const auto now = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < backends_.size(); ++i) {
            Backend& backend = *backends_[i];
            if (!backend.connected.load(std::memory_order_relaxed)) {
                try_connect(i);
                continue;
            }
            std::lock_guard<std::mutex> lock(backend.mutex);
            if (!backend.connected.load(std::memory_order_relaxed)) continue;
            if (backend.awaiting_probe && now >= backend.probe_deadline) {
                // Probe went unanswered: the backend is wedged or gone.
                // Unblock the reader; it replays this backend's pending.
                backend.connected.store(false, std::memory_order_relaxed);
                backend.socket.shutdown_both();
                continue;
            }
            if (backend.awaiting_probe) continue;
            const std::uint64_t probe_id =
                next_probe_id_.fetch_add(1, std::memory_order_relaxed);
            const std::string probe = "{\"id\": \"hc" + std::to_string(probe_id) +
                                      "\", \"method\": \"health\"}";
            try {
                support::net::write_line(backend.socket, probe, 1'000);
                backend.awaiting_probe = true;
                backend.probe_deadline = now + 3 * config_.health_interval;
                registry.counter("route.health_checks").add(1);
            } catch (const support::net::NetError&) {
                backend.connected.store(false, std::memory_order_relaxed);
                backend.socket.shutdown_both();
            }
        }
        refresh_backend_gauge();
    }
}

std::vector<bool> ShardRouter::routable_snapshot() const {
    std::vector<bool> routable(backends_.size());
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        routable[i] = backends_[i]->connected.load(std::memory_order_relaxed) &&
                      !backends_[i]->remote_draining.load(std::memory_order_relaxed);
    }
    return routable;
}

void ShardRouter::refresh_backend_gauge() {
    const std::vector<bool> routable = routable_snapshot();
    const auto healthy =
        static_cast<std::int64_t>(std::count(routable.begin(), routable.end(), true));
    support::MetricsRegistry::global().gauge("route.healthy_backends").set(healthy);
}

std::size_t ShardRouter::total_pending() {
    std::size_t total = 0;
    for (const auto& backend : backends_) {
        std::lock_guard<std::mutex> lock(backend->mutex);
        total += backend->pending.size();
    }
    return total;
}

std::string ShardRouter::render_router_health(const json::Value& id) {
    json::Object result;
    result.emplace("status",
                   json::Value(std::string(draining() ? "draining" : "ok")));
    result.emplace("router", json::Value(true));
    result.emplace("connections",
                   json::Value(static_cast<double>(front_->connection_count())));
    json::Array reports;
    for (const auto& backend : backends_) {
        json::Object report;
        report.emplace("backend", json::Value(backend->spec.display));
        report.emplace(
            "connected",
            json::Value(backend->connected.load(std::memory_order_relaxed)));
        report.emplace(
            "draining",
            json::Value(backend->remote_draining.load(std::memory_order_relaxed)));
        std::size_t in_flight = 0;
        {
            std::lock_guard<std::mutex> lock(backend->mutex);
            in_flight = backend->pending.size();
        }
        report.emplace("pending", json::Value(static_cast<double>(in_flight)));
        reports.emplace_back(std::move(report));
    }
    result.emplace("backends", json::Value(std::move(reports)));
    return render_result(id, std::move(result));
}

}  // namespace ld::serve
