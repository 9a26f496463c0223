#include "ld/serve/server.hpp"

#include <fstream>
#include <utility>

#include "support/metrics.hpp"
#include "support/signal_drain.hpp"
#include "support/thread_pool.hpp"

namespace ld::serve {

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      router_(RouterConfig{config_.eval_threads, config_.max_replications,
                           config_.tally_epsilon},
              cache_, &status_) {
    router_.set_shutdown_hook([this] { request_drain(); });
}

Server::~Server() {
    if (started_ && !drained_) {
        request_drain();
        wait();
    }
}

void Server::start() {
    if (started_) return;
    if (config_.unix_socket.empty() && !config_.tcp_port.has_value()) {
        throw support::net::NetError("serve: no listener configured");
    }

    FrontConfig front_config;
    front_config.unix_socket = config_.unix_socket;
    front_config.tcp_port = config_.tcp_port;
    front_config.write_timeout = config_.write_timeout;
    front_config.handshake = render_handshake();
    front_config.connections_gauge = &status_.connections;
    if (config_.drain_on_signal) {
        front_config.signal_wake_fd = support::SignalDrain::wake_fd();
    }
    front_ = std::make_unique<EventFront>(
        std::move(front_config),
        [this](const std::shared_ptr<Conn>& conn, const std::string& line) {
            handle_connection_line(conn, line);
        },
        [this] {
            if (front_->loop_failed() || support::SignalDrain::requested()) {
                request_drain();
            }
        });

    front_->start();  // throws NetError if a bind fails; nothing to undo yet
    tcp_port_ = front_->tcp_port();
    started_ = true;
    const std::size_t worker_count = support::ThreadPool::global().worker_count();
    for (std::size_t i = 0; i < worker_count; ++i) {
        workers_.push_back(std::make_unique<Worker>());
        Worker& worker = *workers_.back();
        worker.thread = std::thread([this, &worker] { worker_loop(worker); });
    }
}

void Server::request_drain() {
    {
        std::lock_guard<std::mutex> lock(drain_mutex_);
        if (drain_requested_) return;
        drain_requested_ = true;
    }
    status_.draining.store(true, std::memory_order_relaxed);
    drain_cv_.notify_all();
}

int Server::wait() {
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

void Server::do_drain() {
    // 1. Stop accepting: listeners close, further connects are refused.
    //    (front_ is null for an in-process Server that was never
    //    start()ed — handle_line still drains through wait().)
    if (front_) front_->stop_accepting();

    // 2. Finish in-flight work.  The draining flag makes every new eval
    //    and patch a `shutting_down` rejection.  Settle the event loop so
    //    each request line that was readable when the drain began has
    //    been queued or rejected, wait for the workers to empty every
    //    lane, and iterate: settling can surface a last round of
    //    already-sent requests.
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            idle_cv_.wait(lock, [this] { return lanes_.empty(); });
        }
        if (front_) front_->settle_inputs();
        std::lock_guard<std::mutex> lock(mutex_);
        if (lanes_.empty()) {
            stop_workers_ = true;
            break;
        }
    }
    for (auto& worker : workers_) {
        worker->wake.notify_one();
        if (worker->thread.joinable()) worker->thread.join();
    }

    // 3. Deliver every buffered response (bounded — stalled peers are
    //    swept by the loop tick meanwhile), then close all connections
    //    (clients see EOF) and stop the loop.
    const auto flush_bound = config_.write_timeout.count() > 0
                                 ? config_.write_timeout + std::chrono::milliseconds(1'000)
                                 : std::chrono::milliseconds(10'000);
    if (front_) {
        front_->flush_all(flush_bound);
        front_->close_all();
        front_->shutdown();
    }

    // 4. Flush metrics.
    refresh_loop_gauges();
    auto& registry = support::MetricsRegistry::global();
    registry.counter("serve.drains").add(1);
    if (!config_.metrics_out.empty()) {
        std::ofstream out(config_.metrics_out);
        if (out) support::write_metrics_json(out, registry.snapshot());
    }
}

Request Server::parse_with_default_deadline(const std::string& line) {
    Request request = parse_request(line, std::chrono::steady_clock::now());
    if (!request.deadline.has_value() && config_.default_deadline.count() > 0) {
        request.deadline = request.admitted_at + config_.default_deadline;
    }
    return request;
}

void Server::set_queue_depth_locked() {
    const auto depth = static_cast<std::int64_t>(queued_);
    status_.queue_depth.store(depth, std::memory_order_relaxed);
    support::MetricsRegistry::global().gauge("serve.queue_depth").set(depth);
}

std::string Server::overloaded_error(const json::Value& id) {
    support::MetricsRegistry::global().counter("serve.rejected_overload").add(1);
    return render_error(id, ErrorCode::Overloaded,
                        "admission queue full (capacity " +
                            std::to_string(config_.queue_capacity) + "); retry later");
}

void Server::refresh_loop_gauges() {
    if (!front_) return;
    auto& registry = support::MetricsRegistry::global();
    registry.gauge("loop.fds").set(static_cast<std::int64_t>(front_->loop_fd_count()));
    registry.gauge("loop.conns")
        .set(static_cast<std::int64_t>(front_->connection_count()));
}

void Server::handle_connection_line(const std::shared_ptr<Conn>& conn,
                                    const std::string& line) {
    auto& registry = support::MetricsRegistry::global();
    Request request;
    try {
        request = parse_with_default_deadline(line);
    } catch (const ProtocolError& e) {
        registry.counter("serve.errors").add(1);
        conn->send(render_error(id_of_line(line), e.code(), e.what()));
        return;
    }

    const std::string& method = request.method;
    const bool admitted = method == "eval" || method == "instance.patch";
    const bool is_read = method == "instance.state" || method == "instance.info";
    if (!admitted && !is_read && method != "instance.load") {
        // health, metrics and shutdown answer inline on the loop thread,
        // even when every lane is saturated.
        if (method == "metrics") refresh_loop_gauges();
        conn->send(router_.handle(request));
        return;
    }

    bool shutting_down = false;
    bool overloaded = false;
    bool run_inline = false;
    Worker* handoff = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto found = lanes_.find(conn.get());
        const bool idle = found == lanes_.end();
        // Once stop_workers_ is set every lane is empty and no worker is
        // left: loads, states and infos run inline, still in order.
        if (admitted && draining()) {
            shutting_down = true;
        } else if (stop_workers_ || (is_read && idle)) {
            run_inline = true;
        } else if (admitted && queued_ >= config_.queue_capacity) {
            // The admission bound applies to evals and patches only.
            overloaded = true;
        } else {
            Lane& lane = idle ? lanes_[conn.get()] : found->second;
            if (idle) {
                // A lane that just became busy goes to the most recently
                // parked worker, or waits its turn behind the ready lanes.
                lane.conn = conn;
                if (parked_.empty()) {
                    ready_.push_back(&lane);
                } else {
                    handoff = parked_.back();
                    parked_.pop_back();
                    handoff->lane = &lane;
                }
            }
            lane.pending.push_back(std::move(request));
            ++queued_;
            conn->add_inflight();
            set_queue_depth_locked();
            if (admitted) registry.counter("serve.admitted").add(1);
        }
    }
    if (handoff) handoff->wake.notify_one();
    if (shutting_down) {
        conn->send(render_error(request.id, ErrorCode::ShuttingDown,
                                "server is draining"));
    } else if (run_inline) {
        conn->send(router_.handle(request));
    } else if (overloaded) {
        conn->send(overloaded_error(request.id));
    }
}

void Server::worker_loop(Worker& self) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        Lane* lane = std::exchange(self.lane, nullptr);
        if (!lane && !ready_.empty()) {
            lane = ready_.front();
            ready_.pop_front();
        }
        if (!lane) {
            if (stop_workers_) return;
            parked_.push_back(&self);
            self.wake.wait(lock, [&] { return self.lane || stop_workers_; });
            continue;
        }

        const std::shared_ptr<Conn> conn = lane->conn;
        const Request request = std::move(lane->pending.front());
        lane->pending.pop_front();
        --queued_;
        set_queue_depth_locked();
        lock.unlock();
        // instance.load is control plane: it runs even past a deadline.
        conn->send(request.method == "instance.load"
                       ? Router::render(request.id, router_.execute(request))
                       : router_.handle(request));
        conn->finish_inflight();
        lock.lock();

        // One request per turn: a lane with more work goes to the back.
        if (!lane->pending.empty()) {
            ready_.push_back(lane);
        } else {
            lanes_.erase(conn.get());
            if (lanes_.empty()) idle_cv_.notify_all();
        }
    }
}

std::string Server::handle_line(const std::string& line) {
    auto& registry = support::MetricsRegistry::global();
    Request request;
    try {
        request = parse_with_default_deadline(line);
    } catch (const ProtocolError& e) {
        registry.counter("serve.errors").add(1);
        return render_error(id_of_line(line), e.code(), e.what());
    }

    if (request.method == "eval" || request.method == "instance.patch") {
        if (draining()) {
            return render_error(request.id, ErrorCode::ShuttingDown,
                                "server is draining");
        }
        std::size_t depth = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            depth = queued_;
        }
        if (depth >= config_.queue_capacity) return overloaded_error(request.id);
        registry.counter("serve.admitted").add(1);
    }
    if (request.method == "metrics") refresh_loop_gauges();
    return router_.handle(request);
}

}  // namespace ld::serve
