// serve_mixed: the real `liquidd serve` on a Unix socket, driven by this
// process over 4 connections with a mixed read/write stream:
//
//   ~70 % eval      cached `complete` n=120 instance, 20 replications,
//                   threads 1; half repeat one of 8 (mechanism, seed)
//                   pairs so the micro-batcher can dedup, half are unique
//   ~20 % patch     single-op instance.patch on a live dregular:8
//                   n=100000 session (single-voter re-delegations)
//   ~10 % state     instance.state on the same session
//
// The open loop is a seeded Poisson schedule at a fixed aggregate rate,
// each request timed from its scheduled send time; the closed loop keeps
// one request outstanding on each of the 4 connections (the saturated
// rate) or on one connection (the latencies).  A run alternates the three
// in 10 rounds (30 % / 40 % / 30 % of each round), so all sample the whole
// run.
//
// Set-up (not sampled): server start, both instance.loads, the birth of
// the live session and a short warm-up — done three times, median
// reported.  The two instances are fixed (instance seeds 7 and 8); every
// request-stream input (arrival times, eval params, patch ops) derives
// from the workload seed.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "ld/cli/specs.hpp"
#include "ld/delegation/incremental.hpp"
#include "ld/election/tally_delta.hpp"
#include "ld/serve/instance_cache.hpp"
#include "ld/serve/protocol.hpp"
#include "ld/serve/router.hpp"
#include "support/net.hpp"

namespace perfbench {

namespace {

namespace election = ld::election;
namespace net = ld::support::net;
namespace serve = ld::serve;

// ---------------------------------------------------------------------------
// Workload shape

struct Shape {
    std::size_t eval_n = 120;
    std::size_t live_n = 100000;
    std::size_t eval_replications = 20;
    /// Open-loop rate, req/s: about a fifth of the closed-loop saturated
    /// rate on a 4-core host, so the median request does not queue.
    double open_rate = 200.0;
    std::size_t warmup_requests = 300;
    std::size_t connections = 4;
    std::size_t setups = 3;
    std::size_t rounds = 10;        ///< (open loop, closed loop) rounds per run
    std::size_t replay_evals = 32;  ///< evals replayed through the layers (traced)
};

Shape shape(const Options& options) {
    Shape s;
    if (options.tiny) {
        s.live_n = 2000;
        s.warmup_requests = 20;
        s.replay_evals = 4;
    }
    return s;
}

const char* const kGraphEval = "complete";
const char* const kGraphLive = "dregular:8";
const char* const kCompetencies = "uniform:0.45,0.555";
constexpr double kAlpha = 0.05;
const char* const kMechanisms[4] = {"threshold:1", "threshold:2", "alg1:sqrt", "alg1:log"};

enum class Method { Eval, Patch, State };

const char* method_name(Method m) {
    switch (m) {
        case Method::Eval: return "eval";
        case Method::Patch: return "patch";
        default: return "state";
    }
}

struct PatchOp {
    enum class Kind { Delegate, Vote, Abstain, Competency } kind = Kind::Vote;
    std::uint32_t voter = 0;
    std::uint32_t to = 0;
    double p = 0.0;
};

struct Req {
    Method method = Method::Eval;
    std::string mechanism;   ///< eval
    std::uint64_t eval_seed = 0;
    PatchOp op;              ///< patch
};

/// Instance seeds of the eval and live instances.  They are part of the
/// workload, like its sizes: the served instances stay the same across
/// runs, and the workload seed drives the request stream.
constexpr std::uint64_t kInstanceSeeds[2] = {7, 8};

/// Stream ids for derive_seed.
constexpr std::uint64_t kPairStream = 11;
constexpr std::uint64_t kMixStream = 12;

/// Generates the request mix from the workload seed.
class MixGenerator {
public:
    MixGenerator(std::uint64_t workload_seed, std::uint64_t phase, std::size_t live_n)
        : state_(derive_seed(workload_seed, kMixStream, phase)), live_n_(live_n) {
        for (std::uint64_t k = 0; k < 8; ++k) {
            pair_seeds_[k] = derive_seed(workload_seed, kPairStream, k) >> 11;
        }
    }

    Req next() {
        Req r;
        const std::uint64_t u = splitmix64(state_) % 100;
        if (u < 70) {
            r.method = Method::Eval;
            if (splitmix64(state_) % 2 == 0) {
                const std::uint64_t pair = splitmix64(state_) % 8;
                r.mechanism = kMechanisms[pair % 4];
                r.eval_seed = pair_seeds_[pair];
            } else {
                r.mechanism = kMechanisms[splitmix64(state_) % 4];
                r.eval_seed = splitmix64(state_) >> 11;  // unique w.h.p.
            }
        } else if (u < 90) {
            r.method = Method::Patch;
            r.op.voter = static_cast<std::uint32_t>(splitmix64(state_) % live_n_);
            const std::uint64_t pick = splitmix64(state_) % 8;
            if (pick < 4) {  // half the ops re-delegate one voter
                std::uint64_t to = splitmix64(state_) % (live_n_ - 1);
                if (to >= r.op.voter) ++to;
                r.op.kind = PatchOp::Kind::Delegate;
                r.op.to = static_cast<std::uint32_t>(to);
            } else if (pick < 6) {
                r.op.kind = PatchOp::Kind::Vote;
            } else if (pick == 6) {
                r.op.kind = PatchOp::Kind::Abstain;
            } else {
                r.op.kind = PatchOp::Kind::Competency;
                r.op.p = static_cast<double>(splitmix64(state_) >> 11) * 0x1.0p-53;
            }
        } else {
            r.method = Method::State;
        }
        return r;
    }

    /// Uniform in (0, 1) for arrival gaps.
    double uniform() {
        return (static_cast<double>(splitmix64(state_) >> 11) + 0.5) * 0x1.0p-53;
    }

private:
    std::uint64_t state_;
    std::size_t live_n_;
    std::uint64_t pair_seeds_[8] = {};
};

json::Object eval_params(const Shape& s, const std::string& fingerprint, const Req& r) {
    json::Object params;
    params.emplace("instance", json::Value(fingerprint));
    params.emplace("mechanism", json::Value(r.mechanism));
    params.emplace("seed", json::Value(static_cast<double>(r.eval_seed)));
    params.emplace("replications", json::Value(static_cast<double>(s.eval_replications)));
    params.emplace("threads", json::Value(1.0));
    return params;
}

json::Object patch_params(const std::string& fingerprint, const PatchOp& op) {
    json::Object o;
    o.emplace("voter", json::Value(static_cast<double>(op.voter)));
    switch (op.kind) {
        case PatchOp::Kind::Delegate:
            o.emplace("op", json::Value(std::string("delegate")));
            o.emplace("to", json::Value(static_cast<double>(op.to)));
            break;
        case PatchOp::Kind::Vote: o.emplace("op", json::Value(std::string("vote"))); break;
        case PatchOp::Kind::Abstain:
            o.emplace("op", json::Value(std::string("abstain")));
            break;
        case PatchOp::Kind::Competency:
            o.emplace("op", json::Value(std::string("competency")));
            o.emplace("p", json::Value(op.p));
            break;
    }
    json::Array ops;
    ops.emplace_back(std::move(o));
    json::Object params;
    params.emplace("instance", json::Value(fingerprint));
    params.emplace("ops", json::Value(std::move(ops)));
    return params;
}

struct Fingerprints {
    std::string eval;
    std::string live;
};

/// The request as the server's Router sees it (method + params).
std::pair<std::string, json::Object> to_rpc(const Shape& s, const Fingerprints& fp,
                                            const Req& r) {
    switch (r.method) {
        case Method::Eval: return {"eval", eval_params(s, fp.eval, r)};
        case Method::Patch: return {"instance.patch", patch_params(fp.live, r.op)};
        default: {
            json::Object params;
            params.emplace("instance", json::Value(fp.live));
            return {"instance.state", std::move(params)};
        }
    }
}

std::string render_line(std::uint64_t id, const std::string& method, json::Object params) {
    json::Object request;
    request.emplace("id", json::Value(static_cast<double>(id)));
    request.emplace("method", json::Value(method));
    request.emplace("params", json::Value(std::move(params)));
    return json::dump(json::Value(std::move(request)));
}

json::Object load_params(const char* graph, std::size_t n, std::uint64_t seed) {
    json::Object params;
    params.emplace("graph", json::Value(std::string(graph)));
    params.emplace("competencies", json::Value(std::string(kCompetencies)));
    params.emplace("n", json::Value(static_cast<double>(n)));
    params.emplace("alpha", json::Value(kAlpha));
    params.emplace("seed", json::Value(static_cast<double>(seed)));
    return params;
}

// ---------------------------------------------------------------------------
// Transport

/// One client connection with poll-bounded line reads.
class Conn {
public:
    explicit Conn(const std::string& path) : socket_(net::connect_unix(path)) {
        std::string handshake;
        if (!read_line(handshake, Clock::now() + std::chrono::seconds(10))) {
            throw std::runtime_error("serve_mixed: no handshake from the server");
        }
        if (json::parse(handshake).at("schema").as_string() != serve::kSchema) {
            throw std::runtime_error("serve_mixed: unexpected handshake schema");
        }
    }

    void send(const std::string& line) { net::write_line(socket_, line, 10000); }

    /// Next line, or false at EOF or once `deadline` passes.
    bool read_line(std::string& line, Clock::time_point deadline) {
        while (true) {
            const std::size_t nl = buffer_.find('\n', scanned_);
            if (nl != std::string::npos) {
                line.assign(buffer_, 0, nl);
                buffer_.erase(0, nl + 1);
                scanned_ = 0;
                return true;
            }
            scanned_ = buffer_.size();
            const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now());
            if (left.count() <= 0) return false;
            pollfd pfd{socket_.fd(), POLLIN, 0};
            const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
            if (ready < 0 && errno == EINTR) continue;
            if (ready <= 0) return false;
            char chunk[65536];
            const std::size_t got = socket_.read_some(chunk, sizeof chunk);
            if (got == 0) return false;
            buffer_.append(chunk, got);
        }
    }

    /// Send one request and wait for its response line.
    json::Value call(const std::string& line) {
        send(line);
        std::string response;
        if (!read_line(response, Clock::now() + std::chrono::seconds(120))) {
            throw std::runtime_error("serve_mixed: no response to " + line.substr(0, 80));
        }
        return json::parse(response);
    }

private:
    net::Socket socket_;
    std::string buffer_;
    std::size_t scanned_ = 0;
};

/// The server child process; killed and reaped on destruction if it is
/// still running.
class ServerProcess {
public:
    ServerProcess(const std::string& binary, const std::string& socket_path,
                  const std::string& log_path) {
        int ready[2];
        if (::pipe(ready) != 0) throw std::runtime_error("serve_mixed: pipe failed");
        ::fcntl(ready[0], F_SETFD, FD_CLOEXEC);
        const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                               0644);
        const std::string fd_text = std::to_string(ready[1]);
        std::vector<std::string> args = {binary, "serve", "--socket", socket_path,
                                         "--queue-capacity", "4096", "--threads", "1",
                                         "--ready-fd", fd_text};
        std::vector<char*> argv;
        for (auto& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("serve_mixed: fork failed");
        if (pid_ == 0) {
            if (log >= 0) {
                ::dup2(log, STDOUT_FILENO);
                ::dup2(log, STDERR_FILENO);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        ::close(ready[1]);
        if (log >= 0) ::close(log);
        pollfd pfd{ready[0], POLLIN, 0};
        char buf[8] = {};
        const bool ok = ::poll(&pfd, 1, 60000) == 1 && ::read(ready[0], buf, 6) == 6;
        ::close(ready[0]);
        if (!ok) {
            stop_hard();
            throw std::runtime_error("serve_mixed: server did not become ready (see " +
                                     log_path + ")");
        }
    }

    ~ServerProcess() { stop_hard(); }
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    /// Wait up to `timeout` for a drained server to exit; true on exit 0.
    bool wait_exit(std::chrono::seconds timeout) {
        const auto deadline = Clock::now() + timeout;
        while (pid_ > 0 && Clock::now() < deadline) {
            int status = 0;
            const pid_t got = ::waitpid(pid_, &status, WNOHANG);
            if (got == pid_) {
                pid_ = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return false;
    }

private:
    void stop_hard() {
        if (pid_ <= 0) return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    pid_t pid_ = -1;
};

/// What happened to one request.
struct Outcome {
    Clock::time_point scheduled{};
    Clock::time_point sent{};
    Clock::time_point received{};
    bool answered = false;
    bool duplicate = false;
    bool ok = false;
    std::string code;
    double pm = std::numeric_limits<double>::quiet_NaN();  ///< eval
    double epoch = -1.0;                                    ///< patch
    std::size_t conn = 0;
};

/// Parse one response into its outcome slot (ids are base + index).
void take_response(const std::string& line, Clock::time_point now, std::uint64_t base,
                   std::vector<Outcome>& outcomes) {
    const json::Value response = json::parse(line);
    const auto id = static_cast<std::uint64_t>(response.at("id").as_number());
    if (id < base || id - base >= outcomes.size()) {
        throw std::runtime_error("serve_mixed: response with unknown id");
    }
    Outcome& o = outcomes[id - base];
    if (o.answered) {
        o.duplicate = true;
        return;
    }
    o.answered = true;
    o.received = now;
    o.ok = response.at("ok").as_bool();
    if (!o.ok) {
        o.code = response.at("error").at("code").as_string();
        return;
    }
    const json::Value& result = response.at("result");
    if (const json::Value* pm = result.find("pm")) o.pm = pm->as_number();
    if (const json::Value* epoch = result.find("epoch")) o.epoch = epoch->as_number();
}

/// A live server with its connections and loaded instances.
struct Session {
    std::unique_ptr<ServerProcess> server;
    std::vector<std::unique_ptr<Conn>> conns;
    Fingerprints fp;
    std::uint64_t next_id = 1;
};

/// Phase results for one request list.
struct Phase {
    std::vector<Req> requests;
    std::vector<Outcome> outcomes;
    std::uint64_t base_id = 0;
    double duration_s = 0.0;
};

/// Open loop: request i goes out at start + t_i on connection i mod C.
Phase run_open_loop(Session& session, const Shape& s, std::uint64_t seed,
                    std::uint64_t phase_id, double seconds, Tracer& tracer, bool traced) {
    MixGenerator mix(seed, phase_id, s.live_n);
    Phase phase;
    std::vector<double> offsets;
    for (double t = 0.0;;) {
        t += -std::log(mix.uniform()) / s.open_rate;
        if (t >= seconds) break;
        offsets.push_back(t);
        phase.requests.push_back(mix.next());
    }
    const std::size_t count = phase.requests.size();
    phase.outcomes.resize(count);
    phase.base_id = session.next_id;
    session.next_id += count;
    std::vector<std::string> lines(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto [method, params] = to_rpc(s, session.fp, phase.requests[i]);
        lines[i] = render_line(phase.base_id + i, method, std::move(params));
        phase.outcomes[i].conn = i % s.connections;
    }

    const std::size_t conns = s.connections;
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds + 30.0));
    std::vector<std::thread> readers;
    std::atomic<bool> reader_error{false};
    for (std::size_t c = 0; c < conns; ++c) {
        readers.emplace_back([&, c] {
            const std::size_t expected = count / conns + (c < count % conns ? 1 : 0);
            std::string line;
            try {
                for (std::size_t got = 0; got < expected; ++got) {
                    if (!session.conns[c]->read_line(line, deadline)) return;
                    take_response(line, Clock::now(), phase.base_id, phase.outcomes);
                }
            } catch (const std::exception&) {
                reader_error = true;
            }
        });
    }
    // A failed send must not leave the readers running unjoined.
    std::exception_ptr send_error;
    try {
        for (std::size_t i = 0; i < count; ++i) {
            Outcome& o = phase.outcomes[i];
            o.scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(offsets[i]));
            std::this_thread::sleep_until(o.scheduled);
            o.sent = Clock::now();
            session.conns[o.conn]->send(lines[i]);
        }
    } catch (...) {
        send_error = std::current_exception();
    }
    for (auto& r : readers) r.join();
    if (send_error) std::rethrow_exception(send_error);
    phase.duration_s = seconds_between(start, Clock::now());
    if (reader_error) throw std::runtime_error("serve_mixed: malformed response");

    if (traced) {
        // Requests in flight overlap, so each is a root span of its own
        // rather than a child of the phase.
        tracer.record("serve.open_loop", tracer.at(start), tracer.now(), 0, 0);
        for (std::size_t i = 0; i < count; ++i) {
            const Outcome& o = phase.outcomes[i];
            if (!o.answered) continue;
            const std::uint64_t request = phase.base_id + i;
            const std::uint64_t span = tracer.record(
                std::string("client.") + method_name(phase.requests[i].method),
                tracer.at(o.scheduled), tracer.at(o.received), 0, request);
            tracer.record("client.send_wait", tracer.at(o.scheduled), tracer.at(o.sent),
                          span, request);
        }
    }
    return phase;
}

/// Closed loop: each of the first `connections` connections keeps one
/// request outstanding until the phase time is up.
Phase run_closed_loop(Session& session, const Shape& s, std::uint64_t seed,
                      std::uint64_t phase_id, double seconds, std::size_t connections) {
    MixGenerator mix(seed, phase_id, s.live_n);
    Phase phase;
    const std::size_t count = static_cast<std::size_t>(seconds * 10000.0) + 64;
    for (std::size_t i = 0; i < count; ++i) phase.requests.push_back(mix.next());
    phase.outcomes.resize(count);
    phase.base_id = session.next_id;
    session.next_id += count;
    std::vector<std::string> lines(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto [method, params] = to_rpc(s, session.fp, phase.requests[i]);
        lines[i] = render_line(phase.base_id + i, method, std::move(params));
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < connections; ++c) {
        workers.emplace_back([&, c] {
            std::string line;
            try {
                while (Clock::now() < stop) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= count) return;
                    Outcome& o = phase.outcomes[i];
                    o.conn = c;
                    o.scheduled = o.sent = Clock::now();
                    session.conns[c]->send(lines[i]);
                    if (!session.conns[c]->read_line(line, stop + std::chrono::seconds(30))) {
                        return;
                    }
                    take_response(line, Clock::now(), phase.base_id, phase.outcomes);
                }
            } catch (const std::exception&) {
                failed = true;
            }
        });
    }
    for (auto& w : workers) w.join();
    phase.duration_s = seconds_between(start, Clock::now());
    if (failed) throw std::runtime_error("serve_mixed: closed-loop transport failure");
    // Only the requests actually sent belong to the phase.
    const std::size_t used = std::min(next.load(), count);
    phase.requests.resize(used);
    phase.outcomes.resize(used);
    return phase;
}

/// Start a server, load both instances, open the live session and warm up.
Session start_session(const Options& options, const Shape& s, std::size_t index,
                      Tracer& tracer, std::uint64_t setup_span) {
    namespace fs = std::filesystem;
    Session session;
    const std::string stem = "serve-" + std::to_string(options.seed) + "-" +
                             std::to_string(index);
    const std::string socket_path = (fs::path(options.out_dir) / (stem + ".sock")).string();
    {
        const ScopedSpan span(tracer, "server.start", setup_span, 0);
        session.server = std::make_unique<ServerProcess>(
            options.server, socket_path,
            (fs::path(options.out_dir) / (stem + ".log")).string());
        for (std::size_t c = 0; c < s.connections; ++c) {
            session.conns.push_back(std::make_unique<Conn>(socket_path));
        }
    }
    Conn& conn = *session.conns[0];
    const auto load = [&](const char* graph, std::size_t n, std::uint64_t stream_index) {
        const ScopedSpan span(tracer, "rpc.instance.load", setup_span, 0);
        const json::Value response = conn.call(render_line(
            session.next_id++, "instance.load",
            load_params(graph, n, kInstanceSeeds[stream_index])));
        if (!response.at("ok").as_bool()) {
            throw std::runtime_error("serve_mixed: instance.load failed: " +
                                     json::dump(response));
        }
        return response.at("result").at("instance").as_string();
    };
    session.fp.eval = load(kGraphEval, s.eval_n, 0);
    session.fp.live = load(kGraphLive, s.live_n, 1);
    {
        const ScopedSpan span(tracer, "rpc.session_birth", setup_span, 0);
        json::Object params;
        params.emplace("instance", json::Value(session.fp.live));
        const json::Value response =
            conn.call(render_line(session.next_id++, "instance.state", std::move(params)));
        if (!response.at("ok").as_bool()) {
            throw std::runtime_error("serve_mixed: session birth failed");
        }
    }
    {
        const ScopedSpan span(tracer, "client.warmup", setup_span, 0);
        MixGenerator mix(options.seed, 100 + index, s.live_n);
        for (std::size_t i = 0; i < s.warmup_requests; ++i) {
            auto [method, params] = to_rpc(s, session.fp, mix.next());
            const json::Value response =
                session.conns[i % s.connections]->call(
                    render_line(session.next_id++, method, std::move(params)));
            if (!response.at("ok").as_bool()) {
                throw std::runtime_error("serve_mixed: warm-up request failed");
            }
        }
    }
    return session;
}

/// Drain the server through a `shutdown` request and reap it.
bool stop_session(Session& session) {
    bool ok = true;
    try {
        const json::Value response = session.conns[0]->call(
            render_line(session.next_id++, "shutdown", json::Object{}));
        ok = response.at("ok").as_bool();
    } catch (const std::exception&) {
        ok = false;
    }
    session.conns.clear();
    ok = session.server->wait_exit(std::chrono::seconds(20)) && ok;
    session.server.reset();
    return ok;
}

/// In-process reference Router with the eval instance loaded (the traced
/// pass loads the live one too, for its replay).
struct ReferenceRouter {
    serve::InstanceCache cache;
    serve::Router router{serve::RouterConfig{}, cache};
    std::map<std::pair<std::string, std::uint64_t>, double> memo;

    explicit ReferenceRouter(const Shape& s) { load(kGraphEval, s.eval_n, kInstanceSeeds[0]); }

    void load(const char* graph, std::size_t n, std::uint64_t seed) {
        serve::Request request;
        request.method = "instance.load";
        request.params = json::Value(load_params(graph, n, seed));
        if (!router.execute(request).ok) {
            throw std::runtime_error("serve_mixed: in-process instance.load failed");
        }
    }

    double eval_pm(const Shape& s, const Fingerprints& fp, const Req& r) {
        const auto key = std::make_pair(r.mechanism, r.eval_seed);
        if (const auto it = memo.find(key); it != memo.end()) return it->second;
        serve::Request request;
        request.method = "eval";
        request.params = json::Value(eval_params(s, fp.eval, r));
        const serve::Router::Outcome outcome = router.execute(request);
        const double pm = outcome.ok ? outcome.result.at("pm").as_number()
                                     : std::numeric_limits<double>::quiet_NaN();
        memo.emplace(key, pm);
        return pm;
    }
};

/// Output checks for one phase: every request answered exactly once and
/// ok; patch epochs strictly increasing per connection and distinct
/// overall; eval P^M equal to the in-process Router's within 1e-9.
void check_phase(Result& result, const Phase& phase, const Shape& s, const Fingerprints& fp,
                 ReferenceRouter& reference, bool inject_bad) {
    std::vector<double> last_epoch(s.connections, -1.0);
    std::set<double> epochs;
    bool injected = false;
    for (std::size_t i = 0; i < phase.requests.size(); ++i) {
        const Req& r = phase.requests[i];
        const Outcome& o = phase.outcomes[i];
        bool ok = o.answered && o.ok && !o.duplicate;
        if (inject_bad && !injected && r.method == Method::Eval) {
            ok = false;  // as if the response had come back wrong
            injected = true;
        }
        result.check(ok, std::string("serve_mixed: ") + method_name(r.method) +
                             " request not answered exactly once and ok" +
                             (o.code.empty() ? "" : " (" + o.code + ")"));
        if (!o.answered || !o.ok) continue;
        if (r.method == Method::Eval) {
            const double expected = reference.eval_pm(s, fp, r);
            result.check(std::abs(o.pm - expected) <= 1e-9,
                         "serve_mixed: eval P^M differs from the in-process Router");
        } else if (r.method == Method::Patch) {
            const bool increasing = o.epoch > last_epoch[o.conn];
            last_epoch[o.conn] = o.epoch;
            result.check(increasing && epochs.insert(o.epoch).second,
                         "serve_mixed: patch epochs not strictly increasing");
        }
    }
}

/// Latency charged to a failed or refused request: beyond any limit.
constexpr double kMissed_s = 1e6;

/// Latencies (seconds) of one method, or of all requests when `method`
/// is empty, in schedule order; a request that failed counts as missing
/// every limit.
std::vector<double> latencies(const Phase& phase, std::optional<Method> method) {
    std::vector<double> out;
    for (std::size_t i = 0; i < phase.requests.size(); ++i) {
        if (method && phase.requests[i].method != *method) continue;
        const Outcome& o = phase.outcomes[i];
        out.push_back(o.answered && o.ok ? seconds_between(o.scheduled, o.received)
                                         : kMissed_s);
    }
    return out;
}

/// Requests and outcomes of several phases, in order (for the per-class
/// latency notes and the client lateness).
Phase merge(const std::vector<Phase>& phases) {
    Phase all;
    for (const Phase& p : phases) {
        all.requests.insert(all.requests.end(), p.requests.begin(), p.requests.end());
        all.outcomes.insert(all.outcomes.end(), p.outcomes.begin(), p.outcomes.end());
    }
    return all;
}

std::size_t ok_count(const Phase& phase) {
    std::size_t n = 0;
    for (const Outcome& o : phase.outcomes) n += o.answered && o.ok ? 1 : 0;
    return n;
}

void note_latencies(Result& result, const std::string& prefix, const Phase& phase) {
    for (Method m : {Method::Eval, Method::Patch, Method::State}) {
        const auto lat = latencies(phase, m);
        const std::string name = prefix + method_name(m);
        result.note(name + "_p50_ms", 1e3 * median(lat), "ms");
        result.note(name + "_p99_ms", 1e3 * quantile(lat, 0.99), "ms");
        result.note(name + "_samples", static_cast<double>(lat.size()), "count");
    }
}

double counter(const json::Value& report, const std::string& name) {
    const json::Value* v = report.at("counters").find(name);
    return v ? v->as_number() : 0.0;
}

/// What the eval replays measured, for the shared per-layer metrics.
struct EvalReplay {
    double estimate_s = 0.0;  ///< median estimate_gain wall per replayed eval
    double sinks_mean = 0.0;
    TraceOverhead overhead;
};

/// Replays for the traced pass: the traced phase's requests through an
/// in-process Router, its patch ops through DynamicResolution/LiveTally,
/// and a few evals' replications through the layer functions.
EvalReplay traced_replays(Result& result, const Shape& s, const Phase& phase,
                          Tracer& tracer, const Fingerprints& fp,
                          ReferenceRouter& reference) {
    // Instances built in-process through the layer functions (graph.generate,
    // model.instance spans), from the same seeds the server was given.
    std::optional<ld::model::Instance> eval_instance, live_instance;
    for (std::size_t index : {0, 1}) {
        const ScopedSpan span(tracer, "instance.build", 0, 0);
        ld::rng::Rng rng(kInstanceSeeds[index]);
        auto instance = traced_instance(tracer, index == 0 ? kGraphEval : kGraphLive,
                                        kCompetencies, index == 0 ? s.eval_n : s.live_n,
                                        kAlpha, rng, span.id(), 0);
        (index == 0 ? eval_instance : live_instance).emplace(std::move(instance));
    }

    // Router replay, same request stream in send order, on a fresh live
    // session.
    reference.load(kGraphLive, s.live_n, kInstanceSeeds[1]);
    std::map<std::string, std::vector<double>> router_s;
    {
        const ScopedSpan root(tracer, "router.replay", 0, 0);
        for (std::size_t i = 0; i < phase.requests.size(); ++i) {
            auto [method, params] = to_rpc(s, fp, phase.requests[i]);
            serve::Request request;
            request.method = method;
            request.params = json::Value(std::move(params));
            const std::uint64_t id = phase.base_id + i;
            const double t0 = tracer.now();
            const bool ok = [&] {
                const ScopedSpan span(tracer, "router.execute", root.id(), id);
                return reference.router.execute(request).ok;
            }();
            router_s[method_name(phase.requests[i].method)].push_back(tracer.now() - t0);
            result.check(ok, "serve_mixed: in-process Router replay failed");
        }
    }

    // Churn replay: the same ops through the incremental resolution and
    // the live tally directly.
    std::vector<double> patch_s, tally_s;
    {
        const ScopedSpan root(tracer, "churn.replay", 0, 0);
        ld::delegation::DynamicResolution resolution;
        election::LiveTally live;
        resolution.reset_all_vote(live_instance->voter_count());
        live.reset(live_instance->competencies().values(), resolution,
                   serve::RouterConfig{}.live_tally_epsilon);
        for (std::size_t i = 0; i < phase.requests.size(); ++i) {
            const Req& r = phase.requests[i];
            if (r.method != Method::Patch) continue;
            const std::uint64_t id = phase.base_id + i;
            const ScopedSpan span(tracer, "live.patch", root.id(), id);
            if (r.op.kind == PatchOp::Kind::Competency) {
                const double t0 = tracer.now();
                {
                    const ScopedSpan t(tracer, "live_tally.update", span.id(), id);
                    live.set_competency(resolution, r.op.voter, r.op.p);
                }
                tally_s.push_back(tracer.now() - t0);
                continue;
            }
            const double t0 = tracer.now();
            ld::delegation::DynamicResolution::PatchResult patch;
            {
                const ScopedSpan t(tracer, "incremental.set", span.id(), id);
                switch (r.op.kind) {
                    case PatchOp::Kind::Delegate:
                        patch = resolution.set_delegate(r.op.voter, r.op.to);
                        break;
                    case PatchOp::Kind::Vote: patch = resolution.set_vote(r.op.voter); break;
                    default: patch = resolution.set_abstain(r.op.voter); break;
                }
            }
            const double t1 = tracer.now();
            patch_s.push_back(t1 - t0);
            if (patch.cycle_rejected) continue;
            {
                const ScopedSpan t(tracer, "live_tally.update", span.id(), id);
                live.apply_sink_changes({patch.changes.data(), patch.change_count});
            }
            tally_s.push_back(tracer.now() - t1);
        }
    }

    // Replication replay for the first few evals of the phase, each once
    // untraced and once traced (the difference is the tracing overhead).
    EvalReplay out;
    std::vector<double> estimate_s;
    double sinks = 0.0;
    std::size_t replayed = 0;
    for (std::size_t i = 0; i < phase.requests.size() && replayed < s.replay_evals; ++i) {
        const Req& r = phase.requests[i];
        if (r.method != Method::Eval) continue;
        const std::uint64_t id = phase.base_id + i;
        const auto mechanism = ld::cli::make_mechanism(r.mechanism);
        election::EvalOptions eval;
        eval.replications = s.eval_replications;
        eval.threads = 1;
        ld::rng::Rng rng(r.eval_seed);
        const double t0 = tracer.now();
        election::GainReport report;
        {
            const ScopedSpan span(tracer, "evaluator.estimate_gain", 0, id);
            report = election::estimate_gain(*mechanism, *eval_instance, rng, eval);
        }
        estimate_s.push_back(tracer.now() - t0);
        const ReplayStats stats =
            replay_with_overhead(tracer, *mechanism, *eval_instance, r.eval_seed, eval,
                                 s.eval_replications, id, out.overhead);
        result.check(std::abs(stats.pm_mean - report.pm.value) <= 1e-12,
                     "serve_mixed: replayed P^M differs from estimate_gain");
        sinks += stats.sinks_mean;
        ++replayed;
    }

    for (const char* m : {"eval", "patch", "state"}) {
        result.note(std::string("router.") + m + "_ms_p50", 1e3 * median(router_s[m]), "ms");
    }
    for (Method m : {Method::Eval, Method::Patch}) {
        // Socket latency from the actual send (the client.<method> span's
        // self time) minus the in-process router time of the same stream.
        std::vector<double> socket;
        for (std::size_t i = 0; i < phase.requests.size(); ++i) {
            const Outcome& o = phase.outcomes[i];
            if (phase.requests[i].method == m && o.answered && o.ok) {
                socket.push_back(seconds_between(o.sent, o.received));
            }
        }
        result.note(std::string("front.") + method_name(m) + "_ms_p50",
                    1e3 * (median(socket) - median(router_s[method_name(m)])), "ms");
    }
    result.note("incremental.patch_us_p50", 1e6 * median(patch_s), "us");
    result.note("live_tally.update_us_p50", 1e6 * median(tally_s), "us");
    result.note("evaluator.estimate_gain_ms_p50", 1e3 * median(estimate_s), "ms");
    out.estimate_s = median(estimate_s);
    out.sinks_mean = replayed ? sinks / static_cast<double>(replayed) : 0.0;
    return out;
}

}  // namespace

Result run_serve_mixed(const Options& options, Tracer& tracer) {
    if (options.server.empty()) throw std::runtime_error("serve_mixed needs --server");
    const Shape s = shape(options);
    Result result;

    // Set-up, repeated; the last session stays up for the measurement.
    const std::size_t setups = tracer.enabled() ? 1 : s.setups;
    std::vector<double> setup_s;
    Session session;
    for (std::size_t i = 0; i < setups; ++i) {
        if (session.server) result.check(stop_session(session), "serve_mixed: drain failed");
        const auto t0 = Clock::now();
        const ScopedSpan span(tracer, "setup", 0, 0);
        session = start_session(options, s, i, tracer, span.id());
        setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    ReferenceRouter reference(s);

    if (!tracer.enabled()) {
        // Rounds of (open loop, 4-connection closed loop, one-connection
        // closed loop), so every phase samples the whole run and a burst of
        // host slowness lands in a share of each.  The saturated rate and
        // the p90 pool the 4-connection rounds; the median is the median
        // over rounds of the one-connection loop's median (with one request
        // in flight a slower host stretches it in proportion, while in the
        // open loop it also grows the queue: over 10 seeds the open-loop
        // median spread 10-79 % with the host's CPU steal).  The
        // one-connection p90 is not used: about a fifth of the requests are
        // ~5 ms patches and the rest ~0.4 ms reads, so it sits on the edge
        // between the two and spread 24 % over 5 seeds.  The open-loop
        // numbers go to the result file.
        std::vector<Phase> open, closed, single;
        std::vector<double> p50;
        const double round_s = options.seconds / static_cast<double>(s.rounds);
        for (std::uint64_t k = 0; k < s.rounds; ++k) {
            open.push_back(run_open_loop(session, s, options.seed, 10 + k, 0.3 * round_s,
                                         tracer, false));
            closed.push_back(run_closed_loop(session, s, options.seed, 20 + k, 0.4 * round_s,
                                             s.connections));
            single.push_back(run_closed_loop(session, s, options.seed, 30 + k, 0.3 * round_s, 1));
            p50.push_back(median(latencies(single.back(), std::nullopt)));
        }
        result.check(stop_session(session), "serve_mixed: drain failed");
        for (std::size_t k = 0; k < open.size(); ++k) {
            check_phase(result, open[k], s, session.fp, reference, options.inject_bad && k == 0);
            check_phase(result, closed[k], s, session.fp, reference, false);
            check_phase(result, single[k], s, session.fp, reference, false);
        }
        const Phase all_open = merge(open);
        const Phase all_closed = merge(closed);
        const auto all = latencies(all_open, std::nullopt);
        std::vector<double> late;
        for (const Outcome& o : all_open.outcomes) {
            late.push_back(seconds_between(o.scheduled, o.sent));
        }
        double closed_s = 0.0;
        for (const Phase& p : closed) closed_s += p.duration_s;
        const double saturated_rps = static_cast<double>(ok_count(all_closed)) / closed_s;
        result.add("setup_s", median(setup_s), "s");
        result.add("work_per_s", saturated_rps, "1/s");
        result.add("op_p50_ms", 1e3 * median(p50), "ms");
        result.add("op_p90_ms", 1e3 * quantile(latencies(all_closed, std::nullopt), 0.9), "ms");
        result.note("open.all_p99_ms", 1e3 * quantile(all, 0.99), "ms");
        result.note("peak_rss_mb", children_peak_rss_mb(), "MiB");
        note_latencies(result, "open.", all_open);
        note_latencies(result, "closed.", all_closed);
        note_latencies(result, "single.", merge(single));
        result.note("open.samples", static_cast<double>(all_open.requests.size()), "count");
        result.note("open.rate", s.open_rate, "1/s");
        result.note("saturated_rps", saturated_rps, "1/s");
        result.note("client.late_ms_p99", 1e3 * quantile(late, 0.99), "ms");
        return result;
    }

    // Traced pass: the open loop under spans, one metrics read, then
    // replays.
    const Phase traced = run_open_loop(session, s, options.seed, 3, options.seconds / 2.0,
                                       tracer, true);
    const json::Value metrics = session.conns[0]->call(
        render_line(session.next_id++, "metrics", json::Object{}));
    result.check(stop_session(session), "serve_mixed: drain failed");
    check_phase(result, traced, s, session.fp, reference, options.inject_bad);

    const json::Value& report = metrics.at("result").at("report");
    const double evals = counter(report, "serve.evals");
    const json::Value* batch = report.at("histograms").find("dispatch.batch_size");
    result.note("serve.batch_size_mean", batch ? batch->at("mean_seconds").as_number() : 0.0,
                "count");
    result.note("serve.dedup_share",
                evals > 0 ? counter(report, "serve.dedup_shared") / evals : 0.0, "ratio");
    result.note("serve.overloaded", counter(report, "serve.rejected_overload"), "count");
    result.note("patch.resolution_rebuilds", counter(report, "patch.resolution_rebuilds"),
                "count");
    std::vector<double> late;
    for (const Outcome& o : traced.outcomes) late.push_back(seconds_between(o.scheduled, o.sent));
    result.note("client.late_ms_p99", 1e3 * quantile(late, 0.99), "ms");

    const EvalReplay replay = traced_replays(result, s, traced, tracer, session.fp, reference);
    add_shared_layer_metrics(result, layer_breakdown(tracer.spans()), replay.sinks_mean,
                             replay.estimate_s, s.eval_replications, 1,
                             replay.overhead.share());
    return result;
}

}  // namespace perfbench
