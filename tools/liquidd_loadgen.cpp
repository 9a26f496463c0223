// liquidd_loadgen — QPS replay client for `liquidd serve`.
//
// Reads a JSON-lines file of liquidd.rpc.v1 request templates (ids are
// assigned here, sequentially), connects over a Unix-domain socket or
// TCP loopback, and replays the file at a target rate with pipelined
// writer/reader pairs: writers pace sends against the wall clock, the
// readers match responses back to send timestamps.  The summary reports
// achieved throughput, latency percentiles, and a per-error-code
// breakdown — `overloaded` counts here are the admission controller
// working, not a failure.
//
//   liquidd_loadgen --socket /tmp/ld.sock --requests reqs.jsonl --qps 200 --repeat 10
//
// `--connections N` opens N concurrent sockets; request i is owned by
// connection i mod N, but all sends pace against one global schedule
// (request i goes out at start + i/qps regardless of which connection
// carries it), so the server sees the target aggregate rate spread over
// N live connections.  Ids stay globally unique and latencies are
// merged before the percentile report.
//
// `--preload '<instance.load params>'` loads an instance first and
// substitutes its fingerprint for the string "@instance" in templates,
// so request files can exercise the cached-eval path
// without knowing fingerprints up front.
//
// `--slo-p99-ms <t>` and `--min-qps <q>` turn the summary into a CI
// gate: after a complete replay the observed p99 latency and achieved
// throughput are checked against the bounds and the exit status is 1 on
// any breach, with a printed verdict per bound.  Walkthrough:
// docs/SERVING.md.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/json.hpp"
#include "support/net.hpp"

namespace json = ld::support::json;
namespace net = ld::support::net;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
    std::string unix_socket;
    int tcp_port = -1;
    std::string requests_path;
    double qps = 0.0;          ///< 0 = as fast as the sockets allow
    std::size_t repeat = 1;    ///< replay the file this many times
    std::size_t connections = 1;  ///< concurrent sockets
    std::string preload;       ///< instance.load params JSON ("" = none)
    std::size_t churn = 0;     ///< synthesize this many patch/state requests
    std::uint64_t churn_seed = 1;  ///< op-stream seed (replayable)
    std::size_t state_every = 8;   ///< every k-th churn request is instance.state
    bool fail_on_error = false;  ///< exit 1 if any response has ok=false
    double slo_p99_ms = 0.0;   ///< 0 = no latency gate
    double min_qps = 0.0;      ///< 0 = no throughput gate
    bool help = false;
};

constexpr const char* kUsage = R"(liquidd_loadgen — QPS replay client for `liquidd serve`

usage: liquidd_loadgen (--socket <path> | --tcp <port>)
                       (--requests <file.jsonl> | --churn <n>)
                       [--qps <rate>] [--repeat <n>] [--connections <n>]
                       [--preload <params-json>] [--fail-on-error]
                       [--slo-p99-ms <ms>] [--min-qps <rate>]

  --socket <path>      connect to a Unix-domain server socket
  --tcp <port>         connect to 127.0.0.1:<port>
  --requests <file>    JSON-lines request templates (ids assigned here)
  --churn <n>          synthesize n delegation-churn requests instead of
                       reading --requests: a deterministic stream of
                       single-op instance.patch requests (delegate / vote /
                       abstain / competency) with every k-th request an
                       instance.state readback; requires --preload
                       (docs/CHURN.md)
  --churn-seed <s>     seed for the synthesized op stream (default 1; the
                       same seed replays the same ops)
  --state-every <k>    instance.state readback cadence in churn mode
                       (default 8; 0 = never)
  --qps <rate>         target aggregate send rate (default 0 = unpaced)
  --repeat <n>         replay the file n times (default 1)
  --connections <n>    spread the replay over n concurrent sockets
                       (default 1; pacing stays global)
  --preload <params>   instance.load with these params first; the returned
                       fingerprint replaces "@instance" in templates
  --fail-on-error      exit 1 when any response has ok=false (CI smoke;
                       per-op "applied": false inside an ok patch response
                       is not an error)
  --slo-p99-ms <ms>    exit 1 when observed p99 latency exceeds this bound
  --min-qps <rate>     exit 1 when achieved throughput falls below this
  --help               show this text

Exit status: 0 on a complete replay (every request answered, every
response well-formed, every SLO bound met); 1 on transport failure,
malformed responses, missing responses, --fail-on-error with error
responses, or an SLO breach; 2 on usage errors.
)";

[[noreturn]] void usage_error(const std::string& what) {
    std::cerr << "liquidd_loadgen: " << what << "\n" << kUsage;
    std::exit(2);
}

Options parse_args(int argc, char** argv) {
    Options options;
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        const auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size()) usage_error(flag + ": missing value");
            return args[++i];
        };
        if (flag == "--socket") options.unix_socket = next();
        else if (flag == "--tcp") options.tcp_port = std::stoi(next());
        else if (flag == "--requests") options.requests_path = next();
        else if (flag == "--qps") options.qps = std::stod(next());
        else if (flag == "--repeat") options.repeat = std::stoul(next());
        else if (flag == "--connections") options.connections = std::stoul(next());
        else if (flag == "--preload") options.preload = next();
        else if (flag == "--churn") options.churn = std::stoul(next());
        else if (flag == "--churn-seed") options.churn_seed = std::stoull(next());
        else if (flag == "--state-every") options.state_every = std::stoul(next());
        else if (flag == "--fail-on-error") options.fail_on_error = true;
        else if (flag == "--slo-p99-ms") options.slo_p99_ms = std::stod(next());
        else if (flag == "--min-qps") options.min_qps = std::stod(next());
        else if (flag == "--help" || flag == "-h") options.help = true;
        else usage_error("unknown flag '" + flag + "'");
    }
    if (options.help) return options;
    if (options.unix_socket.empty() && options.tcp_port < 0) {
        usage_error("need --socket or --tcp");
    }
    if (options.tcp_port > 65535) usage_error("--tcp: port must be <= 65535");
    if (options.churn > 0) {
        if (!options.requests_path.empty()) {
            usage_error("--churn and --requests are mutually exclusive");
        }
        if (options.preload.empty()) {
            usage_error("--churn needs --preload (patches target the "
                        "preloaded instance)");
        }
    } else if (options.requests_path.empty()) {
        usage_error("need --requests <file.jsonl> or --churn <n>");
    }
    if (options.repeat == 0) usage_error("--repeat: must be >= 1");
    if (options.connections == 0) usage_error("--connections: must be >= 1");
    if (options.slo_p99_ms < 0) usage_error("--slo-p99-ms: must be >= 0");
    if (options.min_qps < 0) usage_error("--min-qps: must be >= 0");
    return options;
}

/// Request templates: parsed once, re-rendered per send with the
/// assigned id (and the preloaded fingerprint substituted).
std::vector<json::Value> load_templates(const std::string& path) {
    std::ifstream in(path);
    if (!in) usage_error("cannot open requests file '" + path + "'");
    std::vector<json::Value> templates;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        json::Value value;
        try {
            value = json::parse(line);
        } catch (const json::Error& e) {
            usage_error(path + ":" + std::to_string(line_no) + ": " + e.what());
        }
        if (!value.is_object() || !value.contains("method")) {
            usage_error(path + ":" + std::to_string(line_no) +
                        ": templates must be objects with a \"method\"");
        }
        templates.push_back(std::move(value));
    }
    if (templates.empty()) usage_error("'" + path + "' holds no requests");
    return templates;
}

/// SplitMix64 — the synthesized churn stream must be replayable from
/// --churn-seed alone (the CI smoke compares two runs), and the tool
/// stays standalone, so the tiny generator lives here.
std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d4a4a2f8ed22c3ULL;
    return z ^ (z >> 31);
}

/// Synthesize the churn-mode request stream: single-op instance.patch
/// templates (delegate-heavy, with vote / abstain / competency mixed in)
/// against "@instance", plus an instance.state readback every
/// `state_every` requests.  Cycle-rejected delegations are expected and
/// arrive as per-op "applied": false inside ok responses.
std::vector<json::Value> synthesize_churn(std::size_t count, std::size_t voters,
                                          std::uint64_t seed,
                                          std::size_t state_every) {
    if (voters == 0) usage_error("--churn: preloaded instance has no voters");
    std::uint64_t state = seed;
    std::vector<json::Value> templates;
    templates.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        json::Object request;
        json::Object params;
        params.emplace("instance", json::Value(std::string("@instance")));
        if (state_every > 0 && (i + 1) % state_every == 0) {
            request.emplace("method", json::Value(std::string("instance.state")));
            request.emplace("params", json::Value(std::move(params)));
            templates.emplace_back(std::move(request));
            continue;
        }
        json::Object op;
        const std::uint64_t voter = splitmix64(state) % voters;
        op.emplace("voter", json::Value(static_cast<double>(voter)));
        const std::uint64_t pick = splitmix64(state) % 8;
        if (pick < 4 && voters > 1) {  // half the ops: retarget an edge
            std::uint64_t to = splitmix64(state) % (voters - 1);
            if (to >= voter) ++to;
            op.emplace("op", json::Value(std::string("delegate")));
            op.emplace("to", json::Value(static_cast<double>(to)));
        } else if (pick < 6) {
            op.emplace("op", json::Value(std::string("vote")));
        } else if (pick == 6) {
            op.emplace("op", json::Value(std::string("abstain")));
        } else {
            op.emplace("op", json::Value(std::string("competency")));
            const double p =
                static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
            op.emplace("p", json::Value(p));
        }
        json::Array ops;
        ops.emplace_back(std::move(op));
        params.emplace("ops", json::Value(std::move(ops)));
        request.emplace("method", json::Value(std::string("instance.patch")));
        request.emplace("params", json::Value(std::move(params)));
        templates.emplace_back(std::move(request));
    }
    return templates;
}

/// Deep-copy `value` replacing every string "@instance" with
/// `fingerprint` (no-op when fingerprint is empty).
json::Value substitute(const json::Value& value, const std::string& fingerprint) {
    if (fingerprint.empty()) return value;
    if (value.is_string() && value.as_string() == "@instance") {
        return json::Value(fingerprint);
    }
    if (value.is_object()) {
        json::Object out;
        for (const auto& [key, member] : value.as_object()) {
            out.emplace(key, substitute(member, fingerprint));
        }
        return json::Value(std::move(out));
    }
    if (value.is_array()) {
        json::Array out;
        for (const auto& member : value.as_array()) {
            out.push_back(substitute(member, fingerprint));
        }
        return json::Value(std::move(out));
    }
    return value;
}

std::string render_request(const json::Value& tmpl, std::size_t id,
                           const std::string& fingerprint) {
    json::Object request;
    request.emplace("id", json::Value(static_cast<double>(id)));
    for (const auto& [key, member] : tmpl.as_object()) {
        if (key == "id") continue;  // template ids are ignored
        request.emplace(key, substitute(member, fingerprint));
    }
    return json::dump(json::Value(std::move(request)));
}

double percentile(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// One socket plus its line reader; the constructor checks the
/// liquidd.rpc.v1 handshake.
struct Connection {
    net::Socket socket;
    net::LineReader reader;

    explicit Connection(net::Socket s) : socket(std::move(s)), reader(socket) {
        std::string line;
        if (!reader.read_line(line)) {
            throw std::runtime_error("server closed before the handshake");
        }
        const json::Value handshake = json::parse(line);
        if (handshake.at("schema").as_string() != "liquidd.rpc.v1") {
            throw std::runtime_error("unexpected schema '" +
                                     handshake.at("schema").as_string() + "'");
        }
    }
};

std::unique_ptr<Connection> open_connection(const Options& options) {
    return std::make_unique<Connection>(
        options.unix_socket.empty()
            ? net::connect_tcp_loopback(static_cast<std::uint16_t>(options.tcp_port))
            : net::connect_unix(options.unix_socket));
}

}  // namespace

int main(int argc, char** argv) {
    const Options options = parse_args(argc, argv);
    if (options.help) {
        std::cout << kUsage;
        return 0;
    }

    try {
        std::vector<json::Value> templates;
        if (options.churn == 0) templates = load_templates(options.requests_path);

        std::vector<std::unique_ptr<Connection>> conns;
        conns.reserve(options.connections);
        for (std::size_t c = 0; c < options.connections; ++c) {
            conns.push_back(open_connection(options));
        }
        std::cout << "connected: " << options.connections << " connection(s)\n";

        // Optional instance preload over connection 0, before the clock
        // starts: its fingerprint patches "@instance" placeholders.
        std::string fingerprint;
        if (!options.preload.empty()) {
            json::Object load;
            load.emplace("id", json::Value(0.0));
            load.emplace("method", json::Value(std::string("instance.load")));
            load.emplace("params", json::parse(options.preload));
            net::write_line(conns[0]->socket, json::dump(json::Value(std::move(load))));
            std::string line;
            if (!conns[0]->reader.read_line(line)) {
                std::cerr << "liquidd_loadgen: no response to --preload\n";
                return 1;
            }
            const json::Value response = json::parse(line);
            if (!response.at("ok").as_bool()) {
                std::cerr << "liquidd_loadgen: --preload failed: " << line << "\n";
                return 1;
            }
            fingerprint = response.at("result").at("instance").as_string();
            std::cout << "preloaded instance " << fingerprint << "\n";
            if (options.churn > 0) {
                const auto voters = static_cast<std::size_t>(
                    response.at("result").at("voters").as_number());
                templates = synthesize_churn(options.churn, voters,
                                             options.churn_seed,
                                             options.state_every);
                std::cout << "churn mode: " << templates.size()
                          << " synthesized request(s), seed "
                          << options.churn_seed << "\n";
            }
        }

        const std::size_t total = templates.size() * options.repeat;
        std::vector<Clock::time_point> sent_at(total);
        std::vector<double> latencies_ms;
        latencies_ms.reserve(total);
        std::map<std::string, std::size_t> outcomes;  // "ok" or an error code
        std::size_t malformed = 0;
        std::mutex mutex;  // guards sent_at reads vs writes, and the tallies

        // Request i is owned by connection i mod N, so per-connection
        // response counts are known up front and every id stays unique.
        const auto owned_count = [&](std::size_t c) {
            return total / options.connections +
                   (c < total % options.connections ? 1 : 0);
        };

        const auto period =
            options.qps > 0
                ? std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(1.0 / options.qps))
                : Clock::duration::zero();
        const Clock::time_point start = Clock::now();

        std::vector<std::thread> collectors;
        std::vector<std::thread> writers;
        collectors.reserve(options.connections);
        writers.reserve(options.connections);
        for (std::size_t c = 0; c < options.connections; ++c) {
            collectors.emplace_back([&, c] {
                Connection& conn = *conns[c];
                std::string response_line;
                const std::size_t expected = owned_count(c);
                for (std::size_t received = 0; received < expected; ++received) {
                    if (!conn.reader.read_line(response_line)) break;
                    const Clock::time_point now = Clock::now();
                    std::lock_guard<std::mutex> lock(mutex);
                    try {
                        const json::Value response = json::parse(response_line);
                        const std::size_t id =
                            static_cast<std::size_t>(response.at("id").as_number());
                        if (id < 1 || id > total) throw json::Error("id out of range");
                        latencies_ms.push_back(
                            std::chrono::duration<double, std::milli>(
                                now - sent_at[id - 1])
                                .count());
                        if (response.at("ok").as_bool()) {
                            ++outcomes["ok"];
                        } else {
                            ++outcomes[response.at("error").at("code").as_string()];
                        }
                    } catch (const json::Error&) {
                        ++malformed;
                    }
                }
            });
            writers.emplace_back([&, c] {
                Connection& conn = *conns[c];
                for (std::size_t i = c; i < total; i += options.connections) {
                    // Pace against the *global* schedule: request i goes
                    // out at start + period*i no matter which connection
                    // carries it.
                    if (period.count() > 0) {
                        std::this_thread::sleep_until(start + period * i);
                    }
                    const std::string request = render_request(
                        templates[i % templates.size()], i + 1, fingerprint);
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        sent_at[i] = Clock::now();
                    }
                    net::write_line(conn.socket, request);
                }
            });
        }
        for (auto& writer : writers) writer.join();
        for (auto& collector : collectors) collector.join();
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();

        std::size_t answered = 0;
        std::size_t errors = 0;
        std::ostringstream breakdown;
        for (const auto& [code, count] : outcomes) {
            answered += count;
            if (code != "ok") errors += count;
            breakdown << "  " << code << ": " << count;
        }
        std::sort(latencies_ms.begin(), latencies_ms.end());
        const double achieved_qps = elapsed > 0 ? answered / elapsed : 0.0;
        const double p99 = percentile(latencies_ms, 0.99);

        std::cout << "loadgen: " << answered << "/" << total << " answered in "
                  << elapsed << " s (" << achieved_qps << " req/s, "
                  << options.connections << " connection(s))\n"
                  << breakdown.str() << "\n"
                  << "  latency ms: p50 " << percentile(latencies_ms, 0.50) << "  p90 "
                  << percentile(latencies_ms, 0.90) << "  p99 " << p99 << "  max "
                  << (latencies_ms.empty() ? 0.0 : latencies_ms.back()) << "\n";

        if (malformed > 0) {
            std::cerr << "liquidd_loadgen: " << malformed << " malformed response(s)\n";
            return 1;
        }
        if (answered != total) {
            std::cerr << "liquidd_loadgen: " << (total - answered)
                      << " request(s) unanswered (server drained early?)\n";
            return 1;
        }
        if (options.fail_on_error && errors > 0) {
            std::cerr << "liquidd_loadgen: " << errors
                      << " error response(s) with --fail-on-error\n";
            return 1;
        }

        // SLO gates run only after a complete replay, so a breach is a
        // latency/throughput verdict, never a masked transport failure.
        bool slo_failed = false;
        if (options.slo_p99_ms > 0) {
            const bool ok = p99 <= options.slo_p99_ms;
            std::cout << "slo p99: " << (ok ? "OK" : "FAIL") << " (observed " << p99
                      << " ms, bound " << options.slo_p99_ms << " ms)\n";
            slo_failed = slo_failed || !ok;
        }
        if (options.min_qps > 0) {
            const bool ok = achieved_qps >= options.min_qps;
            std::cout << "slo qps: " << (ok ? "OK" : "FAIL") << " (achieved "
                      << achieved_qps << " req/s, bound " << options.min_qps
                      << " req/s)\n";
            slo_failed = slo_failed || !ok;
        }
        if (slo_failed) {
            std::cerr << "liquidd_loadgen: SLO breach\n";
            return 1;
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "liquidd_loadgen: " << e.what() << "\n";
        return 1;
    }
}
