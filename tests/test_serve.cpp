// Tests for the serve subsystem: liquidd.rpc.v1 parsing and rendering,
// router method dispatch and error mapping, the CLI-parity contract
// (served evals bit-identical to the one-shot paths), deadline and
// admission-control semantics, the instance cache, graceful drain,
// per-connection ordering and cross-connection concurrency over a real
// Unix socket, the SignalDrain helper, and the subcommand dispatch the
// serve CLI hangs off.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "ld/cli/runner.hpp"
#include "ld/cli/specs.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/model/instance.hpp"
#include "ld/serve/server.hpp"
#include "malformed_specs.hpp"
#include "prob/convolve.hpp"
#include "read_deadline.hpp"
#include "support/build_info.hpp"
#include "support/cpu_features.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/net.hpp"
#include "support/signal_drain.hpp"
#include "support/thread_pool.hpp"

namespace {

namespace serve = ld::serve;
namespace net = ld::support::net;
namespace json = ld::support::json;
using serve::ErrorCode;
using serve::Request;

constexpr const char* kGraph = "complete";
constexpr const char* kCompetencies = "uniform:0.3,0.7";
constexpr const char* kMechanism = "threshold:1";
constexpr std::size_t kN = 40;
constexpr double kAlpha = 0.05;
constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kReps = 30;

Request make_request(const std::string& method, json::Object params) {
    Request request;
    request.id = json::Value(1.0);
    request.method = method;
    request.params = json::Value(std::move(params));
    request.admitted_at = std::chrono::steady_clock::now();
    return request;
}

json::Object eval_params() {
    json::Object params;
    params.emplace("mechanism", json::Value(std::string(kMechanism)));
    params.emplace("graph", json::Value(std::string(kGraph)));
    params.emplace("competencies", json::Value(std::string(kCompetencies)));
    params.emplace("n", json::Value(static_cast<double>(kN)));
    params.emplace("alpha", json::Value(kAlpha));
    params.emplace("seed", json::Value(static_cast<double>(kSeed)));
    params.emplace("replications", json::Value(static_cast<double>(kReps)));
    params.emplace("threads", json::Value(1.0));
    return params;
}

json::Value call(serve::Router& router, const std::string& method,
                 json::Object params) {
    return json::parse(router.handle(make_request(method, std::move(params))));
}

/// The one-shot CLI path, verbatim: one RNG seeds the graph, then the
/// competencies, then the replications.
ld::election::GainReport direct_inline_eval() {
    ld::rng::Rng rng(kSeed);
    auto graph = ld::cli::make_graph(kGraph, kN, rng);
    auto competencies =
        ld::cli::make_competencies(kCompetencies, graph.vertex_count(), rng);
    const ld::model::Instance instance(std::move(graph), std::move(competencies),
                                       kAlpha);
    const auto mechanism = ld::cli::make_mechanism(kMechanism);
    ld::election::EvalOptions eval;
    eval.replications = kReps;
    eval.threads = 1;
    return ld::election::estimate_gain(*mechanism, instance, rng, eval);
}

// Protocol ----------------------------------------------------------------

TEST(ServeProtocol, ParsesFullRequest) {
    const auto now = std::chrono::steady_clock::now();
    const Request request = serve::parse_request(
        R"({"id": "a7", "method": "eval", "params": {"n": 3}, "deadline_ms": 250})",
        now);
    EXPECT_EQ(request.id.as_string(), "a7");
    EXPECT_EQ(request.method, "eval");
    EXPECT_EQ(request.params.at("n").as_number(), 3.0);
    ASSERT_TRUE(request.deadline.has_value());
    EXPECT_EQ(*request.deadline, now + std::chrono::milliseconds(250));
    EXPECT_FALSE(request.expired(now));
    EXPECT_TRUE(request.expired(now + std::chrono::milliseconds(251)));
}

TEST(ServeProtocol, RejectsMalformedRequests) {
    const auto now = std::chrono::steady_clock::now();
    const auto expect_bad = [&](const std::string& line) {
        try {
            serve::parse_request(line, now);
            FAIL() << "expected ProtocolError for: " << line;
        } catch (const serve::ProtocolError& e) {
            EXPECT_EQ(e.code(), ErrorCode::BadRequest) << line;
        }
    };
    expect_bad("not json at all");
    expect_bad(R"([1, 2, 3])");
    expect_bad(R"({"id": 1})");                                  // no method
    expect_bad(R"({"id": 1, "method": ""})");                    // empty method
    expect_bad(R"({"id": true, "method": "health"})");           // bool id
    expect_bad(R"({"id": 1, "method": "health", "params": 4})"); // non-object params
    expect_bad(R"({"id": 1, "method": "health", "deadline_ms": -5})");
    expect_bad(R"({"id": 1, "method": "health", "deadline_ms": "soon"})");
}

TEST(ServeProtocol, IdOfLineIsBestEffort) {
    EXPECT_EQ(serve::id_of_line(R"({"id": 42, "method": false})").as_number(), 42.0);
    EXPECT_TRUE(serve::id_of_line("garbage").is_null());
}

// A lone surrogate in a request is malformed JSON: bad_request, null id.
TEST(ServeProtocol, LoneSurrogateIsMalformedJson) {
    const std::string line = R"({"id": "\ud800", "method": "health"})";
    EXPECT_THROW(serve::parse_request(line, std::chrono::steady_clock::now()),
                 serve::ProtocolError);
    EXPECT_TRUE(serve::id_of_line(line).is_null());
}

TEST(ServeProtocol, HandshakeNamesSchemaBuildAndMethods) {
    const json::Value handshake = json::parse(serve::render_handshake());
    EXPECT_EQ(handshake.at("schema").as_string(), serve::kSchema);
    EXPECT_EQ(handshake.at("build").at("git_describe").as_string(),
              ld::support::build_info().git_describe);
    const json::Array& methods = handshake.at("methods").as_array();
    std::vector<std::string> names;
    for (const auto& m : methods) names.push_back(m.as_string());
    EXPECT_NE(std::find(names.begin(), names.end(), "eval"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "shutdown"), names.end());
}

TEST(ServeProtocol, RenderedResponsesRoundTrip) {
    json::Object result;
    result.emplace("x", json::Value(1.5));
    const json::Value ok = json::parse(serve::render_result(json::Value(3.0), result));
    EXPECT_TRUE(ok.at("ok").as_bool());
    EXPECT_EQ(ok.at("id").as_number(), 3.0);
    EXPECT_EQ(ok.at("result").at("x").as_number(), 1.5);

    const json::Value err = json::parse(
        serve::render_error(json::Value(std::string("q")), ErrorCode::Overloaded, "full"));
    EXPECT_FALSE(err.at("ok").as_bool());
    EXPECT_EQ(err.at("error").at("code").as_string(), "overloaded");
    EXPECT_EQ(err.at("error").at("message").as_string(), "full");
}

// Router ------------------------------------------------------------------

TEST(ServeRouter, UnknownMethodAndValidation) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);

    EXPECT_EQ(call(router, "nope", {}).at("error").at("code").as_string(),
              "unknown_method");

    json::Object no_mechanism;
    no_mechanism.emplace("graph", json::Value(std::string(kGraph)));
    EXPECT_EQ(call(router, "eval", std::move(no_mechanism))
                  .at("error")
                  .at("code")
                  .as_string(),
              "bad_request");

    auto zero_reps = eval_params();
    zero_reps.erase("replications");
    zero_reps.emplace("replications", json::Value(0.0));
    EXPECT_EQ(call(router, "eval", std::move(zero_reps))
                  .at("error")
                  .at("code")
                  .as_string(),
              "bad_request");

    // Cycle-capable mechanisms need an explicit discard_cycles, exactly
    // like the CLI's --discard-cycles requirement.
    auto noisy = eval_params();
    noisy.erase("mechanism");
    noisy.emplace("mechanism", json::Value(std::string("noisy:1,0.2")));
    EXPECT_EQ(call(router, "eval", std::move(noisy)).at("error").at("code").as_string(),
              "bad_request");
}

json::Object with_param(json::Object params, const std::string& key, json::Value value) {
    params.erase(key);
    params.emplace(key, std::move(value));
    return params;
}

json::Object load_params() {
    json::Object load;
    load.emplace("graph", json::Value(std::string(kGraph)));
    load.emplace("competencies", json::Value(std::string(kCompetencies)));
    load.emplace("n", json::Value(static_cast<double>(kN)));
    load.emplace("alpha", json::Value(kAlpha));
    return load;
}

// A malformed spec is the client's error: bad_request, never internal,
// both inline in an eval and in instance.load.
TEST(ServeRouter, MalformedSpecsAreBadRequests) {
    using ld::test::SpecKind;
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    for (const auto& [kind, spec] : ld::test::kMalformedSpecs) {
        SCOPED_TRACE(spec);
        const std::string key = kind == SpecKind::Graph          ? "graph"
                                : kind == SpecKind::Competencies ? "competencies"
                                                                 : "mechanism";
        const json::Value value(std::string{spec});
        const json::Value eval = call(router, "eval", with_param(eval_params(), key, value));
        EXPECT_EQ(eval.at("error").at("code").as_string(), "bad_request") << json::dump(eval);
        if (kind == SpecKind::Mechanism) continue;
        const json::Value load =
            call(router, "instance.load", with_param(load_params(), key, value));
        EXPECT_EQ(load.at("error").at("code").as_string(), "bad_request") << json::dump(load);
    }
    // An approval margin that is not > 0 is refused the same way.
    for (const double alpha : {0.0, -1.0}) {
        const json::Value a(alpha);
        EXPECT_EQ(call(router, "eval", with_param(eval_params(), "alpha", a))
                      .at("error")
                      .at("code")
                      .as_string(),
                  "bad_request");
        EXPECT_EQ(call(router, "instance.load", with_param(load_params(), "alpha", a))
                      .at("error")
                      .at("code")
                      .as_string(),
                  "bad_request");
    }
    EXPECT_EQ(cache.size(), 0u);
}

// The server reads no path a client names: a `file:` graph is refused
// before it is opened, though the file holds a valid edge list.
TEST(ServeRouter, FileGraphsAreRefusedUnopened) {
    const std::string path = ::testing::TempDir() + "serve_file_graph.txt";
    {
        std::ofstream out(path);
        out << "3 2\n0 1\n1 2\n";
    }
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    for (const std::string& spec : {"file:" + path, "file:" + path + ".missing"}) {
        const json::Value value(spec);
        for (const json::Value& response :
             {call(router, "eval", with_param(eval_params(), "graph", value)),
              call(router, "instance.load", with_param(load_params(), "graph", value))}) {
            EXPECT_EQ(response.at("error").at("code").as_string(), "bad_request");
            const std::string message = response.at("error").at("message").as_string();
            EXPECT_NE(message.find("not served"), std::string::npos) << message;
            EXPECT_EQ(message.find("cannot open"), std::string::npos) << message;
        }
    }
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ServeRouter, EvalRangeChecksInnerSamples) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    // Multi-delegation P^M needs sampled inner votes: 0 is the client's
    // error, named as such, not an internal one.
    const auto multi = with_param(eval_params(), "mechanism",
                                  json::Value(std::string("multi:3,1")));
    const json::Value rejected = call(
        router, "eval", with_param(multi, "inner_samples", json::Value(0.0)));
    EXPECT_EQ(rejected.at("error").at("code").as_string(), "bad_request");
    EXPECT_NE(rejected.at("error").at("message").as_string().find("inner_samples"),
              std::string::npos);
    EXPECT_TRUE(call(router, "eval", with_param(multi, "inner_samples", json::Value(1.0)))
                    .at("ok")
                    .as_bool());
    // Other mechanisms never sample inner votes and keep accepting 0.
    EXPECT_TRUE(
        call(router, "eval", with_param(eval_params(), "inner_samples", json::Value(0.0)))
            .at("ok")
            .as_bool());
}

TEST(ServeRouter, EvalCapsRequestThreads) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    const json::Value rejected =
        call(router, "eval", with_param(eval_params(), "threads", json::Value(1025.0)));
    EXPECT_EQ(rejected.at("error").at("code").as_string(), "bad_request");
    EXPECT_NE(rejected.at("error").at("message").as_string().find("threads"),
              std::string::npos);
    const json::Value at_cap =
        call(router, "eval", with_param(eval_params(), "threads", json::Value(1024.0)));
    ASSERT_TRUE(at_cap.at("ok").as_bool()) << json::dump(at_cap);
    EXPECT_EQ(at_cap.at("result").at("threads").as_number(), 1024.0);

    // The server's own default is not capped; only a client's value is.
    serve::RouterConfig config;
    config.eval_threads = 2000;
    serve::Router wide(config, cache);
    auto defaulted = eval_params();
    defaulted.erase("threads");
    const json::Value response = call(wide, "eval", std::move(defaulted));
    ASSERT_TRUE(response.at("ok").as_bool()) << json::dump(response);
    EXPECT_EQ(response.at("result").at("threads").as_number(), 2000.0);
}

TEST(ServeRouter, InstanceLoadInfoAndCacheHits) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);

    json::Object load;
    load.emplace("graph", json::Value(std::string(kGraph)));
    load.emplace("competencies", json::Value(std::string(kCompetencies)));
    load.emplace("n", json::Value(static_cast<double>(kN)));
    load.emplace("alpha", json::Value(kAlpha));
    load.emplace("seed", json::Value(static_cast<double>(kSeed)));

    const json::Value first = call(router, "instance.load", load);
    ASSERT_TRUE(first.at("ok").as_bool()) << json::dump(first);
    EXPECT_FALSE(first.at("result").at("cached").as_bool());
    const std::string fingerprint = first.at("result").at("instance").as_string();
    EXPECT_EQ(fingerprint,
              serve::InstanceCache::fingerprint(kGraph, kCompetencies, kN, kAlpha, kSeed));

    const json::Value second = call(router, "instance.load", load);
    EXPECT_TRUE(second.at("result").at("cached").as_bool());
    EXPECT_EQ(second.at("result").at("instance").as_string(), fingerprint);
    EXPECT_EQ(cache.size(), 1u);

    json::Object info;
    info.emplace("instance", json::Value(fingerprint));
    const json::Value described = call(router, "instance.info", info);
    EXPECT_EQ(described.at("result").at("n").as_number(), static_cast<double>(kN));
    EXPECT_EQ(described.at("result").at("graph").as_string(), kGraph);

    json::Object missing;
    missing.emplace("instance", json::Value(std::string("0xdead")));
    EXPECT_EQ(call(router, "instance.info", std::move(missing))
                  .at("error")
                  .at("code")
                  .as_string(),
              "not_found");
    EXPECT_EQ(call(router, "eval", [&] {
                  auto params = eval_params();
                  params.erase("graph");
                  params.erase("competencies");
                  params.erase("n");
                  params.erase("alpha");
                  params.emplace("instance", json::Value(std::string("0xdead")));
                  return params;
              }())
                  .at("error")
                  .at("code")
                  .as_string(),
              "not_found");
}

TEST(ServeRouter, InlineEvalIsBitIdenticalToCliPath) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    const auto expected = direct_inline_eval();

    const json::Value response = call(router, "eval", eval_params());
    ASSERT_TRUE(response.at("ok").as_bool()) << json::dump(response);
    const json::Value& result = response.at("result");
    EXPECT_EQ(result.at("pd").as_number(), expected.pd);
    EXPECT_EQ(result.at("pm").as_number(), expected.pm.value);
    EXPECT_EQ(result.at("pm_stderr").as_number(), expected.pm.std_error);
    EXPECT_EQ(result.at("gain").as_number(), expected.gain);
    EXPECT_EQ(result.at("gain_ci_lo").as_number(), expected.gain_ci.lo);
    EXPECT_EQ(result.at("gain_ci_hi").as_number(), expected.gain_ci.hi);
    EXPECT_EQ(result.at("threads").as_number(), 1.0);

    // And again: a served instance is stateless across requests.
    const json::Value repeat = call(router, "eval", eval_params());
    EXPECT_EQ(repeat.at("result").at("pm").as_number(), expected.pm.value);
}

TEST(ServeRouter, CachedEvalMatchesLoadInstancePath) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);

    // The CLI --load-instance contract: a fresh RNG at `seed` drives only
    // the replications over the already-realized instance.
    bool was_hit = false;
    const auto entry = cache.load(kGraph, kCompetencies, kN, kAlpha, kSeed, &was_hit);
    ld::rng::Rng rng(kSeed);
    const auto mechanism = ld::cli::make_mechanism(kMechanism);
    ld::election::EvalOptions eval;
    eval.replications = kReps;
    eval.threads = 1;
    const auto expected =
        ld::election::estimate_gain(*mechanism, entry->instance, rng, eval);

    auto params = eval_params();
    params.erase("graph");
    params.erase("competencies");
    params.erase("n");
    params.erase("alpha");
    params.emplace("instance", json::Value(entry->fingerprint));
    const json::Value response = call(router, "eval", std::move(params));
    ASSERT_TRUE(response.at("ok").as_bool()) << json::dump(response);
    EXPECT_EQ(response.at("result").at("pm").as_number(), expected.pm.value);
    EXPECT_EQ(response.at("result").at("gain").as_number(), expected.gain);
    EXPECT_EQ(response.at("result").at("instance").as_string(), entry->fingerprint);
}

TEST(ServeRouter, ExpiredDeadlineIsRejectedBeforeExecution) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    Request request = make_request("health", {});
    request.deadline = request.admitted_at - std::chrono::milliseconds(1);
    const json::Value response = json::parse(router.handle(request));
    EXPECT_FALSE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("error").at("code").as_string(), "deadline_exceeded");
}

TEST(ServeRouter, HealthReportsStatusBlock) {
    serve::InstanceCache cache;
    serve::ServeStatus status;
    status.queue_depth.store(3);
    status.connections.store(2);
    serve::Router router({}, cache, &status);
    const json::Value response = call(router, "health", {});
    EXPECT_EQ(response.at("result").at("status").as_string(), "ok");
    EXPECT_EQ(response.at("result").at("queue_depth").as_number(), 3.0);
    EXPECT_EQ(response.at("result").at("connections").as_number(), 2.0);

    status.draining.store(true);
    EXPECT_EQ(call(router, "health", {}).at("result").at("status").as_string(),
              "draining");
}

TEST(ServeRouter, MetricsMethodEmbedsBuildInfo) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    const json::Value response = call(router, "metrics", {});
    ASSERT_TRUE(response.at("ok").as_bool());
    const json::Value& report = response.at("result").at("report");
    EXPECT_EQ(report.at("schema").as_string(), "liquidd.metrics.v1");
    EXPECT_EQ(report.at("build").at("git_describe").as_string(),
              ld::support::build_info().git_describe);
}

// Server (no sockets) -----------------------------------------------------

TEST(ServeServer, HandleLineMapsParseErrors) {
    serve::Server server(serve::ServerConfig{});
    const json::Value response = json::parse(server.handle_line("{{{"));
    EXPECT_FALSE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("error").at("code").as_string(), "bad_request");
    EXPECT_TRUE(response.at("id").is_null());
}

TEST(ServeServer, ZeroCapacityRejectsEveryEvalButAnswersControlPlane) {
    serve::ServerConfig config;
    config.queue_capacity = 0;
    serve::Server server(std::move(config));

    const json::Value rejected = json::parse(server.handle_line(
        R"({"id": 1, "method": "eval", "params": {"mechanism": "direct"}})"));
    EXPECT_EQ(rejected.at("error").at("code").as_string(), "overloaded");

    const json::Value health =
        json::parse(server.handle_line(R"({"id": 2, "method": "health"})"));
    EXPECT_TRUE(health.at("ok").as_bool());
}

TEST(ServeServer, ShutdownRpcDrainsAndRejectsNewEvals) {
    serve::Server server(serve::ServerConfig{});
    const json::Value ack =
        json::parse(server.handle_line(R"({"id": 1, "method": "shutdown"})"));
    ASSERT_TRUE(ack.at("ok").as_bool());
    EXPECT_TRUE(server.draining());

    const json::Value rejected = json::parse(server.handle_line(
        R"({"id": 2, "method": "eval", "params": {"mechanism": "direct"}})"));
    EXPECT_EQ(rejected.at("error").at("code").as_string(), "shutting_down");
    EXPECT_EQ(server.wait(), 0);
}

// Server (Unix socket end to end) -----------------------------------------

std::string socket_path(const std::string& tag) {
    // sun_path is ~108 bytes; keep it short and unique per test.
    return ::testing::TempDir() + "/ld_" + tag + ".sock";
}

TEST(NetListener, RefusesToClobberALiveUnixSocket) {
    const std::string path = socket_path("live");
    net::Listener first = net::Listener::unix_domain(path);
    // Something answers at `path`: a second bind must fail loudly
    // instead of silently unlinking the live server's socket.
    EXPECT_THROW(net::Listener::unix_domain(path), net::NetError);
    // ... and the live listener still works afterwards.
    net::Socket probe = net::connect_unix(path);
    EXPECT_TRUE(probe.valid());
}

TEST(NetListener, ReplacesAStaleUnixSocketButNotARegularFile) {
    // A socket file nobody listens on (crashed run): bind adopts the path.
    const std::string stale = socket_path("stale");
    {
        // Simulate the crash with a raw bind that leaves the file behind.
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        ASSERT_LT(stale.size(), sizeof(address.sun_path));
        std::memcpy(address.sun_path, stale.c_str(), stale.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof address), 0);
        ::close(fd);

        net::Listener revived = net::Listener::unix_domain(stale);
        EXPECT_TRUE(revived.valid());
        net::Socket probe = net::connect_unix(stale);
        EXPECT_TRUE(probe.valid());
    }

    // A regular file at the path is never deleted.
    const std::string file = socket_path("notasock");
    { std::ofstream out(file); out << "precious"; }
    EXPECT_THROW(net::Listener::unix_domain(file), net::NetError);
    std::ifstream check(file);
    std::string contents;
    check >> contents;
    EXPECT_EQ(contents, "precious");
    ::unlink(file.c_str());
}

TEST(ServeServer, SocketSessionAndGracefulDrain) {
    serve::ServerConfig config;
    config.unix_socket = socket_path("session");
    serve::Server server(std::move(config));
    server.start();

    net::Socket client = net::connect_unix(server.config().unix_socket);
    net::LineReader reader(client);
    std::string line;
    ASSERT_TRUE(reader.read_line(line));  // server speaks first
    EXPECT_EQ(json::parse(line).at("schema").as_string(), serve::kSchema);

    json::Object load;
    load.emplace("graph", json::Value(std::string(kGraph)));
    load.emplace("competencies", json::Value(std::string(kCompetencies)));
    load.emplace("n", json::Value(static_cast<double>(kN)));
    load.emplace("alpha", json::Value(kAlpha));
    load.emplace("seed", json::Value(static_cast<double>(kSeed)));
    json::Object request;
    request.emplace("id", json::Value(1.0));
    request.emplace("method", json::Value(std::string("instance.load")));
    request.emplace("params", json::Value(std::move(load)));
    net::write_line(client, json::dump(json::Value(std::move(request))));
    ASSERT_TRUE(reader.read_line(line));
    const json::Value loaded = json::parse(line);
    ASSERT_TRUE(loaded.at("ok").as_bool()) << line;
    const std::string fingerprint = loaded.at("result").at("instance").as_string();

    // A served eval over the socket matches the in-process evaluation.
    bool was_hit = false;
    serve::InstanceCache reference_cache;
    const auto entry =
        reference_cache.load(kGraph, kCompetencies, kN, kAlpha, kSeed, &was_hit);
    ld::rng::Rng rng(kSeed);
    const auto mechanism = ld::cli::make_mechanism(kMechanism);
    ld::election::EvalOptions eval_options;
    eval_options.replications = kReps;
    eval_options.threads = 1;
    const auto expected =
        ld::election::estimate_gain(*mechanism, entry->instance, rng, eval_options);

    json::Object eval;
    eval.emplace("mechanism", json::Value(std::string(kMechanism)));
    eval.emplace("instance", json::Value(fingerprint));
    eval.emplace("seed", json::Value(static_cast<double>(kSeed)));
    eval.emplace("replications", json::Value(static_cast<double>(kReps)));
    eval.emplace("threads", json::Value(1.0));
    json::Object eval_request;
    eval_request.emplace("id", json::Value(2.0));
    eval_request.emplace("method", json::Value(std::string("eval")));
    eval_request.emplace("params", json::Value(std::move(eval)));
    net::write_line(client, json::dump(json::Value(std::move(eval_request))));
    ASSERT_TRUE(reader.read_line(line));
    const json::Value evaluated = json::parse(line);
    ASSERT_TRUE(evaluated.at("ok").as_bool()) << line;
    EXPECT_EQ(evaluated.at("result").at("pm").as_number(), expected.pm.value);
    EXPECT_EQ(evaluated.at("result").at("gain").as_number(), expected.gain);

    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
    EXPECT_FALSE(reader.read_line(line));  // connection torn down

    // The listener is gone: a fresh connect must fail.
    EXPECT_THROW(net::connect_unix(server.config().unix_socket), net::NetError);
}

// Sends `bad_line` on one connection to the server at `path`, expects a
// bad_request with a null id, then expects a health request on the same
// connection to be answered.  Reads give up after a deadline (NetError).
void exchange_bad_request_then_health(const std::string& path,
                                      const std::string& bad_line) {
    net::Socket client = net::connect_unix(path);
    ASSERT_TRUE(ld::test::set_read_deadline(client));
    net::LineReader reader(client);
    std::string line;
    ASSERT_TRUE(reader.read_line(line));  // handshake

    net::write_line(client, bad_line);
    ASSERT_TRUE(reader.read_line(line));
    const json::Value rejected = json::parse(line);
    EXPECT_FALSE(rejected.at("ok").as_bool());
    EXPECT_EQ(rejected.at("error").at("code").as_string(), "bad_request");
    EXPECT_TRUE(rejected.at("id").is_null()) << line;

    net::write_line(client, R"({"id": 2, "method": "health"})");
    ASSERT_TRUE(reader.read_line(line));
    const json::Value health = json::parse(line);
    EXPECT_TRUE(health.at("ok").as_bool()) << line;
    EXPECT_EQ(health.at("id").as_number(), 2.0);
}

// The exchange above against a live server, which must then drain.  A
// server that stops answering fails the test at the read deadline and is
// left undrained: its drain would wait on the same stuck event loop.
void expect_bad_request_then_health(const std::string& name,
                                    const std::string& bad_line) {
    serve::ServerConfig config;
    config.unix_socket = socket_path(name);
    auto server = std::make_unique<serve::Server>(std::move(config));
    server->start();
    try {
        exchange_bad_request_then_health(server->config().unix_socket, bad_line);
    } catch (const net::NetError& error) {
        static_cast<void>(server.release());
        FAIL() << "no answer within the read deadline: " << error.what();
    }
    server->request_drain();
    EXPECT_EQ(server->wait(), 0);
}

TEST(ServeServer, DeeplyNestedLineIsABadRequestAndTheServerStaysUp) {
    // 10⁶ nested arrays once overflowed the parser's stack.
    expect_bad_request_then_health("deep", std::string(1000000, '['));
}

TEST(ServeServer, OverflowingNumberIsABadRequestAndTheServerStaysUp) {
    // The id once parsed to inf, which the response could not render: the
    // event loop died and the server answered nothing after it.
    expect_bad_request_then_health("overflow", R"({"id":1e400,"method":"health"})");
}

TEST(ServeServer, ReapsDisconnectedClientsUnderChurn) {
    serve::ServerConfig config;
    config.unix_socket = socket_path("churn");
    serve::Server server(std::move(config));
    server.start();

    // Connect/handshake/close repeatedly: every reader thread must reap
    // itself and release its connection — a server that retained them
    // until drain would leak one fd + one thread per iteration.
    for (int i = 0; i < 25; ++i) {
        net::Socket client = net::connect_unix(server.config().unix_socket);
        net::LineReader reader(client);
        std::string line;
        ASSERT_TRUE(reader.read_line(line));  // handshake
        client.close();
    }

    // `health` reports the live-connection gauge; poll until every
    // disconnected client has been reaped.
    double connections = -1.0;
    for (int spin = 0; spin < 200; ++spin) {
        const json::Value health =
            json::parse(server.handle_line(R"({"id": 1, "method": "health"})"));
        connections = health.at("result").at("connections").as_number();
        if (connections == 0.0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(connections, 0.0);

    // The server is still healthy: a fresh client gets a handshake.
    net::Socket again = net::connect_unix(server.config().unix_socket);
    net::LineReader reader(again);
    std::string line;
    EXPECT_TRUE(reader.read_line(line));

    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
}

TEST(ServeServer, SlowReaderIsDroppedNotHeadOfLineBlocking) {
    serve::ServerConfig config;
    config.unix_socket = socket_path("slow");
    config.write_timeout = std::chrono::milliseconds(100);
    serve::Server server(std::move(config));
    server.start();

    // A client that never reads: once its socket buffer fills, bounded
    // writes must time out and drop it instead of wedging the server.
    net::Socket stalled = net::connect_unix(server.config().unix_socket);
    json::Object params;
    params.emplace("graph", json::Value(std::string(kGraph)));
    params.emplace("competencies", json::Value(std::string(kCompetencies)));
    params.emplace("n", json::Value(static_cast<double>(kN)));
    params.emplace("alpha", json::Value(kAlpha));
    params.emplace("seed", json::Value(static_cast<double>(kSeed)));
    json::Object request;
    request.emplace("id", json::Value(1.0));
    request.emplace("method", json::Value(std::string("instance.info")));
    request.emplace("params", json::Value(std::move(params)));
    const std::string line = json::dump(json::Value(std::move(request)));
    // Flood requests without ever reading a response: the responses
    // back up until the server's bounded write times out and the
    // server shuts this connection down (our writes then fail).
    try {
        for (int i = 0; i < 20'000; ++i) net::write_line(stalled, line);
    } catch (const net::NetError&) {
        // Server dropped us (RST on the shut-down socket) — expected.
    }

    // The server must still serve other clients and drain promptly;
    // with a wedged worker or reader this would hang, not pass.
    net::Socket healthy = net::connect_unix(server.config().unix_socket);
    net::LineReader reader(healthy);
    std::string response;
    EXPECT_TRUE(reader.read_line(response));  // handshake
    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
}

TEST(ServeServer, DrainUnderLoadAnswersEveryAcceptedRequest) {
    serve::ServerConfig config;
    config.unix_socket = socket_path("drain");
    serve::Server server(std::move(config));
    server.start();

    net::Socket client = net::connect_unix(server.config().unix_socket);
    net::LineReader reader(client);
    std::string line;
    ASSERT_TRUE(reader.read_line(line));  // handshake

    // Burst evals, then drain immediately: each request must be answered
    // exactly once — computed if it was admitted before the drain flag,
    // rejected with shutting_down if not.  Nothing may be dropped.
    constexpr int kBurst = 6;
    for (int i = 0; i < kBurst; ++i) {
        json::Object params;
        params.emplace("mechanism", json::Value(std::string(kMechanism)));
        params.emplace("graph", json::Value(std::string(kGraph)));
        params.emplace("competencies", json::Value(std::string(kCompetencies)));
        params.emplace("n", json::Value(30.0));
        params.emplace("alpha", json::Value(kAlpha));
        params.emplace("seed", json::Value(static_cast<double>(i + 1)));
        params.emplace("replications", json::Value(20.0));
        params.emplace("threads", json::Value(1.0));
        json::Object request;
        request.emplace("id", json::Value(static_cast<double>(i + 1)));
        request.emplace("method", json::Value(std::string("eval")));
        request.emplace("params", json::Value(std::move(params)));
        net::write_line(client, json::dump(json::Value(std::move(request))));
    }
    server.request_drain();

    int answered = 0;
    int ok = 0;
    int shutting_down = 0;
    while (answered < kBurst && reader.read_line(line)) {
        const json::Value response = json::parse(line);
        ++answered;
        if (response.at("ok").as_bool()) {
            ++ok;
        } else {
            EXPECT_EQ(response.at("error").at("code").as_string(), "shutting_down")
                << line;
            ++shutting_down;
        }
    }
    EXPECT_EQ(answered, kBurst);
    EXPECT_EQ(ok + shutting_down, kBurst);
    EXPECT_EQ(server.wait(), 0);
}

std::string request_line(double id, const std::string& method, json::Object params) {
    json::Object request;
    request.emplace("id", json::Value(id));
    request.emplace("method", json::Value(method));
    request.emplace("params", json::Value(std::move(params)));
    return json::dump(json::Value(std::move(request)));
}

/// One client session on its own live instance (dregular:8, n = 2000,
/// instance seed `seed`), as request lines: load → info → eval → five
/// patch/state pairs.  `methods[i]` is the method of request id i + 1.
std::string pipelined_session(std::uint64_t seed, std::vector<std::string>& methods) {
    constexpr std::size_t kLiveN = 2000;
    const std::string fingerprint = serve::InstanceCache::fingerprint(
        "dregular:8", kCompetencies, kLiveN, kAlpha, seed);
    const auto instance_params = [&] {
        json::Object params;
        params.emplace("instance", json::Value(fingerprint));
        return params;
    };
    std::string burst;
    const auto add = [&](const std::string& method, json::Object params) {
        methods.push_back(method);
        const double id = static_cast<double>(methods.size());
        burst += request_line(id, method, std::move(params)) + '\n';
    };
    json::Object load;
    load.emplace("graph", json::Value(std::string("dregular:8")));
    load.emplace("competencies", json::Value(std::string(kCompetencies)));
    load.emplace("n", json::Value(static_cast<double>(kLiveN)));
    load.emplace("alpha", json::Value(kAlpha));
    load.emplace("seed", json::Value(static_cast<double>(seed)));
    add("instance.load", std::move(load));
    add("instance.info", instance_params());
    json::Object eval = instance_params();
    eval.emplace("mechanism", json::Value(std::string(kMechanism)));
    eval.emplace("replications", json::Value(4.0));
    eval.emplace("threads", json::Value(1.0));
    add("eval", std::move(eval));
    for (int voter = 0; voter < 5; ++voter) {
        json::Object op;
        op.emplace("op", json::Value(std::string(voter % 2 ? "vote" : "abstain")));
        op.emplace("voter", json::Value(static_cast<double>(voter)));
        json::Object patch = instance_params();
        patch.emplace("ops", json::Value(json::Array{json::Value(std::move(op))}));
        add("instance.patch", std::move(patch));
        add("instance.state", instance_params());
    }
    return burst;
}

TEST(ServeServer, PipelinedRequestsRunInConnectionOrder) {
    serve::ServerConfig config;
    config.unix_socket = socket_path("ordered");
    serve::Server server(std::move(config));
    server.start();

    // Three clients, each pipelining a whole session in one write, so
    // the server reads every session in one pass and runs the three
    // concurrently.  An info or state answered ahead of the load or
    // patch before it would see not_found or a stale epoch.
    constexpr std::size_t kClients = 3;
    std::vector<net::Socket> clients;
    std::vector<net::LineReader> readers;
    std::vector<std::vector<std::string>> methods(kClients);
    clients.reserve(kClients);
    readers.reserve(kClients);
    std::string line;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.push_back(net::connect_unix(server.config().unix_socket));
        readers.emplace_back(clients.back());
        ASSERT_TRUE(readers.back().read_line(line));  // handshake
    }
    for (std::size_t c = 0; c < kClients; ++c) {
        clients[c].write_all(pipelined_session(kSeed + c, methods[c]));
    }

    for (std::size_t c = 0; c < kClients; ++c) {
        double patched_epoch = -1.0;
        for (std::size_t i = 0; i < methods[c].size(); ++i) {
            ASSERT_TRUE(readers[c].read_line(line));
            const json::Value response = json::parse(line);
            const std::string& method = methods[c][i];
            ASSERT_EQ(response.at("id").as_number(), static_cast<double>(i + 1))
                << "response to " << method << " out of order: " << line;
            ASSERT_TRUE(response.at("ok").as_bool()) << method << ": " << line;
            const json::Value& result = response.at("result");
            if (method == "instance.patch") {
                patched_epoch = result.at("epoch").as_number();
            } else if (method == "instance.state") {
                EXPECT_EQ(result.at("epoch").as_number(), patched_epoch) << line;
            }
        }
        EXPECT_EQ(patched_epoch, 5.0);
    }

    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
}

TEST(ServeServer, SlowEvalDoesNotBlockOtherConnections) {
    if (ld::support::ThreadPool::global().worker_count() < 2) {
        GTEST_SKIP() << "one worker serves every connection in turn";
    }
    serve::ServerConfig config;
    config.unix_socket = socket_path("lanes");
    serve::Server server(std::move(config));
    server.start();

    net::Socket slow = net::connect_unix(server.config().unix_socket);
    net::Socket quick = net::connect_unix(server.config().unix_socket);
    net::LineReader slow_reader(slow);
    net::LineReader quick_reader(quick);
    std::string line;
    ASSERT_TRUE(slow_reader.read_line(line));  // handshakes
    ASSERT_TRUE(quick_reader.read_line(line));

    // A: an inline eval of several hundred milliseconds on one thread.
    // Its connection's health answer proves the server took the eval
    // line before B's.
    json::Object slow_eval = eval_params();
    slow_eval["n"] = json::Value(400.0);
    slow_eval["replications"] = json::Value(20000.0);
    slow.write_all(request_line(1, "eval", std::move(slow_eval)) + '\n' +
                   request_line(2, "health", json::Object{}) + '\n');
    ASSERT_TRUE(slow_reader.read_line(line));
    ASSERT_EQ(json::parse(line).at("id").as_number(), 2.0) << line;

    // B: one replication.  It must come back while A still runs.
    json::Object quick_eval = eval_params();
    quick_eval["replications"] = json::Value(1.0);
    net::write_line(quick, request_line(3, "eval", std::move(quick_eval)));
    ASSERT_TRUE(quick_reader.read_line(line));
    EXPECT_TRUE(json::parse(line).at("ok").as_bool()) << line;
    pollfd pending{slow.fd(), POLLIN, 0};
    EXPECT_EQ(::poll(&pending, 1, 0), 0) << "A answered before B";

    ASSERT_TRUE(slow_reader.read_line(line));
    const json::Value slow_response = json::parse(line);
    EXPECT_EQ(slow_response.at("id").as_number(), 1.0);
    EXPECT_TRUE(slow_response.at("ok").as_bool()) << line;

    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
}

// SignalDrain -------------------------------------------------------------

TEST(SignalDrain, RaisedSignalSetsTheFlagAndWakePipe) {
    ld::support::SignalDrain::reset();
    {
        ld::support::SignalDrain drain;
        EXPECT_FALSE(ld::support::SignalDrain::requested());
        ASSERT_EQ(std::raise(SIGTERM), 0);  // handled, not fatal
        EXPECT_TRUE(ld::support::SignalDrain::requested());
        char byte = 0;
        EXPECT_EQ(::read(ld::support::SignalDrain::wake_fd(), &byte, 1), 1);
    }
    ld::support::SignalDrain::reset();
}

TEST(SignalDrain, TriggerDrainsAServingServer) {
    ld::support::SignalDrain::reset();
    ld::support::SignalDrain drain;
    serve::ServerConfig config;
    config.unix_socket = socket_path("signal");
    config.drain_on_signal = true;
    serve::Server server(std::move(config));
    server.start();

    ld::support::SignalDrain::trigger();  // as if SIGTERM arrived
    EXPECT_EQ(server.wait(), 0);
    EXPECT_TRUE(server.draining());
    ld::support::SignalDrain::reset();
}

// CLI dispatch ------------------------------------------------------------

TEST(ServeCli, DispatchKnowsEverySubcommand) {
    std::ostringstream out;
    try {
        ld::cli::dispatch({"frobnicate"}, out);
        FAIL() << "expected SpecError";
    } catch (const ld::cli::SpecError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("run"), std::string::npos);
        EXPECT_NE(what.find("sweep"), std::string::npos);
        EXPECT_NE(what.find("serve"), std::string::npos);
    }
}

TEST(ServeCli, VersionPrintsBuildInfo) {
    std::ostringstream out;
    EXPECT_EQ(ld::cli::dispatch({"--version"}, out), 0);
    // Line 1: build identity.  Line 2: active tally-kernel tier, so a
    // version string alone attributes results to a lane width.
    EXPECT_EQ(out.str().find(ld::support::version_line() + "\n"), 0u);
    EXPECT_NE(out.str().find(ld::support::build_info().git_describe),
              std::string::npos);
    const std::string simd_line =
        std::string("simd: ") +
        ld::support::simd_tier_name(ld::prob::kernel_tier());
    EXPECT_NE(out.str().find(simd_line), std::string::npos);
}

TEST(ServeCli, ServeOptionsValidate) {
    EXPECT_THROW(ld::cli::parse_serve_options({}), ld::cli::SpecError);
    EXPECT_THROW(ld::cli::parse_serve_options({"--tcp", "70000"}), ld::cli::SpecError);
    const auto options = ld::cli::parse_serve_options(
        {"--socket", "/tmp/x.sock", "--tcp", "0", "--queue-capacity", "7",
         "--deadline-ms", "1500"});
    EXPECT_EQ(*options.unix_socket, "/tmp/x.sock");
    EXPECT_EQ(*options.tcp_port, 0u);
    EXPECT_EQ(options.queue_capacity, 7u);
    EXPECT_EQ(options.deadline_ms, 1500u);

    std::ostringstream out;
    EXPECT_EQ(ld::cli::run_serve(ld::cli::parse_serve_options({"--help"}), out), 0);
    EXPECT_NE(out.str().find("--queue-capacity"), std::string::npos);
}

}  // namespace
