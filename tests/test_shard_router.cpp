// Tests for the shard-routing front (`liquidd serve --route`): backend
// spec parsing, the FNV-affinity pick with forward-scan failover, the
// fingerprint routing key, and an end-to-end two-backend deployment —
// loads broadcast, evals route with affinity, a backend drain mid-run
// fails over to the survivor (warm, thanks to the broadcast), and the
// router itself drains cleanly.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ld/serve/instance_cache.hpp"
#include "ld/serve/protocol.hpp"
#include "ld/serve/server.hpp"
#include "ld/serve/shard_router.hpp"
#include "read_deadline.hpp"
#include "support/json.hpp"
#include "support/net.hpp"

namespace {

namespace serve = ld::serve;
namespace net = ld::support::net;
namespace json = ld::support::json;

std::string socket_path(const std::string& tag) {
    return ::testing::TempDir() + "/ld_rt_" + tag + ".sock";
}

// Units --------------------------------------------------------------------

TEST(ShardRouterUnits, ParseBackendSpecAcceptsAllFourShapes) {
    const serve::BackendSpec unix_spec = serve::parse_backend_spec("unix:/tmp/a.sock");
    EXPECT_EQ(unix_spec.unix_socket, "/tmp/a.sock");
    EXPECT_EQ(unix_spec.tcp_port, 0);
    EXPECT_EQ(unix_spec.display, "unix:/tmp/a.sock");

    const serve::BackendSpec tcp_spec = serve::parse_backend_spec("tcp:8123");
    EXPECT_EQ(tcp_spec.tcp_port, 8123);
    EXPECT_TRUE(tcp_spec.unix_socket.empty());
    EXPECT_EQ(tcp_spec.display, "tcp:8123");

    const serve::BackendSpec bare_port = serve::parse_backend_spec("9001");
    EXPECT_EQ(bare_port.tcp_port, 9001);

    const serve::BackendSpec bare_path = serve::parse_backend_spec("/run/b.sock");
    EXPECT_EQ(bare_path.unix_socket, "/run/b.sock");
}

TEST(ShardRouterUnits, ParseBackendSpecRejectsNonsense) {
    EXPECT_THROW(serve::parse_backend_spec(""), net::NetError);
    EXPECT_THROW(serve::parse_backend_spec("unix:"), net::NetError);
    EXPECT_THROW(serve::parse_backend_spec("tcp:"), net::NetError);
    EXPECT_THROW(serve::parse_backend_spec("tcp:zero"), net::NetError);
    EXPECT_THROW(serve::parse_backend_spec("tcp:0"), net::NetError);
    EXPECT_THROW(serve::parse_backend_spec("tcp:70000"), net::NetError);
    EXPECT_THROW(serve::parse_backend_spec("0"), net::NetError);
}

TEST(ShardRouterUnits, PickBackendIsStableAndFailsOverForward) {
    const std::vector<bool> all_up{true, true, true, true};
    const std::size_t home = serve::ShardRouter::pick_backend("key-a", all_up);
    ASSERT_LT(home, all_up.size());
    // Affinity: the same key lands on the same backend every time.
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(serve::ShardRouter::pick_backend("key-a", all_up), home);
    }

    // The home backend goes unroutable: the pick scans forward to the
    // next routable index (wrapping), so every other key keeps its home.
    std::vector<bool> degraded = all_up;
    degraded[home] = false;
    const std::size_t fallback = serve::ShardRouter::pick_backend("key-a", degraded);
    EXPECT_EQ(fallback, (home + 1) % all_up.size());

    // Recovery restores the original affinity.
    EXPECT_EQ(serve::ShardRouter::pick_backend("key-a", all_up), home);

    // Nothing routable: the sentinel (size) signals "give up".
    const std::vector<bool> none{false, false, false};
    EXPECT_EQ(serve::ShardRouter::pick_backend("key-a", none), none.size());
    EXPECT_EQ(serve::ShardRouter::pick_backend("key-a", {}), 0u);
}

TEST(ShardRouterUnits, KeysSpreadAcrossBackends) {
    // Not a distribution-quality test — just that FNV-1a does not
    // degenerate to one shard for realistic fingerprint-ish keys.
    const std::vector<bool> all_up{true, true, true, true};
    std::vector<std::size_t> hits(all_up.size(), 0);
    for (int i = 0; i < 64; ++i) {
        const std::string key = "0x" + std::to_string(1000003 * (i + 1));
        ++hits[serve::ShardRouter::pick_backend(key, all_up)];
    }
    for (const std::size_t count : hits) EXPECT_GT(count, 0u);
}

serve::Request make_request(const std::string& method, json::Value params) {
    serve::Request request;
    request.id = json::Value(1.0);
    request.method = method;
    request.params = std::move(params);
    request.admitted_at = std::chrono::steady_clock::now();
    return request;
}

TEST(ShardRouterUnits, RoutingKeyUsesTheInstanceFingerprint) {
    // A request that names an instance routes by that fingerprint.
    json::Object eval;
    eval.emplace("instance", json::Value(std::string("0xabc123")));
    eval.emplace("mechanism", json::Value(std::string("threshold:1")));
    EXPECT_EQ(serve::ShardRouter::routing_key_of(
                  make_request("eval", json::Value(std::move(eval)))),
              "0xabc123");

    // instance.load routes by the fingerprint its params imply — the
    // same key its evals will use, so they land on the same shard.
    json::Object load;
    load.emplace("graph", json::Value(std::string("complete")));
    load.emplace("competencies", json::Value(std::string("uniform:0.3,0.7")));
    load.emplace("n", json::Value(40.0));
    load.emplace("alpha", json::Value(0.05));
    load.emplace("seed", json::Value(7.0));
    const std::string key = serve::ShardRouter::routing_key_of(
        make_request("instance.load", json::Value(std::move(load))));
    EXPECT_EQ(key, serve::InstanceCache::fingerprint("complete", "uniform:0.3,0.7",
                                                     40, 0.05, 7));

    // Without a seed the default (1) applies, matching the backend.
    json::Object unseeded;
    unseeded.emplace("graph", json::Value(std::string("complete")));
    unseeded.emplace("competencies", json::Value(std::string("uniform:0.3,0.7")));
    unseeded.emplace("n", json::Value(40.0));
    unseeded.emplace("alpha", json::Value(0.05));
    EXPECT_EQ(serve::ShardRouter::routing_key_of(
                  make_request("instance.load", json::Value(std::move(unseeded)))),
              serve::InstanceCache::fingerprint("complete", "uniform:0.3,0.7", 40,
                                                0.05, 1));

    // Malformed load params still produce a stable (if arbitrary) key.
    json::Object broken;
    broken.emplace("graph", json::Value(std::string("complete")));
    const json::Value broken_params(std::move(broken));
    const serve::Request broken_request = make_request("instance.load", broken_params);
    EXPECT_EQ(serve::ShardRouter::routing_key_of(broken_request),
              json::dump(broken_params));
}

TEST(ShardRouterUnits, RoutingKeyFallsBackOnOutOfRangeCounts) {
    // n or seed that is no count (too large for any integer, negative,
    // fractional, past 2^53) is never cast: the load routes by its generic
    // key and the backend answers bad_request.
    for (const double bad : {1e300, -1.0, 2.5, 9007199254740994.0}) {
        for (const std::string field : {"n", "seed"}) {
            json::Object load;
            load.emplace("graph", json::Value(std::string("complete")));
            load.emplace("competencies", json::Value(std::string("uniform:0.3,0.7")));
            load.emplace("n", json::Value(field == "n" ? bad : 40.0));
            load.emplace("alpha", json::Value(0.05));
            load.emplace("seed", json::Value(field == "seed" ? bad : 7.0));
            const json::Value params(std::move(load));
            const serve::Request request = make_request("instance.load", params);
            EXPECT_EQ(serve::ShardRouter::routing_key_of(request), json::dump(params))
                << field << " = " << bad;
        }
    }
}

// End to end ---------------------------------------------------------------

class RouterClient {
public:
    /// With `read_deadline`, every read gives up after a deadline
    /// (ld::test::set_read_deadline).
    explicit RouterClient(const std::string& path, bool read_deadline = false)
        : socket_(net::connect_unix(path)), reader_(socket_) {
        if (read_deadline) {
            EXPECT_TRUE(ld::test::set_read_deadline(socket_));
        }
        std::string line;
        EXPECT_TRUE(reader_.read_line(line));  // handshake
        EXPECT_EQ(json::parse(line).at("schema").as_string(), serve::kSchema);
    }

    json::Value call(const std::string& body) {
        net::write_line(socket_, body);
        std::string line;
        EXPECT_TRUE(reader_.read_line(line)) << "no response to: " << body;
        return json::parse(line);
    }

private:
    net::Socket socket_;
    net::LineReader reader_;
};

std::string eval_body(int id, const std::string& fingerprint, int seed) {
    return "{\"id\": " + std::to_string(id) +
           ", \"method\": \"eval\", \"params\": {\"mechanism\": \"threshold:1\", "
           "\"instance\": \"" + fingerprint + "\", \"seed\": " +
           std::to_string(seed) + ", \"replications\": 20, \"threads\": 1}}";
}

TEST(ShardRouterEndToEnd, RoutesEvalsAndFailsOverWhenABackendDrains) {
    serve::ServerConfig backend_a_config;
    backend_a_config.unix_socket = socket_path("be_a");
    serve::Server backend_a(std::move(backend_a_config));
    backend_a.start();

    serve::ServerConfig backend_b_config;
    backend_b_config.unix_socket = socket_path("be_b");
    serve::Server backend_b(std::move(backend_b_config));
    backend_b.start();

    serve::ShardRouterConfig router_config;
    router_config.unix_socket = socket_path("router");
    router_config.backends = {serve::parse_backend_spec(backend_a.config().unix_socket),
                              serve::parse_backend_spec(backend_b.config().unix_socket)};
    router_config.health_interval = std::chrono::milliseconds(50);
    serve::ShardRouter router(std::move(router_config));
    router.start();

    RouterClient client(socket_path("router"));

    // Router health: both backends connected.
    json::Value health = client.call(R"({"id": 1, "method": "health"})");
    ASSERT_TRUE(health.at("ok").as_bool());
    EXPECT_TRUE(health.at("result").at("router").as_bool());
    {
        const json::Array& reports = health.at("result").at("backends").as_array();
        ASSERT_EQ(reports.size(), 2u);
        EXPECT_TRUE(reports[0].at("connected").as_bool());
        EXPECT_TRUE(reports[1].at("connected").as_bool());
    }

    // Load once through the router (broadcast warms both backends).
    const json::Value loaded = client.call(
        R"({"id": 2, "method": "instance.load", "params": {"graph": "complete",)"
        R"( "competencies": "uniform:0.3,0.7", "n": 40, "alpha": 0.05, "seed": 7}})");
    ASSERT_TRUE(loaded.at("ok").as_bool()) << json::dump(loaded);
    const std::string fingerprint = loaded.at("result").at("instance").as_string();

    // Evals through the router succeed, and identical requests give
    // identical gains (same backend by affinity, same seeded RNG).
    const json::Value first = client.call(eval_body(3, fingerprint, 101));
    ASSERT_TRUE(first.at("ok").as_bool()) << json::dump(first);
    const double gain = first.at("result").at("gain").as_number();
    const json::Value repeat = client.call(eval_body(4, fingerprint, 101));
    ASSERT_TRUE(repeat.at("ok").as_bool());
    EXPECT_EQ(repeat.at("result").at("gain").as_number(), gain);

    // Drain the instance's home backend.  Which of the two that is
    // depends on the fingerprint hash, so evict whichever answers: both
    // are warm (the load was broadcast), so post-drain evals must keep
    // succeeding on the survivor — that is the failover contract.
    backend_a.request_drain();
    EXPECT_EQ(backend_a.wait(), 0);

    // The router notices via reader EOF / health probes; poll until its
    // health report shows exactly one connected backend.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int next_id = 10;
    while (true) {
        health = client.call("{\"id\": " + std::to_string(next_id++) +
                             ", \"method\": \"health\"}");
        const json::Array& reports = health.at("result").at("backends").as_array();
        int connected = 0;
        for (const json::Value& report : reports) {
            if (report.at("connected").as_bool()) ++connected;
        }
        if (connected == 1) break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    for (int i = 0; i < 4; ++i) {
        const json::Value survived =
            client.call(eval_body(100 + i, fingerprint, 202 + i));
        ASSERT_TRUE(survived.at("ok").as_bool()) << json::dump(survived);
    }
    // Deterministic replay on the survivor too.
    const json::Value again = client.call(eval_body(200, fingerprint, 101));
    ASSERT_TRUE(again.at("ok").as_bool());
    EXPECT_EQ(again.at("result").at("gain").as_number(), gain);

    // Clean router drain; the surviving backend drains after it.
    router.request_drain();
    EXPECT_EQ(router.wait(), 0);
    backend_b.request_drain();
    EXPECT_EQ(backend_b.wait(), 0);
}

// The front parses every line for its routing key and re-renders it.
// Sends `bad_line` through a router front, expects bad_request, then
// expects a health request on the same connection to be answered.  A front
// that stops answering fails the test at the client's read deadline and is
// left undrained: its drain would wait on the same stuck event loop.
void expect_front_bad_request_then_health(const std::string& name,
                                          const std::string& bad_line) {
    serve::ShardRouterConfig config;
    config.unix_socket = socket_path(name);
    config.backends = {serve::parse_backend_spec(socket_path(name + "_ghost"))};
    config.health_interval = std::chrono::milliseconds(100);
    auto router = std::make_unique<serve::ShardRouter>(std::move(config));
    router->start();

    try {
        RouterClient client(socket_path(name), /*read_deadline=*/true);
        const json::Value rejected = client.call(bad_line);
        ASSERT_FALSE(rejected.at("ok").as_bool());
        EXPECT_EQ(rejected.at("error").at("code").as_string(), "bad_request");
        const json::Value health = client.call(R"({"id": 2, "method": "health"})");
        EXPECT_TRUE(health.at("ok").as_bool());
    } catch (const net::NetError& error) {
        static_cast<void>(router.release());
        FAIL() << "no answer within the read deadline: " << error.what();
    }
    router->request_drain();
    EXPECT_EQ(router->wait(), 0);
}

TEST(ShardRouterEndToEnd, DeeplyNestedLineIsABadRequestAndTheFrontStaysUp) {
    // 10⁶ nested arrays once overflowed the front parser's stack.
    expect_front_bad_request_then_health("deep", std::string(1000000, '['));
}

TEST(ShardRouterEndToEnd, OverflowingNumberIsABadRequestAndTheFrontStaysUp) {
    // An id of 1e400 once parsed to inf, which no response can render.
    expect_front_bad_request_then_health("overflow", R"({"id":1e400,"method":"health"})");
}

TEST(ShardRouterEndToEnd, NoRoutableBackendRejectsWithOverloaded) {
    serve::ShardRouterConfig config;
    config.unix_socket = socket_path("lonely");
    // Nothing listens here; the router must degrade, not crash.
    config.backends = {serve::parse_backend_spec(socket_path("ghost"))};
    config.health_interval = std::chrono::milliseconds(100);
    serve::ShardRouter router(std::move(config));
    router.start();

    RouterClient client(socket_path("lonely"));
    const json::Value health = client.call(R"({"id": 1, "method": "health"})");
    ASSERT_TRUE(health.at("ok").as_bool());
    EXPECT_FALSE(
        health.at("result").at("backends").as_array()[0].at("connected").as_bool());

    const json::Value rejected = client.call(eval_body(2, "0xdeadbeef", 1));
    ASSERT_FALSE(rejected.at("ok").as_bool());
    EXPECT_EQ(rejected.at("error").at("code").as_string(), "overloaded");

    // Shutdown over RPC drains the router.
    const json::Value ack = client.call(R"({"id": 3, "method": "shutdown"})");
    ASSERT_TRUE(ack.at("ok").as_bool());
    EXPECT_EQ(router.wait(), 0);
}

}  // namespace
