// Tests for the epoll event loop and the serve layer's event-driven
// front: loop task posting and fd dispatch, tick callbacks, the
// self-removal hazard (a callback that unregisters its own fd), request
// frames fragmented across many epoll wakeups, hundreds of idle
// connections held open through a graceful drain, the half-close
// (shutdown(SHUT_WR)) vs full-close taxonomy, and the --ready-file /
// --ready-fd readiness signals.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ld/serve/event_front.hpp"
#include "ld/serve/server.hpp"
#include "read_deadline.hpp"
#include "support/event_loop.hpp"
#include "support/json.hpp"
#include "support/net.hpp"

namespace {

namespace serve = ld::serve;
namespace net = ld::support::net;
namespace json = ld::support::json;

std::string socket_path(const std::string& tag) {
    return ::testing::TempDir() + "/ld_el_" + tag + ".sock";
}

// EventLoop ----------------------------------------------------------------

TEST(EventLoop, PostedTasksRunOnTheLoopThreadInOrder) {
    net::EventLoop loop;
    std::vector<int> order;
    std::atomic<bool> on_loop{false};
    std::thread runner([&] { loop.run(); });
    loop.post([&] {
        order.push_back(1);
        on_loop.store(loop.on_loop_thread());
    });
    loop.post([&] { order.push_back(2); });
    loop.post([&] { loop.stop(); });
    runner.join();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_TRUE(on_loop.load());
    EXPECT_FALSE(loop.on_loop_thread());
}

TEST(EventLoop, FdCallbackFiresOnReadableAndStopsAfterRemove) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    net::EventLoop loop;
    std::atomic<int> fires{0};
    loop.add_fd(fds[0], net::kEventRead, [&](std::uint32_t events) {
        EXPECT_TRUE(events & net::kEventRead);
        char buffer[8];
        [[maybe_unused]] const auto rc = ::read(fds[0], buffer, sizeof buffer);
        if (fires.fetch_add(1) + 1 == 2) loop.stop();
    });
    EXPECT_TRUE(loop.watches(fds[0]));

    std::thread runner([&] { loop.run(); });
    ASSERT_EQ(::write(fds[1], "a", 1), 1);
    while (fires.load() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(::write(fds[1], "b", 1), 1);
    runner.join();
    EXPECT_EQ(fires.load(), 2);

    loop.remove_fd(fds[0]);
    EXPECT_FALSE(loop.watches(fds[0]));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(EventLoop, CallbackMayRemoveItsOwnRegistration) {
    // A connection closing itself runs exactly this shape: the callback
    // erases the registration that owns the std::function currently
    // executing.  The loop must dispatch through a copy.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    net::EventLoop loop;
    std::atomic<int> fires{0};
    // The large capture makes a use-after-free visibly corrupt under
    // ASan/valgrind rather than silently reading stale bytes.
    const std::string canary(256, 'x');
    loop.add_fd(fds[0], net::kEventRead, [&, canary](std::uint32_t) {
        loop.remove_fd(fds[0]);
        EXPECT_EQ(canary.size(), 256u);
        EXPECT_EQ(canary[0], 'x');
        fires.fetch_add(1);
        loop.stop();
    });
    std::thread runner([&] { loop.run(); });
    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    runner.join();
    EXPECT_EQ(fires.load(), 1);
    EXPECT_FALSE(loop.watches(fds[0]));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(EventLoop, TickFiresRepeatedly) {
    net::EventLoop loop;
    std::atomic<int> ticks{0};
    loop.set_tick(std::chrono::milliseconds(5), [&] {
        if (ticks.fetch_add(1) + 1 >= 3) loop.stop();
    });
    std::thread runner([&] { loop.run(); });
    runner.join();
    EXPECT_GE(ticks.load(), 3);
}

TEST(EventLoop, FdCountTracksRegistrations) {
    net::EventLoop loop;
    const std::size_t base = loop.fd_count();  // the internal wake fd
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    loop.add_fd(fds[0], net::kEventRead, [](std::uint32_t) {});
    EXPECT_EQ(loop.fd_count(), base + 1);
    loop.remove_fd(fds[0]);
    EXPECT_EQ(loop.fd_count(), base);
    ::close(fds[0]);
    ::close(fds[1]);
}

// Readiness signaling ------------------------------------------------------

TEST(ServeReadiness, ReadyFileReceivesTheReadyLine) {
    const std::string path = ::testing::TempDir() + "/ld_el_ready.txt";
    ::unlink(path.c_str());
    const int keep = serve::signal_ready(path, -1);
    ASSERT_GE(keep, 0);
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "ready");
    ::close(keep);
    ::unlink(path.c_str());
}

TEST(ServeReadiness, ReadyFdReceivesTheReadyLineAndEof) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    EXPECT_EQ(serve::signal_ready("", fds[1]), -1);
    char buffer[16] = {};
    ASSERT_EQ(::read(fds[0], buffer, sizeof buffer), 6);
    EXPECT_STREQ(buffer, "ready\n");
    // signal_ready closed the write end: the reader sees EOF.
    EXPECT_EQ(::read(fds[0], buffer, sizeof buffer), 0);
    ::close(fds[0]);
}

// EventFront through a live Server ----------------------------------------

/// Every request here is cheap control plane, so tests stay fast.
std::string health_request(int id) {
    return std::string("{\"id\": ") + std::to_string(id) +
           ", \"method\": \"health\"}";
}

TEST(ServeEventLoop, FragmentedFramesAcrossWakeupsParseCorrectly) {
    serve::ServerConfig config;
    config.unix_socket = socket_path("frag");
    serve::Server server(std::move(config));
    server.start();

    net::Socket client = net::connect_unix(server.config().unix_socket);
    net::LineReader reader(client);
    std::string line;
    ASSERT_TRUE(reader.read_line(line));  // handshake

    // One request dribbled out byte-clusters at a time: each write lands
    // in its own epoll wakeup, so the front must carry the partial line
    // across read passes.
    const std::string request = health_request(1) + "\n";
    for (std::size_t i = 0; i < request.size(); i += 3) {
        const std::string chunk = request.substr(i, 3);
        ASSERT_EQ(::send(client.fd(), chunk.data(), chunk.size(), 0),
                  static_cast<ssize_t>(chunk.size()));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(reader.read_line(line));
    const json::Value first = json::parse(line);
    EXPECT_TRUE(first.at("ok").as_bool());
    EXPECT_EQ(first.at("id").as_number(), 1.0);

    // Two complete requests plus a partial third in ONE write: the read
    // pass must dispatch both and hold the tail until its newline lands.
    const std::string burst =
        health_request(2) + "\n" + health_request(3) + "\n" + "{\"id\": 4, ";
    ASSERT_EQ(::send(client.fd(), burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    ASSERT_TRUE(reader.read_line(line));
    EXPECT_EQ(json::parse(line).at("id").as_number(), 2.0);
    ASSERT_TRUE(reader.read_line(line));
    EXPECT_EQ(json::parse(line).at("id").as_number(), 3.0);

    const std::string tail = "\"method\": \"health\"}\n";
    ASSERT_EQ(::send(client.fd(), tail.data(), tail.size(), 0),
              static_cast<ssize_t>(tail.size()));
    ASSERT_TRUE(reader.read_line(line));
    EXPECT_EQ(json::parse(line).at("id").as_number(), 4.0);

    // A CRLF split across two reads is one line end: the '\r' ends one
    // write and the '\n' starts the next.  Two line ends would add an
    // empty line, answered with a bad_request between ids 5 and 6.
    const std::string crlf_head = health_request(5) + "\r";
    ASSERT_EQ(::send(client.fd(), crlf_head.data(), crlf_head.size(), 0),
              static_cast<ssize_t>(crlf_head.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::string crlf_tail = '\n' + health_request(6) + '\n';
    ASSERT_EQ(::send(client.fd(), crlf_tail.data(), crlf_tail.size(), 0),
              static_cast<ssize_t>(crlf_tail.size()));
    ASSERT_TRUE(reader.read_line(line));
    EXPECT_EQ(json::parse(line).at("id").as_number(), 5.0);
    ASSERT_TRUE(reader.read_line(line));
    EXPECT_EQ(json::parse(line).at("id").as_number(), 6.0);

    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
}

// A line handler that throws ends the loop thread.  The front says so and
// asks its owner to drain, and every drain call still returns: none waits
// on a task posted to the dead loop.
TEST(ServeEventLoop, DrainReturnsAfterTheLoopFails) {
    serve::FrontConfig config;
    config.unix_socket = socket_path("loopfail");
    std::atomic<bool> drain_requested{false};
    serve::EventFront front(
        config,
        [](const std::shared_ptr<serve::Conn>& conn, const std::string& line) {
            if (line == "boom") throw std::runtime_error("line handler failed");
            conn->send(line);
        },
        [&] { drain_requested = true; });
    front.start();

    net::Socket client = net::connect_unix(config.unix_socket);
    ASSERT_TRUE(ld::test::set_read_deadline(client));
    net::LineReader reader(client);
    const std::string lines = "echo\nboom\n";
    ASSERT_EQ(::send(client.fd(), lines.data(), lines.size(), 0),
              static_cast<ssize_t>(lines.size()));
    std::string line;
    ASSERT_TRUE(reader.read_line(line));
    EXPECT_EQ(line, "echo");
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!drain_requested && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(drain_requested);
    EXPECT_TRUE(front.loop_failed());

    std::promise<void> drained;
    std::thread drain([&] {
        front.stop_accepting();
        front.settle_inputs();
        front.flush_all(std::chrono::milliseconds(2'000));
        front.close_all();
        front.shutdown();
        drained.set_value();
    });
    // On a hang the test fails here, and the joinable thread then ends the
    // binary instead of hanging it.
    ASSERT_EQ(drained.get_future().wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    drain.join();
    EXPECT_FALSE(reader.read_line(line));  // closed: EOF
}

TEST(ServeEventLoop, HalfClosedPeerStillReceivesItsResponses) {
    serve::ServerConfig config;
    config.unix_socket = socket_path("halfclose");
    serve::Server server(std::move(config));
    server.start();

    net::Socket client = net::connect_unix(server.config().unix_socket);
    net::LineReader reader(client);
    std::string line;
    ASSERT_TRUE(reader.read_line(line));  // handshake

    const std::string request = health_request(1) + "\n";
    ASSERT_EQ(::send(client.fd(), request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    // Half-close: we are done sending, but the response pipe stays open.
    ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);

    ASSERT_TRUE(reader.read_line(line));
    const json::Value response = json::parse(line);
    EXPECT_TRUE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("id").as_number(), 1.0);
    // After the last response the server closes its side: clean EOF,
    // not a hang.
    EXPECT_FALSE(reader.read_line(line));

    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
}

// A half-closed peer whose requests all run on workers (instance.load
// and evals, not the inline health): every reply must still arrive, and
// the server must then close its side.  A worker finishing the last
// request and the loop seeing EOF race here; whichever comes second
// tears the connection down.
TEST(ServeEventLoop, HalfClosedPeerReceivesEveryWorkerReply) {
    serve::ServerConfig config;
    config.unix_socket = socket_path("halfclose_workers");
    serve::Server server(std::move(config));
    server.start();

    net::Socket client = net::connect_unix(server.config().unix_socket);
    ASSERT_TRUE(ld::test::set_read_deadline(client));
    net::LineReader reader(client);
    std::string line;
    ASSERT_TRUE(reader.read_line(line));  // handshake

    const std::string fingerprint = serve::InstanceCache::fingerprint(
        "dregular:8", "uniform:0.3,0.7", 400, 0.05, 7);
    std::string burst =
        "{\"id\": 1, \"method\": \"instance.load\", \"params\": {\"graph\": "
        "\"dregular:8\", \"competencies\": \"uniform:0.3,0.7\", \"n\": 400, "
        "\"alpha\": 0.05, \"seed\": 7}}\n";
    for (int id = 2; id <= 4; ++id) {
        burst += "{\"id\": " + std::to_string(id) +
                 ", \"method\": \"eval\", \"params\": {\"instance\": \"" + fingerprint +
                 "\", \"mechanism\": \"threshold:1\", \"replications\": 4, "
                 "\"threads\": 1}}\n";
    }
    client.write_all(burst);
    ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);

    for (int id = 1; id <= 4; ++id) {
        ASSERT_TRUE(reader.read_line(line)) << "reply " << id;
        const json::Value response = json::parse(line);
        EXPECT_EQ(response.at("id").as_number(), static_cast<double>(id)) << line;
        EXPECT_TRUE(response.at("ok").as_bool()) << line;
    }
    EXPECT_FALSE(reader.read_line(line));  // the server closed: EOF

    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
}

// The order Conn::finish_inflight's post exists for, driven through the
// front alone: the peer half-closes with its request in flight, the
// reply is flushed while the request still counts (so the flush's
// maybe_close keeps the connection), and only then comes the last
// decrement.  No read or flush is left to close the connection; the
// decrement must.
TEST(ServeEventLoop, LastDecrementAfterTheFlushClosesAHalfClosedPeer) {
    serve::FrontConfig config;
    config.unix_socket = socket_path("lastdecrement");
    std::promise<std::shared_ptr<serve::Conn>> admitted;
    serve::EventFront front(
        config, [&](const std::shared_ptr<serve::Conn>& conn, const std::string&) {
            // Admitted as Server admits a request for a worker.
            conn->add_inflight();
            admitted.set_value(conn);
        });
    front.start();

    net::Socket client = net::connect_unix(config.unix_socket);
    ASSERT_TRUE(ld::test::set_read_deadline(client));
    net::LineReader reader(client);
    // The front hands over an unterminated last line only after it has
    // seen EOF, so the request is admitted with the read side closed.
    const std::string request = "request";
    ASSERT_EQ(::send(client.fd(), request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
    auto handed_over = admitted.get_future();
    ASSERT_EQ(handed_over.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    const std::shared_ptr<serve::Conn> conn = handed_over.get();

    conn->send("reply");  // the worker's reply, from off the loop thread
    std::string line;
    ASSERT_TRUE(reader.read_line(line));
    EXPECT_EQ(line, "reply");
    front.settle_inputs();  // the flush that wrote the reply has returned
    conn->finish_inflight();

    bool closed = false;
    try {
        closed = !reader.read_line(line);
    } catch (const net::NetError&) {
        // The read deadline passed: the connection is still open.
    }
    EXPECT_TRUE(closed) << "the half-closed connection was never closed";
}

/// Connection count as the server reports it (health.result.connections).
std::size_t reported_connections(net::Socket& probe, net::LineReader& reader,
                                 int* next_id) {
    const std::string request = health_request((*next_id)++) + "\n";
    EXPECT_EQ(::send(probe.fd(), request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string line;
    EXPECT_TRUE(reader.read_line(line));
    return static_cast<std::size_t>(
        json::parse(line).at("result").at("connections").as_number());
}

TEST(ServeEventLoop, FullCloseReapsConnections) {
    serve::ServerConfig config;
    config.unix_socket = socket_path("reap");
    serve::Server server(std::move(config));
    server.start();

    net::Socket probe = net::connect_unix(server.config().unix_socket);
    net::LineReader probe_reader(probe);
    std::string line;
    ASSERT_TRUE(probe_reader.read_line(line));
    int next_id = 1;

    {
        std::vector<net::Socket> extras;
        for (int i = 0; i < 8; ++i) {
            extras.push_back(net::connect_unix(server.config().unix_socket));
        }
        // Level-triggered epoll delivers the accepts promptly; poll the
        // health gauge rather than racing it.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (reported_connections(probe, probe_reader, &next_id) < 9) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }  // all 8 extras close: full hangup per connection

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (reported_connections(probe, probe_reader, &next_id) > 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(reported_connections(probe, probe_reader, &next_id), 1u);

    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
}

TEST(ServeEventLoop, HundredsOfIdleConnectionsSurviveUntilDrain) {
    // The point of the epoll front: an idle connection costs one fd, so
    // holding hundreds open is cheap and a drain must sweep them all.
    // Size the flock to the fd budget (soft RLIMIT_NOFILE, raised toward
    // 4096 when the hard limit allows).
    rlimit limit{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
    if (limit.rlim_cur < 4096 &&
        (limit.rlim_max == RLIM_INFINITY || limit.rlim_max >= 4096)) {
        rlimit raised = limit;
        raised.rlim_cur = 4096;
        if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) {
            limit.rlim_cur = raised.rlim_cur;
        }
    }
    // Client fds + server fds both come out of this process's budget;
    // keep a wide margin for gtest/runtime descriptors.
    const std::size_t flock_size =
        std::min<std::size_t>(1000, (limit.rlim_cur - 64) / 2);
    ASSERT_GE(flock_size, 100u) << "fd limit too low to exercise the flock";

    serve::ServerConfig config;
    config.unix_socket = socket_path("flock");
    serve::Server server(std::move(config));
    server.start();

    std::vector<net::Socket> flock;
    flock.reserve(flock_size);
    for (std::size_t i = 0; i < flock_size; ++i) {
        flock.push_back(net::connect_unix(server.config().unix_socket));
    }

    // The flock is completely idle (handshakes unread).  A separate
    // active client must still get service instantly.
    net::Socket active = net::connect_unix(server.config().unix_socket);
    net::LineReader reader(active);
    std::string line;
    ASSERT_TRUE(reader.read_line(line));
    int next_id = 1;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (reported_connections(active, reader, &next_id) < flock_size + 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // Drain with the whole flock still connected: every socket must see
    // EOF (handshake first — the flock never read it).
    server.request_drain();
    EXPECT_EQ(server.wait(), 0);
    for (net::Socket& member : flock) {
        net::LineReader member_reader(member);
        while (member_reader.read_line(line)) {
        }  // drain the handshake, then EOF — must not hang
    }
}

}  // namespace
