// Minimal POSIX socket helpers for the serve layer and its clients:
// Unix-domain and TCP-loopback listeners, stream sockets (blocking and
// nonblocking primitives), and newline-delimited line framing.  The
// epoll reactor lives next door in support/event_loop.hpp; this header
// stays deliberately tiny — no TLS, no non-loopback TCP — because the
// serve transport is a local IPC boundary, not a network service.
//
// Everything throws NetError (with errno text) on failure; Socket and
// Listener are move-only RAII owners of their file descriptors.

#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ld::support::net {

/// Thrown on any socket-layer failure (bind, connect, accept, I/O).
class NetError : public std::runtime_error {
public:
    explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

/// A connected, blocking stream socket (move-only fd owner).
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket();

    Socket(Socket&& other) noexcept;
    Socket& operator=(Socket&& other) noexcept;
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    bool valid() const noexcept { return fd_ >= 0; }
    int fd() const noexcept { return fd_; }

    /// Read up to `size` bytes; returns 0 on orderly EOF.  Retries EINTR.
    std::size_t read_some(char* data, std::size_t size);

    /// Nonblocking read for event-loop use: bytes read, 0 on orderly
    /// EOF, or nullopt when nothing is readable right now (EAGAIN).
    /// Uses MSG_DONTWAIT, so it is safe on blocking sockets too.
    std::optional<std::size_t> read_nonblocking(char* data, std::size_t size);

    /// Nonblocking write: how many bytes the kernel accepted (0 when
    /// the socket buffer is full).  Throws NetError on a hard failure
    /// (peer gone, reset).
    std::size_t write_nonblocking(std::string_view data);

    /// Write all of `data`, looping over partial writes.  Throws on a
    /// closed peer (EPIPE is an error, not a signal — callers pass
    /// MSG_NOSIGNAL).  With `timeout_ms >= 0` the write is bounded: it
    /// uses non-blocking sends and polls for writability, throwing
    /// NetError once the deadline passes — so one peer that stops
    /// reading cannot park the writing thread forever.  `timeout_ms < 0`
    /// blocks indefinitely.
    void write_all(std::string_view data, int timeout_ms = -1);

    /// shutdown(SHUT_RDWR): unblocks any thread sleeping in read_some on
    /// this socket (used to tear connections down during drain).
    void shutdown_both() noexcept;

    void close() noexcept;

private:
    int fd_ = -1;
};

/// Buffered newline framing over a Socket.  read_line strips the
/// trailing '\n' (and a preceding '\r', for telnet-style poking).
class LineReader {
public:
    explicit LineReader(Socket& socket) : socket_(&socket) {}

    /// Next line into `line`.  False on EOF with no buffered data; a
    /// final unterminated line is returned as-is.
    bool read_line(std::string& line);

private:
    Socket* socket_;
    std::string buffer_;
    bool eof_ = false;
};

/// `line` + '\n' in one write.  `timeout_ms` as in Socket::write_all.
void write_line(Socket& socket, std::string_view line, int timeout_ms = -1);

/// A bound, listening server socket: either a Unix-domain path or a TCP
/// socket bound to 127.0.0.1.
class Listener {
public:
    /// Bind and listen on a Unix-domain socket at `path`.  A leftover
    /// socket file from a crashed run is removed only after probing that
    /// nothing answers on it; a live server or a non-socket file at
    /// `path` makes this throw instead of clobbering it.  The path is
    /// unlinked again on close.
    static Listener unix_domain(const std::string& path);

    /// Bind and listen on 127.0.0.1:`port`; port 0 picks an ephemeral
    /// port, readable afterwards via port().
    static Listener tcp_loopback(std::uint16_t port);

    ~Listener();
    Listener(Listener&& other) noexcept;
    Listener& operator=(Listener&& other) noexcept;
    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    bool valid() const noexcept { return fd_ >= 0; }
    int fd() const noexcept { return fd_; }

    /// Bound TCP port (0 for Unix-domain listeners).
    std::uint16_t port() const noexcept { return port_; }
    const std::string& path() const noexcept { return path_; }

    /// Nonblocking accept for event-loop use: the next pending client
    /// (created O_NONBLOCK), or nullopt when none is pending — which
    /// includes descriptor exhaustion (`exhausted`, when non-null, is
    /// set so the caller can back off instead of spinning on the
    /// still-pending connection).  Throws NetError on hard failures.
    std::optional<Socket> try_accept(bool* exhausted = nullptr);

    void close() noexcept;

private:
    Listener(int fd, std::string path, std::uint16_t port)
        : fd_(fd), path_(std::move(path)), port_(port) {}

    int fd_ = -1;
    std::string path_;  ///< unix path to unlink on close ("" for TCP)
    std::uint16_t port_ = 0;
};

/// Set or clear O_NONBLOCK on any descriptor.
void set_nonblocking(int fd, bool on = true);

/// Connect to a Unix-domain server socket.
Socket connect_unix(const std::string& path);

/// Connect to 127.0.0.1:`port`.
Socket connect_tcp_loopback(std::uint16_t port);

}  // namespace ld::support::net
