#include "support/net.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace ld::support::net {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw NetError(what + ": " + std::strerror(errno));
}

sockaddr_un unix_address(const std::string& path) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(address.sun_path)) {
        throw NetError("unix socket path '" + path + "' empty or longer than " +
                       std::to_string(sizeof(address.sun_path) - 1) + " bytes");
    }
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    return address;
}

sockaddr_in loopback_address(std::uint16_t port) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return address;
}

/// Clear the way for binding a Unix socket at `path`: nothing there is
/// fine; a socket file nobody answers on (crashed previous run) is
/// unlinked; a live server or any non-socket file throws — bind must
/// never silently delete something that is still in use.
void remove_stale_unix_socket(const std::string& path, const sockaddr_un& address) {
    struct stat st {};
    if (::lstat(path.c_str(), &st) != 0) {
        if (errno == ENOENT) return;
        fail("stat('" + path + "')");
    }
    if (!S_ISSOCK(st.st_mode)) {
        throw NetError("refusing to replace '" + path +
                       "': exists and is not a socket");
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe < 0) fail("socket(AF_UNIX)");
    const int connected =
        ::connect(probe, reinterpret_cast<const sockaddr*>(&address), sizeof address);
    const int connect_errno = errno;
    ::close(probe);
    if (connected == 0) {
        throw NetError("'" + path + "' is in use by a live server");
    }
    if (connect_errno != ECONNREFUSED) {
        throw NetError("cannot tell whether '" + path + "' is stale (connect: " +
                       std::strerror(connect_errno) + "); remove it manually");
    }
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
        fail("unlink stale socket '" + path + "'");
    }
}

}  // namespace

// Socket -------------------------------------------------------------------

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

std::size_t Socket::read_some(char* data, std::size_t size) {
    while (true) {
        const ssize_t n = ::recv(fd_, data, size, 0);
        if (n >= 0) return static_cast<std::size_t>(n);
        if (errno == EINTR) continue;
        fail("recv");
    }
}

std::optional<std::size_t> Socket::read_nonblocking(char* data, std::size_t size) {
    while (true) {
        const ssize_t n = ::recv(fd_, data, size, MSG_DONTWAIT);
        if (n >= 0) return static_cast<std::size_t>(n);
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
        fail("recv");
    }
}

std::size_t Socket::write_nonblocking(std::string_view data) {
    while (true) {
        const ssize_t n =
            ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n >= 0) return static_cast<std::size_t>(n);
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
        fail("send");
    }
}

void Socket::write_all(std::string_view data, int timeout_ms) {
    if (timeout_ms < 0) {
        while (!data.empty()) {
            const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR) continue;
                fail("send");
            }
            data.remove_prefix(static_cast<std::size_t>(n));
        }
        return;
    }

    // Bounded write: non-blocking sends, polling for writability until
    // the deadline.  The socket itself stays in blocking mode —
    // MSG_DONTWAIT scopes the non-blocking behaviour to these sends.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!data.empty()) {
        const ssize_t n =
            ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            data.remove_prefix(static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                                  deadline - std::chrono::steady_clock::now())
                                  .count();
            if (left <= 0) {
                throw NetError("send: peer not reading, timed out after " +
                               std::to_string(timeout_ms) + "ms");
            }
            pollfd writable{fd_, POLLOUT, 0};
            const int ready = ::poll(
                &writable, 1, static_cast<int>(std::min<long long>(left, 60'000)));
            if (ready < 0 && errno != EINTR) fail("poll(POLLOUT)");
            continue;
        }
        fail("send");
    }
}

void Socket::shutdown_both() noexcept {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

// LineReader ---------------------------------------------------------------

bool LineReader::read_line(std::string& line) {
    while (true) {
        if (const auto newline = buffer_.find('\n'); newline != std::string::npos) {
            line.assign(buffer_, 0, newline);
            buffer_.erase(0, newline + 1);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            return true;
        }
        if (eof_) {
            if (buffer_.empty()) return false;
            line = std::move(buffer_);
            buffer_.clear();
            return true;
        }
        char chunk[4096];
        const std::size_t n = socket_->read_some(chunk, sizeof chunk);
        if (n == 0) {
            eof_ = true;
            continue;
        }
        buffer_.append(chunk, n);
    }
}

void write_line(Socket& socket, std::string_view line, int timeout_ms) {
    std::string framed;
    framed.reserve(line.size() + 1);
    framed.append(line);
    framed.push_back('\n');
    socket.write_all(framed, timeout_ms);
}

// Listener -----------------------------------------------------------------

Listener Listener::unix_domain(const std::string& path) {
    const sockaddr_un address = unix_address(path);
    remove_stale_unix_socket(path, address);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fail("socket(AF_UNIX)");
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
        ::close(fd);
        fail("bind('" + path + "')");
    }
    if (::listen(fd, 64) != 0) {
        ::close(fd);
        ::unlink(path.c_str());
        fail("listen('" + path + "')");
    }
    return Listener(fd, path, 0);
}

Listener Listener::tcp_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fail("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in address = loopback_address(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
        ::close(fd);
        fail("bind(127.0.0.1:" + std::to_string(port) + ")");
    }
    socklen_t length = sizeof address;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length) != 0) {
        ::close(fd);
        fail("getsockname");
    }
    if (::listen(fd, 64) != 0) {
        ::close(fd);
        fail("listen(127.0.0.1)");
    }
    return Listener(fd, std::string{}, ntohs(address.sin_port));
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      port_(other.port_) {
    other.path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        path_ = std::move(other.path_);
        port_ = other.port_;
        other.path_.clear();
    }
    return *this;
}

std::optional<Socket> Listener::try_accept(bool* exhausted) {
    if (exhausted) *exhausted = false;
    while (fd_ >= 0) {
        const int client =
            ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (client >= 0) return Socket(client);
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
            // Out of descriptors/buffers: the pending connection stays
            // queued, so a level-triggered poller would spin on it —
            // report the condition and let the caller back off.
            if (exhausted) *exhausted = true;
            return std::nullopt;
        }
        fail("accept");
    }
    return std::nullopt;
}

void Listener::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (!path_.empty()) {
        ::unlink(path_.c_str());
        path_.clear();
    }
}

// Clients ------------------------------------------------------------------

void set_nonblocking(int fd, bool on) {
    const int flags = ::fcntl(fd, F_GETFL);
    if (flags < 0) fail("fcntl(F_GETFL)");
    const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (next != flags && ::fcntl(fd, F_SETFL, next) != 0) fail("fcntl(F_SETFL)");
}

Socket connect_unix(const std::string& path) {
    const sockaddr_un address = unix_address(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fail("socket(AF_UNIX)");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
        ::close(fd);
        fail("connect('" + path + "')");
    }
    return Socket(fd);
}

Socket connect_tcp_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fail("socket(AF_INET)");
    const sockaddr_in address = loopback_address(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
        ::close(fd);
        fail("connect(127.0.0.1:" + std::to_string(port) + ")");
    }
    return Socket(fd);
}

}  // namespace ld::support::net
