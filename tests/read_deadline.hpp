// A receive deadline for test clients.  Past it, a read on the socket
// fails (Socket::read_some throws NetError) instead of blocking, so a
// server that stops answering fails the test rather than hanging ctest.

#pragma once

#include <sys/socket.h>
#include <sys/time.h>

#include "support/net.hpp"

namespace ld::test {

/// True once every later read on `socket` gives up after 10 s.
inline bool set_read_deadline(support::net::Socket& socket) {
    const timeval deadline{10, 0};
    return ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &deadline,
                        sizeof deadline) == 0;
}

}  // namespace ld::test
