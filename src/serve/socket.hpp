// Socket helpers shared by the serve daemon and the chaos proxy: one way
// to close a descriptor, to write a whole buffer, and to open a TCP
// listener. The client keeps its own send/recv loop, because each of its
// waits maps to a distinct stable error code (net.timeout, net.deadline).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace servet::serve {

/// Closes `fd` when open and marks it closed (-1). Called once: Linux
/// frees the descriptor even when close fails with EINTR, so a retry
/// could close an unrelated one.
void close_fd(int& fd);

/// Writes all of `bytes` (MSG_NOSIGNAL; EINTR resumes). On a non-blocking
/// socket a full send buffer is waited on with poll, but a reader that
/// stops draining for 30 one-second waits is gone or hostile and must not
/// pin the caller forever. False on that or any other failure.
[[nodiscard]] bool send_all(int fd, std::string_view bytes);

/// A non-blocking, close-on-exec TCP listener on the IPv4 `address` and
/// `port` (0 lets the kernel pick), with SO_REUSEADDR. Returns the fd and
/// stores the bound port in `*bound_port`; -1 with a diagnostic in
/// `*error` (when non-null) on failure.
[[nodiscard]] int open_listener(const std::string& address, std::uint16_t port,
                                int backlog, std::uint16_t* bound_port, std::string* error);

}  // namespace servet::serve
