#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace servet::serve {

void close_fd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
}

bool send_all(int fd, std::string_view bytes) {
    std::size_t sent = 0;
    int stalls = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            stalls = 0;
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (++stalls > 30) return false;
            pollfd waiter{fd, POLLOUT, 0};
            (void)::poll(&waiter, 1, 1000);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

int open_listener(const std::string& address, std::uint16_t port, int backlog,
                  std::uint16_t* bound_port, std::string* error) {
    int fd = -1;
    const auto fail = [&](const std::string& what) {
        if (error != nullptr) *error = what + ": " + std::strerror(errno);
        close_fd(fd);
        return -1;
    };
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
        if (error != nullptr) *error = "invalid bind address " + address;
        return -1;
    }
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return fail("socket");
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
        return fail("bind " + address + ":" + std::to_string(port));
    if (::listen(fd, backlog) != 0) return fail("listen");
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0)
        return fail("getsockname");
    *bound_port = ntohs(bound.sin_port);
    return fd;
}

}  // namespace servet::serve
