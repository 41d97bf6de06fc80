#include "serve/chaos.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>

#include "base/rng.hpp"
#include "serve/http.hpp"
#include "serve/socket.hpp"

namespace servet::serve {

namespace {

constexpr std::size_t kMaxRelayBytes = 4 * 1024 * 1024;

void set_recv_timeout(int fd, int milliseconds) {
    timeval tv{};
    tv.tv_sec = milliseconds / 1000;
    tv.tv_usec = (milliseconds % 1000) * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

}  // namespace

ChaosProxy::ChaosProxy(std::uint16_t upstream_port, FaultPlan plan)
    : plan_(plan), upstream_port_(upstream_port) {}

ChaosProxy::~ChaosProxy() { stop(); }

const char* ChaosProxy::fault_name(FaultKind kind) {
    switch (kind) {
        case FaultKind::None: return "none";
        case FaultKind::Drop: return "drop";
        case FaultKind::Delay: return "delay";
        case FaultKind::Reset: return "reset";
        case FaultKind::Truncate: return "truncate";
        case FaultKind::Trickle: return "trickle";
    }
    return "unknown";
}

ChaosProxy::FaultKind ChaosProxy::fault_for(std::uint64_t index) const {
    // One decision per connection, keyed on (plan seed, accept index):
    // the mix plus splitmix seeding inside Rng decorrelates consecutive
    // indices, and the fixed evaluation order makes the draw stable
    // across platforms.
    Rng rng(plan_.seed ^ (index * 0x9e3779b97f4a7c15ULL + 0x1d8af4a31ULL));
    const double u = rng.next_double();
    double edge = plan_.conn_drop_probability;
    if (u < edge) return FaultKind::Drop;
    edge += plan_.conn_delay_probability;
    if (u < edge) return FaultKind::Delay;
    edge += plan_.conn_reset_probability;
    if (u < edge) return FaultKind::Reset;
    edge += plan_.conn_truncate_probability;
    if (u < edge) return FaultKind::Truncate;
    edge += plan_.conn_trickle_probability;
    if (u < edge) return FaultKind::Trickle;
    return FaultKind::None;
}

std::vector<ChaosProxy::FaultKind> ChaosProxy::injected() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return injected_;
}

bool ChaosProxy::start(std::string* error) {
    listen_fd_ = open_listener("127.0.0.1", 0, 64, &port_, error);
    if (listen_fd_ < 0) return false;
    accept_thread_ = std::thread([this] { accept_loop(); });
    started_ = true;
    return true;
}

void ChaosProxy::stop() {
    if (!started_) return;
    stopping_.store(true, std::memory_order_release);
    accept_thread_.join();
    close_fd(listen_fd_);
    std::vector<std::thread> relays;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        relays.swap(relays_);
    }
    for (std::thread& relay : relays) relay.join();
    started_ = false;
}

void ChaosProxy::accept_loop() {
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd waiter{listen_fd_, POLLIN, 0};
        const int rc = ::poll(&waiter, 1, 100);
        if (rc <= 0) continue;
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) continue;
        FaultKind fault = FaultKind::None;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            fault = fault_for(next_index_++);
            injected_.push_back(fault);
        }
        std::lock_guard<std::mutex> lock(mutex_);
        relays_.emplace_back([this, fd, fault] { relay(fd, fault); });
    }
}

void ChaosProxy::relay(int client_fd, FaultKind fault) {
    int client = client_fd;
    const int one = 1;
    (void)::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    set_recv_timeout(client, 200);

    // Drop never talks upstream: it drains the client's request, then
    // closes without a single response byte. Draining first matters for
    // determinism — closing with unread request bytes in the socket
    // would answer the client with an RST (net.reset) or a FIN
    // (net.closed) depending on timing; a drained socket always FINs.
    int upstream = -1;
    bool alive = fault != FaultKind::Drop;
    if (alive) {
        upstream = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (upstream < 0) {
            close_fd(client);
            return;
        }
        (void)::setsockopt(upstream, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        set_recv_timeout(upstream, 200);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(upstream_port_);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        alive = ::connect(upstream, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    }

    // Forward the client's request upstream until one complete request
    // has crossed (the clients here speak Connection: close — one
    // request per connection).
    HttpParser watcher;
    char buf[16 * 1024];
    std::size_t relayed = 0;
    const auto give_up_at =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((alive || fault == FaultKind::Drop) && !watcher.has_request() &&
           watcher.state() != HttpParser::State::Error) {
        if (stopping_.load(std::memory_order_acquire) ||
            std::chrono::steady_clock::now() > give_up_at)
            break;
        const ssize_t n = ::recv(client, buf, sizeof buf, 0);
        if (n > 0) {
            relayed += static_cast<std::size_t>(n);
            if (relayed > kMaxRelayBytes) break;
            const std::string_view bytes(buf, static_cast<std::size_t>(n));
            (void)watcher.feed(bytes);
            if (alive && !send_all(upstream, bytes)) alive = false;
            continue;
        }
        if (n == 0) break;
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        break;
    }

    // Collect the full upstream response (the server closes after it —
    // Connection: close), then deliver it through the fault.
    std::string response;
    while (alive && watcher.has_request()) {
        if (stopping_.load(std::memory_order_acquire) ||
            std::chrono::steady_clock::now() > give_up_at)
            break;
        const ssize_t n = ::recv(upstream, buf, sizeof buf, 0);
        if (n > 0) {
            response.append(buf, static_cast<std::size_t>(n));
            if (response.size() > kMaxRelayBytes) break;
            continue;
        }
        if (n == 0) break;
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        break;
    }

    const auto interruptible_sleep = [this](double seconds) {
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(seconds));
        while (!stopping_.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    };

    switch (fault) {
        case FaultKind::None:
        case FaultKind::Drop:  // request drained, response empty: clean FIN
            (void)send_all(client, response);
            break;
        case FaultKind::Delay:
            interruptible_sleep(plan_.conn_delay_seconds);
            (void)send_all(client, response);
            break;
        case FaultKind::Reset: {
            // Part of the head, then an RST: SO_LINGER{1,0} turns close()
            // into an abortive reset.
            (void)send_all(client, std::string_view(response).substr(
                                       0, std::min<std::size_t>(24, response.size())));
            linger hard{1, 0};
            (void)::setsockopt(client, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
            break;
        }
        case FaultKind::Truncate: {
            // Everything but the tail, then a clean FIN: the client's
            // parser sees a Content-Length body cut short.
            const std::size_t keep =
                response.size() > 8 ? response.size() - 4 : std::size_t{0};
            (void)send_all(client, std::string_view(response).substr(0, keep));
            break;
        }
        case FaultKind::Trickle:
            // One byte at a time: each byte lands inside the client's
            // per-operation budget, so only an overall deadline saves it.
            for (std::size_t i = 0; i < response.size(); ++i) {
                if (stopping_.load(std::memory_order_acquire)) break;
                if (!send_all(client, std::string_view(response).substr(i, 1))) break;
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            break;
    }
    close_fd(upstream);
    close_fd(client);
}

}  // namespace servet::serve
