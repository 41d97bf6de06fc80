#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "base/fs.hpp"
#include "serve/socket.hpp"

namespace servet::serve {

namespace {
/// Width of one timer-wheel slot. Fine enough that sub-second idle
/// timeouts (tests) reap promptly; coarse enough that the wheel for the
/// default 30s timeout stays small.
constexpr std::int64_t kWheelSlotMs = 100;
}  // namespace

ServeServer::ServeServer(ServeOptions options)
    : options_(std::move(options)),
      store_(options_.store_dir, options_.cache_entries),
      handler_(store_, options_.token) {}

ServeServer::~ServeServer() {
    if (started_ && !joined_) {
        request_stop();
        join();
    }
    close_fd(listen_fd_);
    close_fd(epoll_fd_);
    close_fd(wake_fd_);
}

bool ServeServer::start(std::string* error) {
    const auto fail = [&](const std::string& what) {
        if (error != nullptr) *error = what + ": " + std::strerror(errno);
        close_fd(listen_fd_);
        close_fd(epoll_fd_);
        close_fd(wake_fd_);
        return false;
    };

    if (!create_directories(options_.store_dir)) {
        if (error != nullptr)
            *error = "cannot create store directory " + options_.store_dir;
        return false;
    }

    listen_fd_ = open_listener(options_.bind_address, options_.port, 512, &port_, error);
    if (listen_fd_ < 0) return false;

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return fail("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return fail("eventfd");

    epoll_event accept_event{};
    accept_event.events = EPOLLIN;
    accept_event.data.ptr = nullptr;  // nullptr = the listener
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &accept_event) != 0)
        return fail("epoll_ctl(listen)");
    epoll_event wake_event{};
    wake_event.events = EPOLLIN;
    wake_event.data.ptr = &wake_fd_;  // sentinel: the wake eventfd
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_event) != 0)
        return fail("epoll_ctl(wake)");

    if (options_.idle_timeout_seconds > 0) {
        const auto slots = static_cast<std::size_t>(
            std::ceil(options_.idle_timeout_seconds * 1000.0 /
                      static_cast<double>(kWheelSlotMs))) + 2;
        wheel_.assign(slots, {});
        wheel_epoch_ = Clock::now();
        wheel_cursor_ = 0;
    }
    {
        const Response shed =
            error_response(503, "server.capacity", "connection limit reached");
        shed_response_ = render_response(shed.status, shed.content_type, shed.body,
                                         /*etag=*/{}, /*close=*/true,
                                         "retry-after: 1\r\n");
    }

    const int threads = options_.threads < 1 ? 1 : options_.threads;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
    io_thread_ = std::thread([this] { io_loop(); });
    started_ = true;
    return true;
}

void ServeServer::request_stop() {
    // Only async-signal-safe calls: the SIGTERM handler runs this.
    stopping_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    if (wake_fd_ >= 0) {
        const ssize_t n = ::write(wake_fd_, &one, sizeof one);
        (void)n;
    }
}

void ServeServer::join() {
    if (!started_ || joined_) return;
    io_thread_.join();
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        workers_stop_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    // Whatever connections survived (idle keep-alives, half-parsed
    // requests) are torn down now; the workers have drained their queue.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (Connection* conn : conns_) {
        close_fd(conn->fd);
        delete conn;
    }
    conns_.clear();
    joined_ = true;
}

void ServeServer::enqueue(Connection* conn) {
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_.push_back(conn);
    }
    queue_cv_.notify_one();
}

void ServeServer::close_connection(Connection* conn) {
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conns_.erase(conn);
        wheel_remove_locked(conn);
    }
    // The fd leaves the epoll set automatically on close.
    close_fd(conn->fd);
    delete conn;
}

std::size_t ServeServer::wheel_slot_for(Clock::time_point when) const {
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(when - wheel_epoch_)
            .count();
    return static_cast<std::size_t>((ms < 0 ? 0 : ms) / kWheelSlotMs) % wheel_.size();
}

void ServeServer::wheel_place_locked(Connection* conn, Clock::time_point expiry) {
    if (wheel_.empty()) return;
    wheel_remove_locked(conn);
    conn->wheel_slot = wheel_slot_for(expiry);
    wheel_[conn->wheel_slot].insert(conn);
}

void ServeServer::wheel_remove_locked(Connection* conn) {
    if (conn->wheel_slot == kNoSlot || wheel_.empty()) return;
    wheel_[conn->wheel_slot].erase(conn);
    conn->wheel_slot = kNoSlot;
}

void ServeServer::touch_locked(Connection* conn, Clock::time_point now) {
    conn->last_activity = now;
    if (!wheel_.empty())
        wheel_place_locked(
            conn, now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                options_.idle_timeout_seconds)));
}

void ServeServer::reap_idle() {
    if (wheel_.empty()) return;
    const Clock::time_point now = Clock::now();
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - wheel_epoch_)
            .count();
    const std::uint64_t target =
        static_cast<std::uint64_t>(elapsed_ms < 0 ? 0 : elapsed_ms / kWheelSlotMs);
    const auto idle = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(options_.idle_timeout_seconds));

    std::lock_guard<std::mutex> lock(conns_mutex_);
    // After a long stall (debugger, suspended VM) one revolution covers
    // every slot — no need to replay older ticks.
    if (target > wheel_cursor_ + wheel_.size())
        wheel_cursor_ = target - wheel_.size();
    while (wheel_cursor_ < target) {
        ++wheel_cursor_;
        auto due = std::move(wheel_[wheel_cursor_ % wheel_.size()]);
        wheel_[wheel_cursor_ % wheel_.size()].clear();
        for (Connection* conn : due) {
            conn->wheel_slot = kNoSlot;
            // Lazy re-hash: a connection that was active (or is owned by
            // a worker right now) just moves to the slot its real idle
            // budget expires in. Only the truly idle are reaped.
            if (conn->busy) {
                wheel_place_locked(conn, now + idle);
            } else if (conn->last_activity + idle > now) {
                wheel_place_locked(conn, conn->last_activity + idle);
            } else {
                conns_.erase(conn);
                close_fd(conn->fd);
                delete conn;
            }
        }
    }
}

bool ServeServer::rearm(Connection* conn) {
    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
    event.data.ptr = conn;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event) == 0;
}

void ServeServer::release_connection(Connection* conn) {
    bool ok = false;
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conn->busy = false;
        touch_locked(conn, Clock::now());
        ok = rearm(conn);
    }
    if (!ok) close_connection(conn);
}

void ServeServer::io_loop() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    // With reaping enabled the wait must tick even when no bytes arrive —
    // that tick is what advances the timer wheel past a slow-loris.
    const int wait_ms = wheel_.empty() ? -1 : static_cast<int>(kWheelSlotMs);
    while (true) {
        const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, wait_ms);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            if (events[i].data.ptr == &wake_fd_) {
                std::uint64_t drained = 0;
                const ssize_t r = ::read(wake_fd_, &drained, sizeof drained);
                (void)r;
                continue;  // stop flag checked below, after this batch
            }
            if (events[i].data.ptr == nullptr) {
                // The listener: accept until EAGAIN.
                while (true) {
                    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                             SOCK_NONBLOCK | SOCK_CLOEXEC);
                    if (fd < 0) break;
                    bool at_capacity = false;
                    {
                        std::lock_guard<std::mutex> lock(conns_mutex_);
                        at_capacity = conns_.size() >= options_.max_connections;
                    }
                    if (at_capacity || stopping_.load(std::memory_order_acquire)) {
                        // Shed, don't ghost: a one-shot 503 + Retry-After
                        // tells a retrying client when to come back. Best
                        // effort — the fd is non-blocking and a full send
                        // buffer is not worth waiting on.
                        if (at_capacity)
                            (void)::send(fd, shed_response_.data(),
                                         shed_response_.size(), MSG_NOSIGNAL);
                        ::close(fd);
                        continue;
                    }
                    const int one = 1;
                    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
                    auto* conn = new Connection(options_.limits);
                    conn->fd = fd;
                    {
                        std::lock_guard<std::mutex> lock(conns_mutex_);
                        conns_.insert(conn);
                        touch_locked(conn, Clock::now());
                    }
                    epoll_event event{};
                    event.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
                    event.data.ptr = conn;
                    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0)
                        close_connection(conn);
                }
                continue;
            }

            // A connection became readable (EPOLLONESHOT: it is ours alone
            // until re-armed). Read everything available, feed the parser,
            // and decide: worker (complete request or protocol error),
            // re-arm (clean but incomplete), or close (EOF, no work left).
            auto* conn = static_cast<Connection*>(events[i].data.ptr);
            {
                // Claimed: from here until release/close the reaper must
                // leave the connection alone, whatever its idle budget.
                std::lock_guard<std::mutex> lock(conns_mutex_);
                conn->busy = true;
            }
            char chunk[16 * 1024];
            bool io_dead = false;
            while (true) {
                const ssize_t got = ::recv(conn->fd, chunk, sizeof chunk, 0);
                if (got > 0) {
                    (void)conn->parser.feed(
                        std::string_view(chunk, static_cast<std::size_t>(got)));
                    if (conn->parser.state() == HttpParser::State::Error) break;
                    continue;
                }
                if (got == 0) {
                    conn->saw_eof = true;
                    break;
                }
                if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                if (errno == EINTR) continue;
                io_dead = true;
                break;
            }
            if ((events[i].events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0)
                conn->saw_eof = true;

            if (io_dead) {
                close_connection(conn);
            } else if (conn->parser.has_request() ||
                       conn->parser.state() == HttpParser::State::Error) {
                enqueue(conn);  // stays busy until the worker releases it
            } else if (conn->saw_eof) {
                close_connection(conn);  // peer gone, nothing to answer
            } else {
                release_connection(conn);
            }
        }
        reap_idle();
        if (stopping_.load(std::memory_order_acquire)) break;
    }
    // Stop accepting; established connections drain through the workers.
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close_fd(listen_fd_);
}

void ServeServer::worker_loop() {
    while (true) {
        Connection* conn = nullptr;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] { return workers_stop_ || !queue_.empty(); });
            if (queue_.empty()) return;  // workers_stop_ and drained
            conn = queue_.front();
            queue_.pop_front();
        }
        if (serve_ready_requests(conn)) {
            release_connection(conn);
        } else {
            close_connection(conn);
        }
    }
}

bool ServeServer::serve_ready_requests(Connection* conn) {
    while (conn->parser.has_request()) {
        const HttpRequest request = conn->parser.take_request();
        const Response response = handler_.handle(request);
        const bool close_after =
            !request.keep_alive ||
            (conn->saw_eof && !conn->parser.has_request() &&
             conn->parser.state() != HttpParser::State::Error);
        if (!send_all(conn->fd, render_response(response.status, response.content_type,
                                                response.body, response.etag,
                                                close_after)))
            return false;
        if (!request.keep_alive) return false;
    }
    if (conn->parser.state() == HttpParser::State::Error) {
        // One best-effort error response, then drop the connection — after
        // a framing error there is no trustworthy request boundary left.
        const Response response =
            error_response(conn->parser.error_status(), "http.malformed",
                           conn->parser.error_reason());
        (void)send_all(conn->fd, render_response(response.status, response.content_type,
                                                 response.body, /*etag=*/{},
                                                 /*close=*/true));
        return false;
    }
    return !conn->saw_eof;
}

}  // namespace servet::serve
