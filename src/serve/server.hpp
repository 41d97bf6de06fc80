// The socket layer of `servet serve`: a non-blocking epoll accept/read
// loop feeding a small worker pool. One I/O thread owns the listener and
// every idle connection; it reads whatever bytes are available, feeds
// each connection's incremental HttpParser, and hands a connection to the
// worker queue the moment it holds at least one complete request (or a
// protocol error). Connections are registered EPOLLONESHOT, so ownership
// is unambiguous: while a worker is computing and writing responses the
// fd cannot fire again; the worker re-arms it (or closes it) when done.
// Shutdown is signal-driven: request_stop() is async-signal-safe (an
// eventfd write), in-flight requests finish, and join() returns once the
// listener, workers, and every connection are gone — `servet serve` exits
// 0 on SIGTERM.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "serve/handlers.hpp"
#include "serve/store.hpp"

namespace servet::serve {

struct ServeOptions {
    std::string store_dir = "servet-store";
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; read the bound one from port()
    int threads = 2;         ///< worker pool size
    std::size_t cache_entries = 256;    ///< store LRU capacity
    /// Beyond this, new connections are shed with a best-effort
    /// `503 + Retry-After` instead of being accepted unboundedly.
    std::size_t max_connections = 1024;
    /// A connection idle this long (no bytes, no in-flight request) is
    /// reaped — the slow-loris defense. <= 0 disables reaping.
    double idle_timeout_seconds = 30.0;
    /// Shared-secret auth token; when non-empty every route except
    /// /v1/healthz requires `authorization: Bearer <token>`.
    std::string token;
    HttpParser::Limits limits;
};

class ServeServer {
  public:
    explicit ServeServer(ServeOptions options);
    ~ServeServer();

    ServeServer(const ServeServer&) = delete;
    ServeServer& operator=(const ServeServer&) = delete;

    /// Binds, listens, and spawns the I/O thread + workers. False (with a
    /// diagnostic in `error`) when the socket setup fails.
    [[nodiscard]] bool start(std::string* error);

    /// The bound TCP port (resolves port 0 requests).
    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// Initiates shutdown. Async-signal-safe: callable from a SIGTERM
    /// handler. Idempotent.
    void request_stop();

    /// Blocks until the server has fully shut down (requires a
    /// request_stop(), from a signal handler or another thread).
    void join();

    [[nodiscard]] ProfileStore& store() { return store_; }
    [[nodiscard]] Handler& handler() { return handler_; }

  private:
    using Clock = std::chrono::steady_clock;
    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

    struct Connection {
        int fd = -1;
        HttpParser parser;
        bool saw_eof = false;  ///< peer half-closed; close once responses drain
        /// True from the moment the I/O thread claims the readable event
        /// until the worker re-arms it — the reaper never touches a busy
        /// connection (the worker owns its lifetime). Guarded by
        /// conns_mutex_.
        bool busy = false;
        Clock::time_point last_activity{};  ///< guarded by conns_mutex_
        std::size_t wheel_slot = kNoSlot;   ///< guarded by conns_mutex_
        explicit Connection(HttpParser::Limits limits) : parser(limits) {}
    };

    void io_loop();
    void worker_loop();
    /// Serves every complete request buffered on the connection. Returns
    /// false when the connection must close (error, Connection: close,
    /// peer EOF, write failure).
    [[nodiscard]] bool serve_ready_requests(Connection* conn);
    void enqueue(Connection* conn);
    void close_connection(Connection* conn);
    [[nodiscard]] bool rearm(Connection* conn);
    /// Hands a connection back to the epoll set: clears busy, refreshes
    /// its idle budget, and re-arms — all under conns_mutex_, so the
    /// reaper can never free a connection the worker still holds. Closes
    /// it when re-arming fails.
    void release_connection(Connection* conn);

    // ---- idle-connection timer wheel (slow-loris defense) ----
    // Hashed wheel with fixed-width slots; a connection sits in the slot
    // where its idle budget runs out. Lazily re-hashed on expiry: the
    // reaper re-places connections that turned out to be active or busy
    // and closes the truly idle. Runs on the I/O thread between epoll
    // batches; every wheel/flag mutation happens under conns_mutex_.
    [[nodiscard]] std::size_t wheel_slot_for(Clock::time_point when) const;
    void wheel_place_locked(Connection* conn, Clock::time_point expiry);
    void wheel_remove_locked(Connection* conn);
    void touch_locked(Connection* conn, Clock::time_point now);
    void reap_idle();

    ServeOptions options_;
    ProfileStore store_;
    Handler handler_;

    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int wake_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    bool started_ = false;
    bool joined_ = false;

    std::thread io_thread_;
    std::vector<std::thread> workers_;

    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<Connection*> queue_;
    bool workers_stop_ = false;

    std::mutex conns_mutex_;
    std::unordered_set<Connection*> conns_;
    std::vector<std::unordered_set<Connection*>> wheel_;  ///< empty = reaping off
    Clock::time_point wheel_epoch_{};
    std::uint64_t wheel_cursor_ = 0;  ///< last absolute tick processed
    std::string shed_response_;       ///< pre-rendered 503 + Retry-After
};

}  // namespace servet::serve
