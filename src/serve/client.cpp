#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "base/rng.hpp"
#include "base/text.hpp"

namespace servet::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// RAII socket so every error path closes.
struct Socket {
    int fd = -1;
    ~Socket() {
        if (fd >= 0) ::close(fd);
    }
};

/// "%g"-style rendering so "timed out after 2s" and "after 0.25s" both
/// read naturally and deterministically.
std::string format_seconds(double seconds) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%g", seconds);
    return buf;
}

struct AttemptError {
    std::string code;
    std::string error;
};

AttemptError op_timeout(const char* op, double seconds) {
    return {"net.timeout",
            std::string(op) + " timed out after " + format_seconds(seconds) + "s"};
}

AttemptError deadline_exceeded(const char* op, double seconds) {
    return {"net.deadline", std::string("overall deadline of ") +
                                format_seconds(seconds) + "s exceeded during " + op};
}

AttemptError from_errno(const char* op, int err) {
    const std::string detail = std::string(op) + ": " + std::strerror(err);
    if (err == ECONNRESET || err == EPIPE) return {"net.reset", detail};
    if (err == ECONNREFUSED || err == EHOSTUNREACH || err == ENETUNREACH ||
        err == ETIMEDOUT)
        return {"net.connect", detail};
    return {"net.io", detail};
}

enum class Wait { Ready, OpTimeout, Deadline };

/// Polls `fd` for `events`, bounded by both the per-operation timeout
/// (an inactivity budget starting now) and the overall deadline.
/// EINTR-proof: an interrupted poll resumes with recomputed remaining
/// time, so a signal can delay but never abort an exchange.
Wait wait_io(int fd, short events, double timeout_seconds, Clock::time_point deadline) {
    const Clock::time_point op_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_seconds));
    for (;;) {
        const Clock::time_point now = Clock::now();
        if (now >= deadline) return Wait::Deadline;
        if (now >= op_end) return Wait::OpTimeout;
        const Clock::time_point end = std::min(op_end, deadline);
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(end - now).count();
        pollfd waiter{fd, events, 0};
        const int rc = ::poll(&waiter, 1, static_cast<int>(std::min<long long>(
                                              left + 1, 60'000)));
        if (rc > 0) return Wait::Ready;
        if (rc < 0 && errno != EINTR && errno != EAGAIN) return Wait::OpTimeout;
    }
}

std::string render_request(const FetchOptions& options) {
    std::string request = options.method + " " + options.path + " HTTP/1.1\r\n";
    request += "host: " + options.host + ":" + std::to_string(options.port) + "\r\n";
    if (!options.etag.empty() && options.method == "GET")
        request += "if-none-match: \"" + options.etag + "\"\r\n";
    if (!options.if_match.empty()) {
        if (options.if_match == "*")
            request += "if-match: *\r\n";
        else
            request += "if-match: \"" + options.if_match + "\"\r\n";
    }
    if (!options.token.empty())
        request += "authorization: Bearer " + options.token + "\r\n";
    if (options.method != "GET" || !options.body.empty()) {
        if (!options.content_type.empty())
            request += "content-type: " + options.content_type + "\r\n";
        request += "content-length: " + std::to_string(options.body.size()) + "\r\n";
    }
    request += "connection: close\r\n\r\n";
    request += options.body;
    return request;
}

/// One connection, one request, one response. Returns the error, or
/// nullopt with `*out` filled on a completed exchange (any status).
std::optional<AttemptError> run_attempt(const FetchOptions& options,
                                        const std::string& request,
                                        Clock::time_point deadline,
                                        double deadline_seconds, HttpResponse* out) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
    if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1)
        return AttemptError{"net.option",
                            "host must be a numeric IPv4 address, got '" + options.host +
                                "'"};

    Socket sock;
    sock.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (sock.fd < 0) return from_errno("socket", errno);

    // Non-blocking connect + poll: SO_RCVTIMEO/SNDTIMEO never covered
    // connect, so an unroutable host used to block for the kernel default
    // (minutes). Now the same per-operation budget bounds it.
    const int rc = ::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc != 0) {
        if (errno != EINPROGRESS && errno != EINTR)
            return from_errno("connect", errno);
        switch (wait_io(sock.fd, POLLOUT, options.timeout_seconds, deadline)) {
            case Wait::OpTimeout:
                return op_timeout("connect", options.timeout_seconds);
            case Wait::Deadline:
                return deadline_exceeded("connect", deadline_seconds);
            case Wait::Ready: break;
        }
        int soerr = 0;
        socklen_t len = sizeof soerr;
        if (::getsockopt(sock.fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0)
            return from_errno("getsockopt", errno);
        if (soerr != 0) return from_errno("connect", soerr);
    }

    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n =
            ::send(sock.fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            switch (wait_io(sock.fd, POLLOUT, options.timeout_seconds, deadline)) {
                case Wait::OpTimeout:
                    return op_timeout("send", options.timeout_seconds);
                case Wait::Deadline:
                    return deadline_exceeded("send", deadline_seconds);
                case Wait::Ready: break;
            }
            continue;
        }
        return from_errno("send", errno);
    }

    HttpResponseParser parser;
    char buf[16 * 1024];
    bool saw_eof = false;
    for (;;) {
        const ssize_t n = ::recv(sock.fd, buf, sizeof buf, 0);
        if (n > 0) {
            if (parser.feed(std::string_view(buf, static_cast<std::size_t>(n))) !=
                HttpResponseParser::State::NeedMore)
                break;
            continue;
        }
        if (n == 0) {
            saw_eof = true;
            (void)parser.finish_eof();
            break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            switch (wait_io(sock.fd, POLLIN, options.timeout_seconds, deadline)) {
                case Wait::OpTimeout:
                    return op_timeout("recv", options.timeout_seconds);
                case Wait::Deadline:
                    return deadline_exceeded("recv", deadline_seconds);
                case Wait::Ready: break;
            }
            continue;
        }
        return from_errno("recv", errno);
    }

    if (parser.state() != HttpResponseParser::State::Complete) {
        const std::string reason = parser.error_reason().empty()
                                       ? std::string("truncated")
                                       : parser.error_reason();
        // A peer that closed before the declared body completed is a
        // transport symptom (retryable); grammar violations are not.
        if (saw_eof) return AttemptError{"net.closed", reason};
        return AttemptError{"http.malformed", "malformed response: " + reason};
    }
    *out = parser.response();
    return std::nullopt;
}

bool retryable(const std::string& code) {
    return code == "net.connect" || code == "net.timeout" || code == "net.reset" ||
           code == "net.closed" || code == "net.io";
}

/// Seconds from a Retry-After header (delta-seconds form only), or -1.
double parse_retry_after(const HttpResponse& response) {
    const std::string* value = response.header("retry-after");
    if (value == nullptr) return -1.0;
    const auto seconds = parse_finite(*value);
    return seconds && *seconds >= 0 ? *seconds : -1.0;
}

}  // namespace

std::string FetchResult::trace() const {
    std::string out;
    for (std::size_t i = 0; i < attempts.size(); ++i) {
        const FetchAttempt& attempt = attempts[i];
        out += "attempt " + std::to_string(i + 1) + ": ";
        if (attempt.code.empty()) {
            out += "ok " + std::to_string(attempt.status);
        } else {
            out += attempt.code;
            if (attempt.status != 0) out += ' ' + std::to_string(attempt.status);
            if (!attempt.error.empty()) out += ' ' + attempt.error;
        }
        if (attempt.backoff_ms > 0)
            out += "; backoff " + std::to_string(attempt.backoff_ms) + "ms";
        out += '\n';
    }
    return out;
}

FetchResult http_fetch(const FetchOptions& options) {
    const auto fail = [](std::string code, std::string error) {
        FetchResult result;
        result.code = std::move(code);
        result.error = std::move(error);
        return result;
    };
    if (options.port <= 0 || options.port > 65535)
        return fail("net.option", "port out of range: " + std::to_string(options.port));
    if (options.path.empty() || options.path.front() != '/')
        return fail("net.option",
                    "request path must be absolute, got '" + options.path + "'");
    if (options.method.empty())
        return fail("net.option", "request method must be non-empty");
    if (!(options.timeout_seconds > 0))
        return fail("net.option", "timeout must be positive");

    const double deadline_seconds = options.deadline_seconds > 0
                                        ? options.deadline_seconds
                                        : 6.0 * options.timeout_seconds;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(deadline_seconds));
    const int max_attempts = options.retry.max_attempts < 1 ? 1 : options.retry.max_attempts;
    const bool may_retry = options.method == "GET" || options.retry_unsafe;
    const std::string request = render_request(options);

    Rng backoff_rng(options.retry.seed);
    FetchResult result;
    for (int attempt_index = 0; attempt_index < max_attempts; ++attempt_index) {
        if (attempt_index > 0 && Clock::now() >= deadline) {
            result.code = "net.deadline";
            result.error = "overall deadline of " + format_seconds(deadline_seconds) +
                           "s exceeded after " + std::to_string(attempt_index) +
                           " attempt(s)";
            return result;
        }
        HttpResponse response;
        const auto error =
            run_attempt(options, request, deadline, deadline_seconds, &response);
        FetchAttempt record;
        const bool last = attempt_index + 1 >= max_attempts;

        double retry_after = -1.0;
        bool retry_now = false;
        if (!error) {
            record.status = response.status;
            // A 503 is the server shedding load and naming its own retry
            // horizon — honor it like a transport failure when the
            // request is safe to repeat.
            if (response.status == 503 && may_retry && !last) {
                record.code = "http.unavailable";
                retry_after = parse_retry_after(response);
                retry_now = true;
            }
        } else {
            record.code = error->code;
            record.error = error->error;
            retry_now = may_retry && !last && retryable(error->code);
        }

        if (retry_now) {
            // Capped exponential backoff with deterministic seeded
            // jitter; the draw sequence depends only on the policy seed.
            double base = options.retry.backoff_initial_ms;
            for (int i = 0; i < attempt_index; ++i) base *= options.retry.backoff_multiplier;
            base = std::min(base, options.retry.backoff_cap_ms);
            double ms = base * backoff_rng.jitter(options.retry.jitter);
            if (retry_after > 0)
                ms = std::max(ms, std::min(retry_after * 1000.0,
                                           options.retry.backoff_cap_ms));
            record.backoff_ms = std::llround(std::max(0.0, ms));
            result.attempts.push_back(record);
            const Clock::time_point wake =
                Clock::now() + std::chrono::milliseconds(record.backoff_ms);
            std::this_thread::sleep_until(std::min(wake, deadline));
            continue;
        }

        result.attempts.push_back(record);
        if (!error) {
            result.ok = true;
            result.response = std::move(response);
        } else {
            result.code = error->code;
            result.error = error->error;
        }
        return result;
    }
    return result;  // unreachable: the loop always returns
}

}  // namespace servet::serve
