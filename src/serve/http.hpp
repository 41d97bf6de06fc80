// Minimal HTTP/1.1 for the profile service: incremental request and
// response parsers built for socket read loops (bytes arrive in arbitrary
// chunks — a message may be torn across many reads, or several pipelined
// requests may land in one), plus the response serializer. Both parsers
// share one message grammar: the head framer and its limit, the
// header-field loop, the version check and the body-length rule; each
// adds only its start line and its framing policy. Only what `servet
// serve` speaks: GET/PUT, Content-Length bodies, keep-alive, ETag /
// If-None-Match. Anything outside that maps to a definite 4xx/5xx status
// rather than undefined behavior — the parser is the first thing on the
// server that hostile bytes reach.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <string_view>

namespace servet::serve {

/// What requests and responses share, read by one grammar in both
/// directions: the version, the header fields and the body.
struct HttpMessage {
    int version_minor = 1;  ///< HTTP/1.<minor>; only 0 and 1 parse
    /// Header names lowercased (HTTP names are case-insensitive); values
    /// trimmed. Duplicate names: last one wins.
    std::map<std::string, std::string> headers;
    std::string body;

    /// Header value or nullptr. `name` must already be lowercase.
    [[nodiscard]] const std::string* header(const std::string& name) const;
};

struct HttpRequest : HttpMessage {
    std::string method;  ///< verbatim ("GET", "PUT", ...)
    std::string target;  ///< raw request target as sent
    std::string path;    ///< target up to '?'
    std::string query;   ///< after '?', empty when absent
    bool keep_alive = true;
};

/// Incremental request parser: feed() arbitrary byte chunks, pop complete
/// requests in arrival order. An error is sticky — the connection it came
/// from cannot be resynchronized and must be closed after the error
/// response is sent.
class HttpParser {
  public:
    struct Limits {
        std::size_t max_head_bytes = 8 * 1024;         ///< start line + headers
        std::size_t max_body_bytes = 16 * 1024 * 1024; ///< body cap, however delimited
    };

    enum class State {
        NeedMore,  ///< no complete request buffered yet
        Ready,     ///< at least one complete request waiting in take_request()
        Error,     ///< malformed input; see error_status()/error_reason()
    };

    HttpParser();  ///< default Limits
    explicit HttpParser(Limits limits);

    /// Appends bytes and parses as far as possible. Returns state().
    State feed(std::string_view bytes);

    [[nodiscard]] State state() const;
    [[nodiscard]] bool has_request() const { return !ready_.empty(); }

    /// Pops the oldest complete request. Call only when has_request().
    [[nodiscard]] HttpRequest take_request();

    /// HTTP status for the failure (400, 413, 431, 501). 0 unless Error.
    [[nodiscard]] int error_status() const { return error_status_; }
    [[nodiscard]] const std::string& error_reason() const { return error_reason_; }

    /// Bytes buffered but not yet consumed by a parsed request.
    [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size(); }

  private:
    enum class Phase { Head, Body };

    void parse_available();
    bool parse_head(std::string_view head);
    bool fail(int status, std::string reason);  ///< always false

    Limits limits_;
    std::string buffer_;
    Phase phase_ = Phase::Head;
    HttpRequest pending_;
    std::size_t body_remaining_ = 0;
    std::deque<HttpRequest> ready_;
    int error_status_ = 0;
    std::string error_reason_;
};

struct HttpResponse : HttpMessage {
    int status = 0;
    std::string reason;

    /// The etag header's raw token with the wire quotes stripped; empty
    /// when absent (render_response always quotes, so this inverts it).
    [[nodiscard]] std::string etag_token() const;
};

/// Incremental response parser — the client half of the protocol
/// (`servet fetch`). Same torn-chunk discipline, grammar and limits as
/// HttpParser; one response per connection. A response without
/// content-length (and that isn't a bodiless 304/204/1xx) is delimited
/// by connection close: call finish_eof() when the peer closes to
/// complete it. Its body is held to max_body_bytes all the same.
class HttpResponseParser {
  public:
    enum class State {
        NeedMore,  ///< response not complete yet
        Complete,  ///< response() is fully parsed
        Error,     ///< malformed input; see error_reason()
    };

    HttpResponseParser();  ///< default HttpParser::Limits
    explicit HttpResponseParser(HttpParser::Limits limits);

    /// Appends bytes and parses as far as possible. Returns state().
    /// Bytes fed once the response is complete are an Error, so the
    /// verdict does not depend on how reads split the input.
    State feed(std::string_view bytes);
    /// Signals connection close. Completes a length-less body; anything
    /// else still incomplete becomes an Error (truncated response).
    State finish_eof();

    [[nodiscard]] State state() const;
    [[nodiscard]] const HttpResponse& response() const { return response_; }
    [[nodiscard]] const std::string& error_reason() const { return error_reason_; }

  private:
    enum class Phase { Head, Body, Done };

    bool parse_head(std::string_view head);
    bool fail(std::string reason);  ///< always false

    HttpParser::Limits limits_;
    std::string buffer_;
    Phase phase_ = Phase::Head;
    bool until_eof_ = false;
    std::size_t body_remaining_ = 0;
    HttpResponse response_;
    std::string error_reason_;
};

/// Reason phrase for the statuses the service emits.
[[nodiscard]] std::string_view status_reason(int status);

/// Serializes one response. `etag` (raw token, quoted on the wire) and
/// `close` add their headers when set; a 304 carries headers but no body
/// bytes regardless of `body`. `extra_headers` is pre-rendered
/// "name: value\r\n" lines appended verbatim (e.g. Retry-After on a 503
/// shed response).
[[nodiscard]] std::string render_response(int status, std::string_view content_type,
                                          std::string_view body, std::string_view etag = {},
                                          bool close = false,
                                          std::string_view extra_headers = {});

/// True when an If-None-Match / If-Match header value names `etag`:
/// "*", a quoted or bare token in a comma-separated list; weak
/// validators (W/"...") match too — the content hash is exact.
[[nodiscard]] bool etag_list_matches(const std::string& header_value,
                                     const std::string& etag);

}  // namespace servet::serve
