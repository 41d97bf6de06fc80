#include "serve/http.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <utility>
#include <vector>

#include "base/text.hpp"

namespace servet::serve {

namespace {

using Limits = HttpParser::Limits;

/// Why a message was refused: the status a server answers with (the
/// client keeps only the reason) and the reason text.
struct Refusal {
    int status = 0;
    std::string reason;
};

std::string to_lower(std::string_view text) {
    std::string out(text);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return out;
}

bool iequals(std::string_view a, std::string_view b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](unsigned char x, unsigned char y) {
                          return std::tolower(x) == std::tolower(y);
                      });
}

/// A method token per RFC 9110: at least one tchar; the service only ever
/// routes GET/PUT but the parser must classify anything else as a clean
/// 501/405 problem rather than a 400.
bool valid_method(std::string_view method) {
    if (method.empty() || method.size() > 16) return false;
    return std::all_of(method.begin(), method.end(), [](unsigned char c) {
        return std::isalpha(c) != 0 && std::isupper(c) != 0;
    });
}

/// Case-insensitive token search in the items of a comma-separated
/// header value.
bool lists_token(const std::vector<std::string_view>& items, std::string_view token) {
    return std::any_of(items.begin(), items.end(),
                       [&](std::string_view item) { return iequals(trim(item), token); });
}

/// A head cut from the front of a buffer by frame_head().
struct Head {
    enum class Cut { Incomplete, Complete, TooLarge } cut = Cut::Incomplete;
    std::string_view text;     ///< the head without its blank line
    std::size_t consumed = 0;  ///< the head plus its blank line
};

/// The head framer: a head ends at the first blank line — CRLFCRLF, or
/// bare LFLF so hand-typed traffic parses too — and is refused past
/// `max_head_bytes` whether or not its end has arrived yet.
Head frame_head(std::string_view buffer, std::size_t max_head_bytes) {
    const std::size_t crlf = buffer.find("\r\n\r\n");
    const std::size_t lf = buffer.find("\n\n");
    const bool ends_crlf = crlf != std::string_view::npos && crlf < lf;
    const std::size_t end = ends_crlf ? crlf : lf;
    if (std::min(end, buffer.size()) > max_head_bytes) return {Head::Cut::TooLarge, {}, 0};
    if (end == std::string_view::npos) return {Head::Cut::Incomplete, {}, 0};
    return {Head::Cut::Complete, buffer.substr(0, end), end + (ends_crlf ? 4 : 2)};
}

std::string head_too_large(const char* what, const Limits& limits) {
    return std::string(what) + " head exceeds " + std::to_string(limits.max_head_bytes) +
           " bytes";
}

/// Splits a head into its trimmed start line and the field lines after it.
std::pair<std::string_view, std::string_view> split_start_line(std::string_view head) {
    const std::size_t end = std::min(head.find('\n'), head.size());
    return {trim(head.substr(0, end)), head.substr(std::min(end + 1, head.size()))};
}

/// The minor version of "HTTP/1.0" or "HTTP/1.1"; no other version parses.
std::optional<int> parse_version(std::string_view version) {
    if (version == "HTTP/1.1") return 1;
    if (version == "HTTP/1.0") return 0;
    return std::nullopt;
}

/// The header-field loop: one "name: value" per line, the name free of
/// whitespace and stored lowercased, the value trimmed; blank lines skip.
std::optional<Refusal> parse_fields(std::string_view lines, HttpMessage& message) {
    std::size_t pos = 0;
    while (pos < lines.size()) {
        const std::size_t line_end = std::min(lines.find('\n', pos), lines.size());
        const std::string_view line = trim(lines.substr(pos, line_end - pos));
        pos = line_end + 1;
        if (line.empty()) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0)
            return Refusal{400, "malformed header line"};
        const std::string_view name = line.substr(0, colon);
        if (name.find_first_of(" \t") != std::string_view::npos)
            return Refusal{400, "whitespace in header name"};
        message.headers[to_lower(name)] = std::string(trim(line.substr(colon + 1)));
    }
    return std::nullopt;
}

/// The body cap, for a declared content-length and for a body read until
/// EOF alike.
std::optional<Refusal> refuse_body(std::size_t length, const Limits& limits) {
    if (length <= limits.max_body_bytes) return std::nullopt;
    return Refusal{413, "body exceeds " + std::to_string(limits.max_body_bytes) + " bytes"};
}

/// The body-length rule: transfer-encoding is refused; a `bodiless`
/// message has length 0 whatever its headers say; otherwise content-length
/// gives the length, within the body cap, and its absence leaves
/// `*length` as it was (empty).
std::optional<Refusal> read_body_length(const HttpMessage& message, bool bodiless,
                                        const Limits& limits,
                                        std::optional<std::size_t>* length) {
    if (message.header("transfer-encoding") != nullptr)
        return Refusal{501, "transfer-encoding is not supported"};
    if (bodiless) {
        *length = 0;
        return std::nullopt;
    }
    const std::string* text = message.header("content-length");
    if (text == nullptr) return std::nullopt;
    const auto value = parse_int<std::size_t>(*text);
    if (!value) return Refusal{400, "malformed content-length"};
    if (auto refusal = refuse_body(*value, limits)) return refusal;
    *length = *value;
    return std::nullopt;
}

}  // namespace

const std::string* HttpMessage::header(const std::string& name) const {
    const auto it = headers.find(name);
    return it == headers.end() ? nullptr : &it->second;
}

HttpParser::HttpParser() : HttpParser(Limits{}) {}

HttpParser::HttpParser(Limits limits) : limits_(limits) {}

HttpParser::State HttpParser::state() const {
    if (error_status_ != 0) return State::Error;
    return ready_.empty() ? State::NeedMore : State::Ready;
}

HttpParser::State HttpParser::feed(std::string_view bytes) {
    if (error_status_ != 0) return State::Error;
    buffer_.append(bytes.data(), bytes.size());
    parse_available();
    return state();
}

HttpRequest HttpParser::take_request() {
    HttpRequest request = std::move(ready_.front());
    ready_.pop_front();
    return request;
}

bool HttpParser::fail(int status, std::string reason) {
    error_status_ = status;
    error_reason_ = std::move(reason);
    return false;
}

void HttpParser::parse_available() {
    // Loop: one buffer may hold the tail of a torn request, several
    // pipelined ones, or both.
    while (error_status_ == 0) {
        if (phase_ == Phase::Head) {
            const Head head = frame_head(buffer_, limits_.max_head_bytes);
            if (head.cut == Head::Cut::TooLarge) {
                fail(431, head_too_large("request", limits_));
                return;
            }
            if (head.cut == Head::Cut::Incomplete) return;  // NeedMore
            const bool parsed = parse_head(head.text);
            buffer_.erase(0, head.consumed);
            if (!parsed) return;
            phase_ = Phase::Body;
        }

        if (body_remaining_ > buffer_.size()) return;  // NeedMore
        pending_.body = buffer_.substr(0, body_remaining_);
        buffer_.erase(0, body_remaining_);
        body_remaining_ = 0;
        ready_.push_back(std::move(pending_));
        pending_ = HttpRequest{};
        phase_ = Phase::Head;
        if (buffer_.empty()) return;
    }
}

bool HttpParser::parse_head(std::string_view head) {
    pending_ = HttpRequest{};

    // Request line: METHOD SP TARGET SP HTTP/1.x
    const auto [request_line, fields] = split_start_line(head);
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) return fail(400, "malformed request line");
    pending_.method = std::string(request_line.substr(0, sp1));
    pending_.target = std::string(trim(request_line.substr(sp1 + 1, sp2 - sp1 - 1)));
    if (!valid_method(pending_.method)) return fail(400, "malformed method token");
    if (pending_.target.empty() || pending_.target.front() != '/')
        return fail(400, "request target must be an absolute path");
    const auto minor = parse_version(trim(request_line.substr(sp2 + 1)));
    if (!minor) return fail(400, "unsupported protocol version");
    pending_.version_minor = *minor;
    const std::size_t q = pending_.target.find('?');
    pending_.path = pending_.target.substr(0, q);
    pending_.query = q == std::string::npos ? "" : pending_.target.substr(q + 1);

    std::optional<std::size_t> length;
    auto refusal = parse_fields(fields, pending_);
    if (!refusal) refusal = read_body_length(pending_, /*bodiless=*/false, limits_, &length);
    if (refusal) return fail(refusal->status, std::move(refusal->reason));
    body_remaining_ = length.value_or(0);

    pending_.keep_alive = pending_.version_minor >= 1;
    if (const std::string* connection = pending_.header("connection")) {
        const auto items = split(*connection, ',');
        if (lists_token(items, "close")) pending_.keep_alive = false;
        if (lists_token(items, "keep-alive")) pending_.keep_alive = true;
    }
    return true;
}

std::string HttpResponse::etag_token() const {
    const std::string* raw = header("etag");
    if (raw == nullptr) return "";
    std::string_view token = *raw;
    if (token.size() >= 2 && token.front() == '"' && token.back() == '"')
        token = token.substr(1, token.size() - 2);
    return std::string(token);
}

HttpResponseParser::HttpResponseParser() : HttpResponseParser(HttpParser::Limits{}) {}

HttpResponseParser::HttpResponseParser(HttpParser::Limits limits) : limits_(limits) {}

HttpResponseParser::State HttpResponseParser::state() const {
    if (!error_reason_.empty()) return State::Error;
    return phase_ == Phase::Done ? State::Complete : State::NeedMore;
}

bool HttpResponseParser::fail(std::string reason) {
    error_reason_ = std::move(reason);
    return false;
}

HttpResponseParser::State HttpResponseParser::feed(std::string_view bytes) {
    // A complete response takes no more bytes, whichever read they come in.
    if (state() == State::Complete && !bytes.empty())
        fail("bytes past the declared response body");
    if (state() != State::NeedMore) return state();
    buffer_.append(bytes.data(), bytes.size());

    if (phase_ == Phase::Head) {
        const Head head = frame_head(buffer_, limits_.max_head_bytes);
        if (head.cut == Head::Cut::TooLarge) fail(head_too_large("response", limits_));
        if (head.cut != Head::Cut::Complete) return state();
        const bool parsed = parse_head(head.text);
        buffer_.erase(0, head.consumed);
        if (!parsed) return state();
        phase_ = Phase::Body;
    }

    if (until_eof_) {  // held to the same cap as a declared length
        if (auto refusal = refuse_body(buffer_.size(), limits_)) fail(refusal->reason);
    } else if (buffer_.size() > body_remaining_) {
        fail("bytes past the declared response body");
    } else if (buffer_.size() == body_remaining_) {
        response_.body = std::move(buffer_);
        buffer_.clear();
        phase_ = Phase::Done;
    }
    return state();
}

HttpResponseParser::State HttpResponseParser::finish_eof() {
    if (state() != State::NeedMore) return state();
    if (phase_ == Phase::Body && until_eof_) {
        response_.body = std::move(buffer_);
        buffer_.clear();
        phase_ = Phase::Done;
    } else {
        fail("connection closed mid-response");
    }
    return state();
}

bool HttpResponseParser::parse_head(std::string_view head) {
    // Status line: HTTP/1.x SP NNN [SP reason]
    const auto [status_line, fields] = split_start_line(head);
    const std::size_t sp1 = status_line.find(' ');
    if (sp1 == std::string_view::npos) return fail("malformed status line");
    const auto minor = parse_version(status_line.substr(0, sp1));
    if (!minor) return fail("unsupported protocol version");
    response_.version_minor = *minor;
    const std::string_view rest = trim(status_line.substr(sp1 + 1));
    const std::size_t sp2 = std::min(rest.find(' '), rest.size());
    const auto status = parse_int<int>(rest.substr(0, sp2));
    if (!status || *status < 100 || *status > 599) return fail("malformed status code");
    response_.status = *status;
    if (sp2 < rest.size()) response_.reason = std::string(trim(rest.substr(sp2 + 1)));

    // 304/204/1xx never carry a body regardless of headers; otherwise a
    // content-length delimits it and its absence means read-to-EOF.
    const bool bodiless =
        response_.status == 304 || response_.status == 204 || response_.status < 200;
    std::optional<std::size_t> length;
    auto refusal = parse_fields(fields, response_);
    if (!refusal) refusal = read_body_length(response_, bodiless, limits_, &length);
    if (refusal) return fail(std::move(refusal->reason));
    until_eof_ = !length.has_value();
    body_remaining_ = length.value_or(0);
    return true;
}

std::string_view status_reason(int status) {
    switch (status) {
        case 200: return "OK";
        case 201: return "Created";
        case 304: return "Not Modified";
        case 400: return "Bad Request";
        case 401: return "Unauthorized";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 411: return "Length Required";
        case 412: return "Precondition Failed";
        case 413: return "Content Too Large";
        case 431: return "Request Header Fields Too Large";
        case 500: return "Internal Server Error";
        case 501: return "Not Implemented";
        case 503: return "Service Unavailable";
        default: return "Unknown";
    }
}

bool etag_list_matches(const std::string& header_value, const std::string& etag) {
    for (std::string_view candidate : split(header_value, ',')) {
        candidate = trim(candidate);
        if (candidate.starts_with("W/")) candidate.remove_prefix(2);
        while (candidate.starts_with('"')) candidate.remove_prefix(1);
        while (candidate.ends_with('"')) candidate.remove_suffix(1);
        if (candidate == "*" || candidate == etag) return true;
    }
    return false;
}

std::string render_response(int status, std::string_view content_type,
                            std::string_view body, std::string_view etag, bool close,
                            std::string_view extra_headers) {
    // A 304 is a header-only promise about an entity the client already
    // holds: advertising content-length 0 is correct, sending bytes is not.
    const bool send_body = status != 304;
    std::string out = "HTTP/1.1 " + std::to_string(status) + ' ';
    out += status_reason(status);
    out += "\r\nserver: servet-serve/1\r\n";
    if (!content_type.empty() && send_body && !body.empty()) {
        out += "content-type: ";
        out += content_type;
        out += "\r\n";
    }
    if (!etag.empty()) {
        out += "etag: \"";
        out += etag;
        out += "\"\r\n";
    }
    if (close) out += "connection: close\r\n";
    out += extra_headers;
    out += "content-length: " + std::to_string(send_body ? body.size() : 0) + "\r\n\r\n";
    if (send_body) out += body;
    return out;
}

}  // namespace servet::serve
