#include "serve/http.hpp"

#include <algorithm>
#include <cctype>

#include "base/text.hpp"

namespace servet::serve {

namespace {

std::string to_lower(std::string_view text) {
    std::string out(text);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return out;
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

/// Case-insensitive token search in a comma-separated header value.
bool connection_lists(std::string_view value, std::string_view token) {
    const std::string lowered = to_lower(value);
    std::size_t pos = 0;
    while (pos <= lowered.size()) {
        const std::size_t comma = std::min(lowered.find(',', pos), lowered.size());
        if (trim(std::string_view(lowered).substr(pos, comma - pos)) == token) return true;
        pos = comma + 1;
    }
    return false;
}

}  // namespace

const std::string* HttpRequest::header(const std::string& name) const {
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

void HttpParser::fail(int status, std::string reason) {
    error_status_ = status;
    error_reason_ = std::move(reason);
}

void HttpParser::parse_available() {
    // Loop: one buffer may hold the tail of a torn request, several
    // pipelined ones, or both.
    while (error_status_ == 0) {
        if (phase_ == Phase::Head) {
            // Head ends at the first blank line; tolerate both CRLF and
            // bare LF so hand-typed test traffic parses too.
            std::size_t head_end = std::string::npos;
            std::size_t body_start = 0;
            const std::size_t crlf = buffer_.find("\r\n\r\n");
            const std::size_t lf = buffer_.find("\n\n");
            if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
                head_end = crlf;
                body_start = crlf + 4;
            } else if (lf != std::string::npos) {
                head_end = lf;
                body_start = lf + 2;
            }
            if (head_end == std::string::npos) {
                if (buffer_.size() > limits_.max_head_bytes)
                    fail(431, "request head exceeds " +
                                  std::to_string(limits_.max_head_bytes) + " bytes");
                return;  // NeedMore
            }
            if (head_end > limits_.max_head_bytes) {
                fail(431, "request head exceeds " +
                              std::to_string(limits_.max_head_bytes) + " bytes");
                return;
            }
            const std::string head = buffer_.substr(0, head_end);
            buffer_.erase(0, body_start);
            if (!parse_head(head)) return;
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
    std::size_t line_end = std::min(head.find('\n'), head.size());
    std::string_view request_line = trim(head.substr(0, line_end));
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? std::string_view::npos
                                      : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
        fail(400, "malformed request line");
        return false;
    }
    pending_.method = std::string(request_line.substr(0, sp1));
    pending_.target = std::string(trim(request_line.substr(sp1 + 1, sp2 - sp1 - 1)));
    const std::string_view version = trim(request_line.substr(sp2 + 1));
    if (!valid_method(pending_.method)) {
        fail(400, "malformed method token");
        return false;
    }
    if (pending_.target.empty() || pending_.target.front() != '/') {
        fail(400, "request target must be an absolute path");
        return false;
    }
    if (version == "HTTP/1.1") {
        pending_.version_minor = 1;
    } else if (version == "HTTP/1.0") {
        pending_.version_minor = 0;
    } else {
        fail(400, "unsupported protocol version");
        return false;
    }
    const std::size_t q = pending_.target.find('?');
    pending_.path = pending_.target.substr(0, q);
    pending_.query = q == std::string::npos ? "" : pending_.target.substr(q + 1);

    // Header lines.
    std::size_t pos = line_end == head.size() ? head.size() : line_end + 1;
    while (pos < head.size()) {
        line_end = std::min(head.find('\n', pos), head.size());
        const std::string_view line =
            trim(std::string_view(head).substr(pos, line_end - pos));
        pos = line_end + 1;
        if (line.empty()) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0) {
            fail(400, "malformed header line");
            return false;
        }
        const std::string_view name = line.substr(0, colon);
        if (name.find(' ') != std::string_view::npos ||
            name.find('\t') != std::string_view::npos) {
            fail(400, "whitespace in header name");
            return false;
        }
        pending_.headers[to_lower(name)] = std::string(trim(line.substr(colon + 1)));
    }

    if (pending_.header("transfer-encoding") != nullptr) {
        fail(501, "transfer-encoding is not supported");
        return false;
    }
    body_remaining_ = 0;
    if (const std::string* length = pending_.header("content-length")) {
        const auto value = parse_int<std::size_t>(*length);
        if (!value) {
            fail(400, "malformed content-length");
            return false;
        }
        if (*value > limits_.max_body_bytes) {
            fail(413, "body exceeds " + std::to_string(limits_.max_body_bytes) + " bytes");
            return false;
        }
        body_remaining_ = *value;
    }

    pending_.keep_alive = pending_.version_minor >= 1;
    if (const std::string* connection = pending_.header("connection")) {
        if (connection_lists(*connection, "close")) pending_.keep_alive = false;
        if (connection_lists(*connection, "keep-alive")) pending_.keep_alive = true;
    }
    return true;
}

const std::string* HttpResponse::header(const std::string& name) const {
    const auto it = headers.find(name);
    return it == headers.end() ? nullptr : &it->second;
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

void HttpResponseParser::fail(std::string reason) { error_reason_ = std::move(reason); }

HttpResponseParser::State HttpResponseParser::feed(std::string_view bytes) {
    if (state() != State::NeedMore) return state();
    buffer_.append(bytes.data(), bytes.size());

    if (phase_ == Phase::Head) {
        // Head ends at the first blank line; tolerate CRLF and bare LF
        // like the request parser.
        std::size_t head_end = std::string::npos;
        std::size_t body_start = 0;
        const std::size_t crlf = buffer_.find("\r\n\r\n");
        const std::size_t lf = buffer_.find("\n\n");
        if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
            head_end = crlf;
            body_start = crlf + 4;
        } else if (lf != std::string::npos) {
            head_end = lf;
            body_start = lf + 2;
        }
        if (head_end == std::string::npos) {
            if (buffer_.size() > limits_.max_head_bytes)
                fail("response head exceeds " + std::to_string(limits_.max_head_bytes) +
                     " bytes");
            return state();
        }
        const std::string head = buffer_.substr(0, head_end);
        buffer_.erase(0, body_start);
        if (!parse_head(head)) return state();
        phase_ = Phase::Body;
    }

    if (phase_ == Phase::Body && !until_eof_) {
        if (buffer_.size() > body_remaining_) {
            fail("bytes past the declared response body");
            return state();
        }
        if (buffer_.size() == body_remaining_) {
            response_.body = std::move(buffer_);
            buffer_.clear();
            phase_ = Phase::Done;
        }
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
    std::size_t line_end = std::min(head.find('\n'), head.size());
    const std::string_view status_line = trim(head.substr(0, line_end));
    const std::size_t sp1 = status_line.find(' ');
    if (sp1 == std::string_view::npos) {
        fail("malformed status line");
        return false;
    }
    const std::string_view version = status_line.substr(0, sp1);
    if (version == "HTTP/1.1") {
        response_.version_minor = 1;
    } else if (version == "HTTP/1.0") {
        response_.version_minor = 0;
    } else {
        fail("unsupported protocol version");
        return false;
    }
    const std::string_view rest = trim(status_line.substr(sp1 + 1));
    const std::size_t sp2 = std::min(rest.find(' '), rest.size());
    const std::string_view code = rest.substr(0, sp2);
    const auto status = parse_int<int>(code);
    if (!status || *status < 100 || *status > 599) {
        fail("malformed status code");
        return false;
    }
    response_.status = *status;
    if (sp2 < rest.size()) response_.reason = std::string(trim(rest.substr(sp2 + 1)));

    // Header lines — same grammar as requests.
    std::size_t pos = line_end == head.size() ? head.size() : line_end + 1;
    while (pos < head.size()) {
        line_end = std::min(head.find('\n', pos), head.size());
        const std::string_view line =
            trim(std::string_view(head).substr(pos, line_end - pos));
        pos = line_end + 1;
        if (line.empty()) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0) {
            fail("malformed header line");
            return false;
        }
        const std::string_view name = line.substr(0, colon);
        if (name.find(' ') != std::string_view::npos ||
            name.find('\t') != std::string_view::npos) {
            fail("whitespace in header name");
            return false;
        }
        response_.headers[to_lower(name)] = std::string(trim(line.substr(colon + 1)));
    }

    if (response_.header("transfer-encoding") != nullptr) {
        fail("transfer-encoding is not supported");
        return false;
    }
    // 304/204/1xx never carry a body regardless of headers; otherwise a
    // content-length delimits it and its absence means read-to-EOF.
    const bool bodiless =
        response_.status == 304 || response_.status == 204 || response_.status < 200;
    body_remaining_ = 0;
    until_eof_ = false;
    if (!bodiless) {
        if (const std::string* length = response_.header("content-length")) {
            const auto value = parse_int<std::size_t>(*length);
            if (!value) {
                fail("malformed content-length");
                return false;
            }
            if (*value > limits_.max_body_bytes) {
                fail("body exceeds " + std::to_string(limits_.max_body_bytes) + " bytes");
                return false;
            }
            body_remaining_ = *value;
        } else {
            until_eof_ = true;
        }
    }
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
    std::size_t pos = 0;
    while (pos <= header_value.size()) {
        const std::size_t comma =
            std::min(header_value.find(',', pos), header_value.size());
        std::string candidate = header_value.substr(pos, comma - pos);
        pos = comma + 1;
        const auto strip = [&](char c) {
            while (!candidate.empty() && candidate.front() == c)
                candidate.erase(candidate.begin());
            while (!candidate.empty() && candidate.back() == c) candidate.pop_back();
        };
        strip(' ');
        if (candidate.starts_with("W/")) candidate.erase(0, 2);
        strip('"');
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
