#include "serve/handlers.hpp"

#include <vector>

#include "base/text.hpp"

namespace servet::serve {

namespace {

constexpr const char* kProfileContentType = "text/x-servet-profile";

/// Splits a path into non-empty segments ("/v1/profile/a" -> v1,profile,a).
std::vector<std::string> segments_of(const std::string& path) {
    std::vector<std::string> segments;
    for (const std::string_view segment : split(path, '/'))
        if (!segment.empty()) segments.emplace_back(segment);
    return segments;
}

/// Equality that touches every byte regardless of where the first
/// mismatch is, so response timing does not leak the token prefix.
bool constant_time_equals(const std::string& a, const std::string& b) {
    unsigned diff = a.size() == b.size() ? 0u : 1u;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        diff |= static_cast<unsigned>(static_cast<unsigned char>(a[i]) ^
                                      static_cast<unsigned char>(b[i]));
    return diff == 0;
}

}  // namespace

Response error_response(int status, std::string_view code, std::string_view message) {
    Response response;
    response.status = status;
    response.content_type = "application/json";
    response.body = "{\"error\": \"" + std::string(code) + "\", \"message\": \"" +
                    json_escape(message) + "\"}\n";
    return response;
}

bool Handler::authorized(const HttpRequest& request) const {
    if (token_.empty()) return true;
    const std::string* header = request.header("authorization");
    if (header == nullptr) return false;
    return constant_time_equals(*header, "Bearer " + token_);
}

Response Handler::handle(const HttpRequest& request) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    const auto fail = [&](int status, std::string_view code, std::string_view message) {
        if (status >= 400 && status < 500)
            client_errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response(status, code, message);
    };

    if (request.method != "GET" && request.method != "PUT")
        return fail(405, "http.method", "only GET and PUT are served");

    const std::vector<std::string> segments = segments_of(request.path);
    if (segments.size() == 2 && segments[0] == "v1" && segments[1] == "healthz") {
        if (request.method != "GET") return fail(405, "http.method", "healthz is GET-only");
        Response response;
        response.body = "ok\n";
        return response;
    }
    // Everything past the liveness probe is token-gated when the server
    // holds one; healthz stays open so load balancers and the watch
    // push path can probe reachability without the secret.
    if (!authorized(request)) {
        auth_failures_.fetch_add(1, std::memory_order_relaxed);
        return fail(401, "auth.token", "missing or invalid authorization token");
    }

    if (segments.size() == 2 && segments[0] == "v1" && segments[1] == "stats") {
        if (request.method != "GET") return fail(405, "http.method", "stats is GET-only");
        Response response;
        response.content_type = "application/json";
        response.body = stats_json();
        return response;
    }

    if (segments.size() == 5 && segments[0] == "v1" && segments[1] == "series") {
        const std::string& fingerprint = segments[2];
        const std::string& opts = segments[3];
        const std::string& tick = segments[4];
        if (!ProfileStore::valid_key(fingerprint) || !ProfileStore::valid_key(opts))
            return fail(400, "store.key",
                        "series keys must be 16 lowercase hex digits");
        if (!ProfileStore::valid_tick(tick))
            return fail(400, "store.key",
                        "tick must be 1-10 decimal digits, got '" + tick + "'");
        if (request.method == "PUT") {
            if (request.header("content-length") == nullptr)
                return fail(411, "http.length", "PUT requires content-length");
            switch (store_.put_sample(fingerprint, opts, tick, request.body)) {
                case ProfileStore::PutStatus::Stored: {
                    samples_.fetch_add(1, std::memory_order_relaxed);
                    Response response;
                    response.status = 201;
                    response.content_type = "application/json";
                    response.body = "{\"stored\": true, \"tick\": " + tick + "}\n";
                    return response;
                }
                case ProfileStore::PutStatus::InvalidKey:
                    return fail(400, "store.key", "invalid series key");
                case ProfileStore::PutStatus::InvalidProfile:
                    return fail(400, "sample.parse",
                                "body is not a watch series sample");
                case ProfileStore::PutStatus::CasMismatch:
                case ProfileStore::PutStatus::IoError:
                    return fail(500, "store.io", "could not persist the sample");
            }
            return fail(500, "store.io", "unreachable put status");
        }
        const auto body = store_.get_sample(fingerprint, opts, tick);
        if (!body) {
            not_found_.fetch_add(1, std::memory_order_relaxed);
            return fail(404, "sample.unknown",
                        "no sample stored for " + fingerprint + "/" + opts + "/" + tick);
        }
        gets_.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.body = *body;
        return response;
    }

    if (segments.size() < 3 || segments.size() > 4 || segments[0] != "v1" ||
        segments[1] != "profile")
        return fail(404, "http.path", "unknown resource " + request.path);

    const std::string& fingerprint = segments[2];
    if (!ProfileStore::valid_key(fingerprint))
        return fail(400, "store.key",
                    "fingerprint must be 16 lowercase hex digits, got '" + fingerprint +
                        "'");

    if (request.method == "PUT") {
        if (segments.size() != 4)
            return fail(400, "store.key", "PUT needs /v1/profile/<fp>/<options>");
        if (request.header("content-length") == nullptr)
            return fail(411, "http.length", "PUT requires content-length");
        switch (store_.put(fingerprint, segments[3], request.body,
                           request.header("if-match"))) {
            case ProfileStore::PutStatus::Stored: {
                puts_.fetch_add(1, std::memory_order_relaxed);
                Response response;
                response.status = 201;
                response.content_type = "application/json";
                response.etag = segments[3];
                response.body = "{\"stored\": true, \"fingerprint\": \"" + fingerprint +
                                "\", \"options\": \"" + segments[3] + "\"}\n";
                return response;
            }
            case ProfileStore::PutStatus::InvalidKey:
                return fail(400, "store.key",
                            "options hash must be 16 lowercase hex digits");
            case ProfileStore::PutStatus::InvalidProfile:
                return fail(400, "profile.parse",
                            "body is not a parseable servet profile");
            case ProfileStore::PutStatus::IoError:
                return fail(500, "store.io", "could not persist the profile");
            case ProfileStore::PutStatus::CasMismatch:
                cas_conflicts_.fetch_add(1, std::memory_order_relaxed);
                return fail(412, "store.cas",
                            "If-Match precondition failed: HEAD for " + fingerprint +
                                " is not what the request named");
        }
        return fail(500, "store.io", "unreachable put status");
    }

    // GET /v1/profile/<fp>[/<opts>]
    std::string options;
    if (segments.size() == 4) {
        options = segments[3];
        if (!ProfileStore::valid_key(options))
            return fail(400, "store.key",
                        "options hash must be 16 lowercase hex digits, got '" + options +
                            "'");
    } else {
        const auto latest = store_.head(fingerprint);
        if (!latest) {
            not_found_.fetch_add(1, std::memory_order_relaxed);
            return fail(404, "profile.unknown",
                        "no profile stored for fingerprint " + fingerprint);
        }
        options = *latest;
    }

    // The options hash is the validator: a fleet client that already holds
    // this exact profile revalidates for the cost of the headers alone.
    if (const std::string* if_none_match = request.header("if-none-match")) {
        if (etag_list_matches(*if_none_match, options)) {
            not_modified_.fetch_add(1, std::memory_order_relaxed);
            Response response;
            response.status = 304;
            response.etag = options;
            return response;
        }
    }

    const auto body = store_.get(fingerprint, options);
    if (!body) {
        not_found_.fetch_add(1, std::memory_order_relaxed);
        return fail(404, "profile.unknown",
                    "no profile stored for " + fingerprint + "/" + options);
    }
    gets_.fetch_add(1, std::memory_order_relaxed);
    Response response;
    response.content_type = kProfileContentType;
    response.etag = options;
    response.body = *body;
    return response;
}

std::string Handler::stats_json() const {
    const StoreStats store = store_.stats();
    std::string out = "{\n";
    const auto field = [&out](const char* name, std::uint64_t value, bool last = false) {
        out += "  \"";
        out += name;
        out += "\": " + std::to_string(value) + (last ? "\n" : ",\n");
    };
    field("requests", requests_.load(std::memory_order_relaxed));
    field("gets", gets_.load(std::memory_order_relaxed));
    field("puts", puts_.load(std::memory_order_relaxed));
    field("not_modified", not_modified_.load(std::memory_order_relaxed));
    field("not_found", not_found_.load(std::memory_order_relaxed));
    field("client_errors", client_errors_.load(std::memory_order_relaxed));
    field("auth_failures", auth_failures_.load(std::memory_order_relaxed));
    field("cas_conflicts", cas_conflicts_.load(std::memory_order_relaxed));
    field("samples", samples_.load(std::memory_order_relaxed));
    field("cache_hits", store.cache_hits);
    field("cache_misses", store.cache_misses);
    field("cache_evictions", store.evictions);
    field("stored_profiles", store.puts, /*last=*/true);
    out += "}\n";
    return out;
}

}  // namespace servet::serve
