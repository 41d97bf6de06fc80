// Tests for the profile service: the incremental HTTP parser (torn
// reads, pipelining, hostile framing), the content-addressed store
// (round-trip, HEAD, LRU, concurrent uploads), the request handler
// (routes, conditional GET), and a live ServeServer on an ephemeral
// loopback port.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/profile.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"

namespace servet::serve {
namespace {

constexpr const char* kFp = "00000000deadbeef";
constexpr const char* kOpts = "0123456789abcdef";
constexpr const char* kOpts2 = "fedcba9876543210";

std::string profile_body(const std::string& machine = "test-serve") {
    core::Profile profile;
    profile.machine = machine;
    profile.cores = 2;
    profile.page_size = 4096;
    return profile.serialize();
}

// ---- HttpParser ----

TEST(HttpParser, SimpleGet) {
    HttpParser parser;
    ASSERT_EQ(parser.feed("GET /v1/healthz HTTP/1.1\r\nhost: x\r\n\r\n"),
              HttpParser::State::Ready);
    HttpRequest request = parser.take_request();
    EXPECT_EQ(request.method, "GET");
    EXPECT_EQ(request.path, "/v1/healthz");
    EXPECT_TRUE(request.keep_alive);
    ASSERT_NE(request.header("host"), nullptr);
    EXPECT_EQ(*request.header("host"), "x");
}

TEST(HttpParser, TornAcrossSingleBytes) {
    // The worst non-blocking read pattern: one byte per feed.
    const std::string wire =
        "PUT /v1/profile/a HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
    HttpParser parser;
    for (const char c : wire) (void)parser.feed(std::string_view(&c, 1));
    ASSERT_TRUE(parser.has_request());
    HttpRequest request = parser.take_request();
    EXPECT_EQ(request.method, "PUT");
    EXPECT_EQ(request.body, "body");
    EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(HttpParser, PipelinedRequestsPopInOrder) {
    HttpParser parser;
    (void)parser.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
                      "PUT /c HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi");
    ASSERT_TRUE(parser.has_request());
    EXPECT_EQ(parser.take_request().path, "/a");
    EXPECT_EQ(parser.take_request().path, "/b");
    HttpRequest third = parser.take_request();
    EXPECT_EQ(third.path, "/c");
    EXPECT_EQ(third.body, "hi");
    EXPECT_FALSE(parser.has_request());
}

TEST(HttpParser, HeaderNamesLowercasedAndTrimmed) {
    HttpParser parser;
    (void)parser.feed("GET / HTTP/1.1\r\nX-Thing:   spaced value \r\n\r\n");
    HttpRequest request = parser.take_request();
    ASSERT_NE(request.header("x-thing"), nullptr);
    EXPECT_EQ(*request.header("x-thing"), "spaced value");
}

TEST(HttpParser, QueryStringSplit) {
    HttpParser parser;
    (void)parser.feed("GET /v1/stats?verbose=1 HTTP/1.1\r\n\r\n");
    HttpRequest request = parser.take_request();
    EXPECT_EQ(request.path, "/v1/stats");
    EXPECT_EQ(request.query, "verbose=1");
}

TEST(HttpParser, BareLfTolerated) {
    HttpParser parser;
    ASSERT_EQ(parser.feed("GET / HTTP/1.1\nhost: x\n\n"), HttpParser::State::Ready);
}

TEST(HttpParser, KeepAliveDefaults) {
    HttpParser parser;
    (void)parser.feed("GET / HTTP/1.0\r\n\r\n");
    EXPECT_FALSE(parser.take_request().keep_alive);  // 1.0 defaults to close
    (void)parser.feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    EXPECT_TRUE(parser.take_request().keep_alive);
    (void)parser.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_FALSE(parser.take_request().keep_alive);
}

TEST(HttpParser, MalformedRequestLineIs400) {
    HttpParser parser;
    EXPECT_EQ(parser.feed("NONSENSE\r\n\r\n"), HttpParser::State::Error);
    EXPECT_EQ(parser.error_status(), 400);
    // Errors are sticky: further bytes cannot resynchronize.
    EXPECT_EQ(parser.feed("GET / HTTP/1.1\r\n\r\n"), HttpParser::State::Error);
}

TEST(HttpParser, BadVersionAndTargetAre400) {
    {
        HttpParser parser;
        EXPECT_EQ(parser.feed("GET / HTTP/2.0\r\n\r\n"), HttpParser::State::Error);
        EXPECT_EQ(parser.error_status(), 400);
    }
    {
        HttpParser parser;
        EXPECT_EQ(parser.feed("GET noslash HTTP/1.1\r\n\r\n"), HttpParser::State::Error);
        EXPECT_EQ(parser.error_status(), 400);
    }
}

TEST(HttpParser, MalformedContentLengthIs400) {
    HttpParser parser;
    EXPECT_EQ(parser.feed("PUT / HTTP/1.1\r\ncontent-length: 12x\r\n\r\n"),
              HttpParser::State::Error);
    EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParser, OversizedBodyIs413) {
    HttpParser::Limits limits;
    limits.max_body_bytes = 64;
    HttpParser parser(limits);
    EXPECT_EQ(parser.feed("PUT / HTTP/1.1\r\ncontent-length: 65\r\n\r\n"),
              HttpParser::State::Error);
    EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, OversizedHeadIs431) {
    HttpParser::Limits limits;
    limits.max_head_bytes = 128;
    HttpParser parser(limits);
    const std::string huge =
        "GET / HTTP/1.1\r\nx-padding: " + std::string(256, 'a');
    EXPECT_EQ(parser.feed(huge), HttpParser::State::Error);
    EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, TransferEncodingIs501) {
    HttpParser parser;
    EXPECT_EQ(parser.feed("PUT / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
              HttpParser::State::Error);
    EXPECT_EQ(parser.error_status(), 501);
}

// ---- HttpResponseParser ----

TEST(HttpResponseParser, TornAcrossSingleBytes) {
    const std::string wire =
        "HTTP/1.1 200 OK\r\nETag: \"abc\"\r\ncontent-length: 4\r\n\r\nbody";
    HttpResponseParser parser;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i)
        ASSERT_EQ(parser.feed(wire.substr(i, 1)), HttpResponseParser::State::NeedMore) << i;
    ASSERT_EQ(parser.feed(wire.substr(wire.size() - 1)), HttpResponseParser::State::Complete);
    const HttpResponse& response = parser.response();
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.reason, "OK");
    EXPECT_EQ(response.version_minor, 1);
    EXPECT_EQ(response.etag_token(), "abc");
    EXPECT_EQ(response.body, "body");
}

struct ResponseCase {
    const char* name;
    std::string wire;
    bool eof;  ///< the peer closes after `wire`: finish_eof()
    HttpResponseParser::State state;
    std::string detail;  ///< the body when Complete, the reason when Error
};

TEST(HttpResponseParser, FramingAndRefusals) {
    using State = HttpResponseParser::State;
    const ResponseCase cases[] = {
        {"content-length body", "HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabc", false,
         State::Complete, "abc"},
        {"bodiless 304 despite content-length",
         "HTTP/1.1 304 Not Modified\r\netag: \"x\"\r\ncontent-length: 42\r\n\r\n", false,
         State::Complete, ""},
        {"bodiless 204", "HTTP/1.1 204 No Content\r\n\r\n", false, State::Complete, ""},
        {"body delimited by EOF", "HTTP/1.0 200 OK\r\n\r\nuntil close", true,
         State::Complete, "until close"},
        {"EOF before the declared body", "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nab",
         true, State::Error, "connection closed mid-response"},
        {"bytes past the declared body", "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nabc",
         false, State::Error, "bytes past the declared response body"},
        {"malformed status line", "HTTP/1.1\r\n\r\n", false, State::Error,
         "malformed status line"},
        {"malformed status code", "HTTP/1.1 2x0 OK\r\n\r\n", false, State::Error,
         "malformed status code"},
        {"status code out of range", "HTTP/1.1 600 Odd\r\n\r\n", false, State::Error,
         "malformed status code"},
        {"unsupported version", "HTTP/2.0 200 OK\r\n\r\n", false, State::Error,
         "unsupported protocol version"},
        {"transfer-encoding", "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n", false,
         State::Error, "transfer-encoding is not supported"},
        {"malformed content-length", "HTTP/1.1 200 OK\r\ncontent-length: 1x\r\n\r\n", false,
         State::Error, "malformed content-length"},
        {"declared body over the limit",
         "HTTP/1.1 200 OK\r\ncontent-length: 16777217\r\n\r\n", false, State::Error,
         "body exceeds 16777216 bytes"},
    };
    for (const ResponseCase& row : cases) {
        SCOPED_TRACE(row.name);
        HttpResponseParser parser;
        (void)parser.feed(row.wire);
        EXPECT_EQ(row.eof ? parser.finish_eof() : parser.state(), row.state);
        EXPECT_EQ(row.state == State::Error ? parser.error_reason() : parser.response().body,
                  row.detail);
    }
}

TEST(HttpResponseParser, VerdictDoesNotDependOnReadBoundaries) {
    const std::string wire = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nabc";
    HttpResponseParser whole;
    EXPECT_EQ(whole.feed(wire), HttpResponseParser::State::Error);
    EXPECT_EQ(whole.error_reason(), "bytes past the declared response body");

    HttpResponseParser torn;
    for (const char byte : wire) (void)torn.feed(std::string_view(&byte, 1));
    EXPECT_EQ(torn.state(), HttpResponseParser::State::Error);
    EXPECT_EQ(torn.error_reason(), "bytes past the declared response body");

    // Only bytes count: an empty read leaves a complete response complete.
    HttpResponseParser exact;
    EXPECT_EQ(exact.feed(wire.substr(0, wire.size() - 1)), HttpResponseParser::State::Complete);
    EXPECT_EQ(exact.feed(""), HttpResponseParser::State::Complete);
    EXPECT_EQ(exact.response().body, "ab");
}

TEST(HttpResponseParser, EofDelimitedBodyIsHeldToTheBodyLimit) {
    HttpParser::Limits limits;
    limits.max_body_bytes = 32;
    const std::string head = "HTTP/1.1 200 OK\r\n\r\n";
    {
        HttpResponseParser parser(limits);
        EXPECT_EQ(parser.feed(head + std::string(32, 'x')),
                  HttpResponseParser::State::NeedMore);
        EXPECT_EQ(parser.finish_eof(), HttpResponseParser::State::Complete);
        EXPECT_EQ(parser.response().body.size(), 32u);
    }
    HttpResponseParser parser(limits);
    EXPECT_EQ(parser.feed(head + std::string(32, 'x')), HttpResponseParser::State::NeedMore);
    EXPECT_EQ(parser.feed("x"), HttpResponseParser::State::Error);
    EXPECT_EQ(parser.error_reason(), "body exceeds 32 bytes");
    EXPECT_EQ(parser.finish_eof(), HttpResponseParser::State::Error);
}

TEST(HttpResponseParser, CompleteHeadIsHeldToTheHeadLimit) {
    // The whole head arrives in one read: the limit applies all the same,
    // in both directions.
    HttpParser::Limits limits;
    limits.max_head_bytes = 64;
    const std::string fields = "x-padding: " + std::string(200, 'a') + "\r\n\r\n";
    HttpResponseParser response(limits);
    EXPECT_EQ(response.feed("HTTP/1.1 204 No Content\r\n" + fields),
              HttpResponseParser::State::Error);
    EXPECT_EQ(response.error_reason(), "response head exceeds 64 bytes");
    HttpParser request(limits);
    EXPECT_EQ(request.feed("GET / HTTP/1.1\r\n" + fields), HttpParser::State::Error);
    EXPECT_EQ(request.error_status(), 431);
    EXPECT_EQ(request.error_reason(), "request head exceeds 64 bytes");
}

// One field grammar: a malformed header line is refused for the same
// reason whichever direction it travels.
TEST(HttpGrammar, MalformedFieldLinesRefusedInBothDirections) {
    const std::pair<const char*, const char*> rows[] = {
        {"no-colon-here", "malformed header line"},
        {": empty name", "malformed header line"},
        {"bad name: x", "whitespace in header name"},
        {"bad\tname: x", "whitespace in header name"},
    };
    for (const auto& [line, reason] : rows) {
        SCOPED_TRACE(line);
        HttpParser request;
        EXPECT_EQ(request.feed("GET / HTTP/1.1\r\n" + std::string(line) + "\r\n\r\n"),
                  HttpParser::State::Error);
        EXPECT_EQ(request.error_status(), 400);
        EXPECT_EQ(request.error_reason(), reason);
        HttpResponseParser response;
        EXPECT_EQ(response.feed("HTTP/1.1 200 OK\r\n" + std::string(line) +
                                "\r\ncontent-length: 0\r\n\r\n"),
                  HttpResponseParser::State::Error);
        EXPECT_EQ(response.error_reason(), reason);
    }
}

TEST(HttpGrammar, CommaListsMatchTrimmedItems) {
    EXPECT_TRUE(etag_list_matches("\"abc\"", "abc"));
    EXPECT_TRUE(etag_list_matches("abc", "abc"));
    EXPECT_TRUE(etag_list_matches("\"x\", W/\"abc\"", "abc"));
    EXPECT_TRUE(etag_list_matches("\"x\" ,*", "abc"));
    EXPECT_FALSE(etag_list_matches("\"abcd\", \"ab\"", "abc"));
    EXPECT_FALSE(etag_list_matches("", "abc"));

    HttpParser parser;
    (void)parser.feed("GET / HTTP/1.0\r\nConnection: TE, Keep-Alive\r\n\r\n");
    EXPECT_TRUE(parser.take_request().keep_alive);
    (void)parser.feed("GET / HTTP/1.1\r\nConnection: upgrade ,CLOSE\r\n\r\n");
    EXPECT_FALSE(parser.take_request().keep_alive);
}

TEST(HttpRender, ConditionalGetResponseShape) {
    const std::string ok = render_response(200, "text/plain", "body", "abc");
    EXPECT_NE(ok.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_NE(ok.find("etag: \"abc\"\r\n"), std::string::npos);
    EXPECT_NE(ok.find("content-length: 4\r\n"), std::string::npos);
    EXPECT_EQ(ok.substr(ok.size() - 4), "body");

    // A 304 advertises length 0 and carries no body bytes.
    const std::string not_modified = render_response(304, "text/plain", "body", "abc");
    EXPECT_NE(not_modified.find("content-length: 0\r\n"), std::string::npos);
    EXPECT_EQ(not_modified.find("\r\n\r\nbody"), std::string::npos);
}

// ---- ProfileStore ----

class StoreTest : public ::testing::Test {
  protected:
    void SetUp() override {
        char pattern[] = "/tmp/servet-store-XXXXXX";
        ASSERT_NE(::mkdtemp(pattern), nullptr);
        root_ = pattern;
    }
    void TearDown() override {
        // The store writes a small fixed layout: <root>/<fp>/{*.profile,HEAD}.
        (void)::system(("rm -rf " + root_).c_str());
    }
    std::string root_;
};

TEST_F(StoreTest, ValidKey) {
    EXPECT_TRUE(ProfileStore::valid_key("0123456789abcdef"));
    EXPECT_FALSE(ProfileStore::valid_key("0123456789ABCDEF"));  // uppercase
    EXPECT_FALSE(ProfileStore::valid_key("0123456789abcde"));   // short
    EXPECT_FALSE(ProfileStore::valid_key("0123456789abcdef0"));  // long
    EXPECT_FALSE(ProfileStore::valid_key("../../../etc/pass"));  // traversal-shaped
    EXPECT_FALSE(ProfileStore::valid_key(""));
}

TEST_F(StoreTest, PutGetRoundTrip) {
    ProfileStore store(root_, 8);
    const std::string body = profile_body();
    ASSERT_EQ(store.put(kFp, kOpts, body), ProfileStore::PutStatus::Stored);
    const auto got = store.get(kFp, kOpts);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, body);
    EXPECT_EQ(store.head(kFp), kOpts);
}

TEST_F(StoreTest, HeadTracksLatestUpload) {
    ProfileStore store(root_, 8);
    ASSERT_EQ(store.put(kFp, kOpts, profile_body("a")), ProfileStore::PutStatus::Stored);
    ASSERT_EQ(store.put(kFp, kOpts2, profile_body("b")), ProfileStore::PutStatus::Stored);
    EXPECT_EQ(store.head(kFp), kOpts2);
    // Both uploads stay addressable.
    EXPECT_TRUE(store.get(kFp, kOpts).has_value());
    EXPECT_TRUE(store.get(kFp, kOpts2).has_value());
}

TEST_F(StoreTest, RejectsBadKeysAndBodies) {
    ProfileStore store(root_, 8);
    EXPECT_EQ(store.put("not-a-key", kOpts, profile_body()),
              ProfileStore::PutStatus::InvalidKey);
    EXPECT_EQ(store.put(kFp, "NOPE", profile_body()),
              ProfileStore::PutStatus::InvalidKey);
    EXPECT_EQ(store.put(kFp, kOpts, "this is not a profile"),
              ProfileStore::PutStatus::InvalidProfile);
    EXPECT_FALSE(store.get(kFp, kOpts).has_value());
    EXPECT_FALSE(store.head(kFp).has_value());
}

TEST_F(StoreTest, ColdReadComesFromDisk) {
    const std::string body = profile_body();
    {
        ProfileStore writer(root_, 8);
        ASSERT_EQ(writer.put(kFp, kOpts, body), ProfileStore::PutStatus::Stored);
    }
    ProfileStore reader(root_, 8);  // fresh instance: empty LRU, empty heads
    EXPECT_EQ(reader.head(kFp), kOpts);
    const auto got = reader.get(kFp, kOpts);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, body);
    EXPECT_EQ(reader.stats().cache_misses, 1u);
    // Second read is a hit.
    EXPECT_TRUE(reader.get(kFp, kOpts).has_value());
    EXPECT_EQ(reader.stats().cache_hits, 1u);
}

TEST_F(StoreTest, LruEvictsBeyondCapacity) {
    ProfileStore store(root_, 2);
    const char* opts[] = {"000000000000000a", "000000000000000b", "000000000000000c"};
    for (const char* o : opts)
        ASSERT_EQ(store.put(kFp, o, profile_body(o)), ProfileStore::PutStatus::Stored);
    EXPECT_GE(store.stats().evictions, 1u);
    // Evicted entries are still served — from disk.
    for (const char* o : opts) EXPECT_TRUE(store.get(kFp, o).has_value());
}

TEST_F(StoreTest, ConcurrentUploadsAllLand) {
    ProfileStore store(root_, 32);
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::atomic<int> stored{0};
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            char options[17];
            std::snprintf(options, sizeof options, "%016x", 0xa0 + t);
            if (store.put(kFp, options, profile_body(std::to_string(t))) ==
                ProfileStore::PutStatus::Stored)
                stored.fetch_add(1);
        });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(stored.load(), kThreads);
    for (int t = 0; t < kThreads; ++t) {
        char options[17];
        std::snprintf(options, sizeof options, "%016x", 0xa0 + t);
        EXPECT_TRUE(store.get(kFp, options).has_value()) << options;
    }
    // HEAD names whichever upload won the race — but a complete one.
    const auto head = store.head(kFp);
    ASSERT_TRUE(head.has_value());
    EXPECT_TRUE(ProfileStore::valid_key(*head));
}

// ---- Handler ----

class HandlerTest : public StoreTest {
  protected:
    HttpRequest request_of(const std::string& wire) {
        HttpParser parser;
        (void)parser.feed(wire);
        return parser.take_request();
    }
};

TEST_F(HandlerTest, RoutesAndConditionalGet) {
    ProfileStore store(root_, 8);
    Handler handler(store);
    const std::string body = profile_body();

    Response health = handler.handle(request_of("GET /v1/healthz HTTP/1.1\r\n\r\n"));
    EXPECT_EQ(health.status, 200);

    Response put = handler.handle(request_of(
        std::string("PUT /v1/profile/") + kFp + "/" + kOpts +
        " HTTP/1.1\r\ncontent-length: " + std::to_string(body.size()) + "\r\n\r\n" +
        body));
    EXPECT_EQ(put.status, 201);

    Response get = handler.handle(request_of(
        std::string("GET /v1/profile/") + kFp + " HTTP/1.1\r\n\r\n"));
    EXPECT_EQ(get.status, 200);
    EXPECT_EQ(get.body, body);
    EXPECT_EQ(get.etag, kOpts);

    Response revalidate = handler.handle(request_of(
        std::string("GET /v1/profile/") + kFp + " HTTP/1.1\r\nif-none-match: \"" +
        kOpts + "\"\r\n\r\n"));
    EXPECT_EQ(revalidate.status, 304);
    EXPECT_TRUE(revalidate.body.empty());

    Response stale = handler.handle(request_of(
        std::string("GET /v1/profile/") + kFp + " HTTP/1.1\r\nif-none-match: \"" +
        kOpts2 + "\"\r\n\r\n"));
    EXPECT_EQ(stale.status, 200);
}

TEST_F(HandlerTest, ErrorRoutes) {
    ProfileStore store(root_, 8);
    Handler handler(store);
    EXPECT_EQ(handler.handle(request_of("GET /nope HTTP/1.1\r\n\r\n")).status, 404);
    EXPECT_EQ(handler.handle(request_of("GET /v1/profile/BAD HTTP/1.1\r\n\r\n")).status,
              400);
    EXPECT_EQ(handler.handle(request_of(std::string("GET /v1/profile/") + kFp +
                                        " HTTP/1.1\r\n\r\n")).status,
              404);  // valid key, nothing stored
    EXPECT_EQ(handler.handle(request_of("DELETE /v1/healthz HTTP/1.1\r\n\r\n")).status,
              405);
    EXPECT_EQ(handler.handle(request_of(std::string("PUT /v1/profile/") + kFp +
                                        " HTTP/1.1\r\ncontent-length: 0\r\n\r\n"))
                  .status,
              400);  // PUT without the options segment
    Response stats = handler.handle(request_of("GET /v1/stats HTTP/1.1\r\n\r\n"));
    EXPECT_EQ(stats.status, 200);
    EXPECT_NE(stats.body.find("\"client_errors\""), std::string::npos);
}

// ---- Live server over loopback ----

class ServerTest : public StoreTest {
  protected:
    int connect_to(std::uint16_t port) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return -1;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }

    /// Sends `request` on a fresh connection and reads to EOF.
    std::string round_trip(std::uint16_t port, const std::string& request) {
        const int fd = connect_to(port);
        if (fd < 0) return "";
        std::size_t sent = 0;
        while (sent < request.size()) {
            const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                                     MSG_NOSIGNAL);
            if (n <= 0) break;
            sent += static_cast<std::size_t>(n);
        }
        std::string response;
        char chunk[4096];
        while (true) {
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0) break;
            response.append(chunk, static_cast<std::size_t>(n));
        }
        ::close(fd);
        return response;
    }
};

TEST_F(ServerTest, EndToEndUploadFetchRevalidate) {
    ServeOptions options;
    options.store_dir = root_ + "/store";
    options.threads = 2;
    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_NE(server.port(), 0);

    const std::string body = profile_body();
    const std::string put_response = round_trip(
        server.port(), std::string("PUT /v1/profile/") + kFp + "/" + kOpts +
                           " HTTP/1.1\r\ncontent-length: " +
                           std::to_string(body.size()) +
                           "\r\nconnection: close\r\n\r\n" + body);
    EXPECT_EQ(put_response.compare(0, 12, "HTTP/1.1 201"), 0) << put_response;

    const std::string get_response = round_trip(
        server.port(), std::string("GET /v1/profile/") + kFp + "/" + kOpts +
                           " HTTP/1.1\r\nconnection: close\r\n\r\n");
    EXPECT_EQ(get_response.compare(0, 12, "HTTP/1.1 200"), 0) << get_response;
    const std::size_t head_end = get_response.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos);
    EXPECT_EQ(get_response.substr(head_end + 4), body);  // byte-identical

    const std::string revalidate_response = round_trip(
        server.port(), std::string("GET /v1/profile/") + kFp +
                           " HTTP/1.1\r\nif-none-match: \"" + kOpts +
                           "\"\r\nconnection: close\r\n\r\n");
    EXPECT_EQ(revalidate_response.compare(0, 12, "HTTP/1.1 304"), 0)
        << revalidate_response;

    const std::string bad_response = round_trip(server.port(), "GARBAGE\r\n\r\n");
    EXPECT_EQ(bad_response.compare(0, 12, "HTTP/1.1 400"), 0) << bad_response;

    server.request_stop();
    server.join();
}

TEST_F(ServerTest, KeepAliveServesPipelinedRequests) {
    ServeOptions options;
    options.store_dir = root_ + "/store";
    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    const std::string wire =
        "GET /v1/healthz HTTP/1.1\r\n\r\n"
        "GET /v1/healthz HTTP/1.1\r\n\r\n"
        "GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n";
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    std::string response;
    char chunk[4096];
    while (true) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) break;
        response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    std::size_t count = 0;
    for (std::size_t at = response.find("HTTP/1.1 200"); at != std::string::npos;
         at = response.find("HTTP/1.1 200", at + 1))
        ++count;
    EXPECT_EQ(count, 3u) << response;

    server.request_stop();
    server.join();
}

TEST_F(ServerTest, StopWithIdleConnectionJoinsCleanly) {
    ServeOptions options;
    options.store_dir = root_ + "/store";
    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const int fd = connect_to(server.port());  // idle keep-alive, never written
    ASSERT_GE(fd, 0);
    server.request_stop();
    server.join();  // must not hang on the idle connection
    ::close(fd);
}

}  // namespace
}  // namespace servet::serve
