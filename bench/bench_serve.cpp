// Load generator for `servet serve` (CI job perf-smoke, baseline
// BENCH_serve.json). Starts a ServeServer in-process on an ephemeral
// loopback port with ONE worker thread, uploads one profile, then
// hammers the hot path from a keep-alive client pipelining batches of
// requests. Two scenarios:
//
//   cached_get   GET /v1/profile/<fp>/<opts>       (200 + full body, LRU hit)
//   revalidate   GET /v1/profile/<fp> + If-None-Match  (304, headers only)
//
// The primary metric is cached_get requests/second — the fleet steady
// state where every node re-fetches its profile. The bar from ROADMAP:
// >100k req/s on one core. --json emits the perf_smoke.py feed.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "base/cli.hpp"
#include "base/text.hpp"
#include "core/profile.hpp"
#include "serve/server.hpp"

using namespace servet;

namespace {

constexpr const char* kFingerprint = "00c0ffee00c0ffee";
constexpr const char* kOptions = "0123456789abcdef";

/// A small but structurally real profile: the serve store parses every
/// uploaded body, so the benchmark must pay the same parse cost a real
/// client would.
std::string make_profile_body() {
    core::Profile profile;
    profile.machine = "bench-serve";
    profile.cores = 4;
    profile.page_size = 4096;
    core::ProfileCacheLevel l1;
    l1.size = 32 * 1024;
    l1.method = "bench";
    profile.caches.push_back(l1);
    return profile.serialize();
}

int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
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

bool send_all(int fd, std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool recv_exact(int fd, std::size_t want, std::string* out = nullptr) {
    char chunk[64 * 1024];
    std::size_t got = 0;
    while (got < want) {
        const std::size_t ask = std::min(sizeof chunk, want - got);
        const ssize_t n = ::recv(fd, chunk, ask, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        if (out != nullptr) out->append(chunk, static_cast<std::size_t>(n));
        got += static_cast<std::size_t>(n);
    }
    return true;
}

/// One request/response exchange; returns the full response (head+body)
/// by reading the head, then content-length more bytes.
bool exchange(int fd, const std::string& request, std::string* response) {
    if (!send_all(fd, request)) return false;
    response->clear();
    while (response->find("\r\n\r\n") == std::string::npos) {
        if (!recv_exact(fd, 1, response)) return false;
        if (response->size() > 64 * 1024) return false;
    }
    const std::size_t head_end = response->find("\r\n\r\n") + 4;
    std::size_t body = 0;
    const std::size_t cl = response->find("content-length: ");
    if (cl != std::string::npos && cl < head_end) {
        const std::size_t value = cl + 16;
        const auto length = parse_int<std::size_t>(
            std::string_view(*response).substr(value, response->find('\r', value) - value));
        if (!length) return false;
        body = *length;
    }
    const std::size_t have = response->size() - head_end;
    return have >= body || recv_exact(fd, body - have, response);
}

struct ScenarioResult {
    std::string name;
    std::uint64_t requests = 0;
    double seconds = 0;
    double reqs_per_sec = 0;
};

/// Pipelines `batch`-request blocks over one keep-alive connection for
/// ~`seconds`. Counts responses by exact byte totals: every request in a
/// scenario is identical, so every response is byte-identical too.
ScenarioResult run_scenario(const std::string& name, std::uint16_t port,
                            const std::string& request, double seconds, int batch) {
    ScenarioResult result;
    result.name = name;
    const int fd = connect_loopback(port);
    if (fd < 0) return result;

    std::string response;
    if (!exchange(fd, request, &response) || response.compare(0, 9, "HTTP/1.1 ") != 0) {
        ::close(fd);
        return result;
    }
    const std::size_t response_size = response.size();

    std::string block;
    for (int i = 0; i < batch; ++i) block += request;

    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::duration<double>(seconds);
    std::uint64_t requests = 1;  // the warm-up exchange above
    while (std::chrono::steady_clock::now() < deadline) {
        if (!send_all(fd, block)) break;
        if (!recv_exact(fd, response_size * static_cast<std::size_t>(batch))) break;
        requests += static_cast<std::uint64_t>(batch);
    }
    const auto end = std::chrono::steady_clock::now();
    ::close(fd);

    result.requests = requests;
    result.seconds = std::chrono::duration<double>(end - start).count();
    if (result.seconds > 0)
        result.reqs_per_sec = static_cast<double>(requests) / result.seconds;
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("bench_serve: loopback load generator for the profile service.");
    cli.add_number("seconds", "measured wall time per scenario", "1.0", 0,
                   CliParser::Bound::Exclusive);
    cli.add_int("batch", "pipelined requests per write", "32", 1);
    cli.add_int("threads", "server worker threads (1 = the ROADMAP bar)", "1", 1, 64);
    cli.add_flag("json", "emit the perf_smoke.py JSON feed instead of text");
    if (!cli.parse(argc, argv)) return 2;
    const double seconds = *cli.option_double("seconds");
    const int batch = static_cast<int>(*cli.option_int("batch"));

    serve::ServeOptions options;
    options.store_dir = "/tmp/bench-serve-store." + std::to_string(::getpid());
    // Removes the store on every exit path, after the server has stopped.
    struct StoreCleanup {
        std::string dir;
        ~StoreCleanup() {
            std::error_code ignored;
            std::filesystem::remove_all(dir, ignored);
        }
    } const store_cleanup{options.store_dir};
    options.threads = static_cast<int>(*cli.option_int("threads"));
    serve::ServeServer server(options);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "bench_serve: %s\n", error.c_str());
        return 2;
    }

    const std::string body = make_profile_body();
    const std::string target =
        std::string("/v1/profile/") + kFingerprint + "/" + kOptions;
    const std::string put = "PUT " + target + " HTTP/1.1\r\ncontent-length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body;
    {
        const int fd = connect_loopback(server.port());
        std::string response;
        if (fd < 0 || !exchange(fd, put, &response) ||
            response.compare(0, 12, "HTTP/1.1 201") != 0) {
            std::fprintf(stderr, "bench_serve: seeding PUT failed\n");
            if (fd >= 0) ::close(fd);
            return 2;
        }
        ::close(fd);
    }

    const std::string get = "GET " + target + " HTTP/1.1\r\n\r\n";
    const std::string revalidate = std::string("GET /v1/profile/") + kFingerprint +
                                   " HTTP/1.1\r\nif-none-match: \"" + kOptions +
                                   "\"\r\n\r\n";
    const ScenarioResult cached =
        run_scenario("cached_get", server.port(), get, seconds, batch);
    const ScenarioResult cond =
        run_scenario("revalidate", server.port(), revalidate, seconds, batch);

    server.request_stop();
    server.join();

    const std::string workload =
        "loopback-keepalive-batch" + std::to_string(batch) + "-threads" +
        std::to_string(options.threads);
    if (cached.requests == 0 || cond.requests == 0) {
        std::fprintf(stderr, "bench_serve: a scenario produced no responses\n");
        return 2;
    }
    if (cli.flag("json")) {
        std::printf("{\n");
        std::printf("  \"benchmark\": \"serve\",\n");
        std::printf("  \"workload\": \"%s\",\n", workload.c_str());
        std::printf("  \"reqs_per_sec\": %.0f,\n", cached.reqs_per_sec);
        std::printf("  \"scenarios\": [\n");
        const auto emit = [](const ScenarioResult& s, bool last) {
            std::printf("    {\"engine\": \"%s\", \"reqs_per_sec\": %.0f, "
                        "\"requests\": %llu, \"seconds\": %.3f}%s\n",
                        s.name.c_str(), s.reqs_per_sec,
                        static_cast<unsigned long long>(s.requests), s.seconds,
                        last ? "" : ",");
        };
        emit(cached, false);
        emit(cond, true);
        std::printf("  ]\n}\n");
    } else {
        std::printf("bench_serve: %s\n", workload.c_str());
        std::printf("  %-12s %12.0f req/s (%llu requests in %.2f s)\n", "cached_get",
                    cached.reqs_per_sec,
                    static_cast<unsigned long long>(cached.requests), cached.seconds);
        std::printf("  %-12s %12.0f req/s (%llu requests in %.2f s)\n", "revalidate",
                    cond.reqs_per_sec, static_cast<unsigned long long>(cond.requests),
                    cond.seconds);
    }
    return 0;
}
