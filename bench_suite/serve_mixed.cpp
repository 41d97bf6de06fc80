// serve-mixed: the fleet path. An in-process ServeServer with default
// options (one IO thread, two workers) serves a store of 512 profiles,
// twice its 256-entry LRU, so Zipf-popular keys hit the cache and the
// tail reads disk.
//
// Every request is one serve::http_fetch call, as the repository's two
// clients make them: connect, one request with `connection: close`, the
// response, close. `servet fetch` sends the GETs, with If-None-Match when
// the node already holds the current copy (304), and `servet watch
// --push-port` sends the series PUTs. Profile PUTs re-publish a stored
// profile, the upload docs/serve.md describes. One op is one request.
//
// The mix is an assumption, not measured fleet traffic: 85% GET, 10%
// revalidation, 4% series PUT and 1% profile PUT. Each PUT is fsync'd by
// the store, so writes compete with LRU hits and disk misses for the two
// workers.
//
// kClients client threads run a closed loop: each sends its next request
// of the seeded sequence as soon as its last one is answered, like nodes
// that call `servet fetch` back to back. A run is cut into segments of
// kSegmentSeconds, each against a freshly started server with fresh
// client threads, so the run's median averages over where the scheduler
// places the threads instead of keeping one placement for the whole run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/fs.hpp"
#include "base/hash.hpp"
#include "base/rng.hpp"
#include "core/profile.hpp"
#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "watch/drift.hpp"
#include "watch/watch.hpp"

namespace bench {
namespace {

using namespace servet;

constexpr std::size_t kProfiles = 512;
constexpr std::size_t kClients = 2;
constexpr double kSegmentSeconds = 2;
/// Untimed traffic at the start of each segment: it fills the new
/// server's LRU with the popular keys.
constexpr double kSegmentWarmupSeconds = 0.25;
/// Server starts per segment; the last one serves the segment.
constexpr int kSetupsPerSegment = 5;
constexpr double kTimeoutSeconds = 5;
/// Fetches replayed through the handler layers outside the server.
constexpr std::size_t kLayerFetches = 6400;

using Duration = Clock::duration;

double ms_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

enum class Kind { Get, Revalidate, PutSample, PutProfile };

bool is_push(Kind kind) { return kind == Kind::PutSample || kind == Kind::PutProfile; }

struct Entry {
    std::string fingerprint;
    std::string options;
    std::string body;    ///< profile text
    std::string sample;  ///< a watch sample of that profile
    std::uint64_t next_tick = 1;
};

struct Request {
    Kind kind;
    std::size_t entry;
    std::uint64_t tick = 0;  ///< series PUTs only
};

/// The store's contents and the seeded request mix over them.
class Catalog {
  public:
    explicit Catalog(std::uint64_t seed) : rng_(mix64(seed ^ 0x5e12e)) {
        static const char* const kGoldens[] = {"dempsey", "athlon3200", "nehalem2s",
                                               "ft-small", "torus4x4"};
        std::vector<core::Profile> goldens;
        for (const char* name : kGoldens) {
            std::string text;
            if (read_file(std::string(SERVET_SOURCE_DIR "/tests/golden/") + name + ".profile",
                          &text) != FileRead::Ok)
                continue;
            if (auto profile = core::Profile::parse(text)) goldens.push_back(*profile);
        }
        for (std::size_t i = 0; i < kProfiles && !goldens.empty(); ++i) {
            core::Profile profile = goldens[i % goldens.size()];
            profile.machine.append(1, '-').append(std::to_string(i));
            Entry entry;
            entry.fingerprint = hex16(mix64(seed ^ (2 * i)));
            entry.options = hex16(mix64(seed ^ (2 * i + 1)));
            entry.body = profile.serialize();
            entry.sample = watch::encode_sample(watch::profile_metrics(profile));
            entries_.push_back(std::move(entry));
        }
        // Zipf(1.0) popularity over a seeded ranking of the keys.
        double total = 0;
        for (std::size_t rank = 1; rank <= entries_.size(); ++rank) {
            total += 1.0 / static_cast<double>(rank);
            cdf_.push_back(total);
        }
        for (double& c : cdf_) c /= total;
        for (std::size_t i = 0; i < entries_.size(); ++i) by_rank_.push_back(i);
        for (std::size_t i = by_rank_.size(); i > 1; --i)
            std::swap(by_rank_[i - 1], by_rank_[rng_.next_below(i)]);
    }

    [[nodiscard]] bool empty() const { return entries_.empty(); }
    [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

    /// The next request of the mix.
    Request next() {
        const double u = rng_.next_double();
        const std::size_t index = by_rank_[zipf_rank()];
        if (u < 0.85) return {Kind::Get, index};
        if (u < 0.95) return {Kind::Revalidate, index};
        if (u < 0.99) return {Kind::PutSample, index, entries_[index].next_tick++};
        return {Kind::PutProfile, index};
    }

    /// The client call that sends `r`.
    [[nodiscard]] serve::FetchOptions fetch_options(const Request& r, std::uint16_t port) const {
        const Entry& e = entries_[r.entry];
        serve::FetchOptions options;
        options.port = port;
        options.timeout_seconds = kTimeoutSeconds;
        options.deadline_seconds = kTimeoutSeconds;
        const std::string key = e.fingerprint + "/" + e.options;
        switch (r.kind) {
            case Kind::Get:
                options.path = "/v1/profile/" + key;
                break;
            case Kind::Revalidate:
                options.path = "/v1/profile/" + key;
                options.etag = e.options;
                break;
            case Kind::PutSample:
                options.method = "PUT";
                options.path = "/v1/series/" + key + "/" + std::to_string(r.tick);
                options.body = e.sample;
                options.content_type = "text/plain";
                break;
            case Kind::PutProfile:
                options.method = "PUT";
                options.path = "/v1/profile/" + key;
                options.body = e.body;
                options.content_type = "text/plain";
                break;
        }
        return options;
    }

    /// Whether `response` is the one `r` must get.
    [[nodiscard]] bool answered(const Request& r, int status, const std::string& body) const {
        switch (r.kind) {
            case Kind::Get:
                return status == 200 && body == entries_[r.entry].body;
            case Kind::Revalidate:
                return status == 304;
            case Kind::PutSample:
            case Kind::PutProfile:
                return status == 201;
        }
        return false;
    }

  private:
    static std::string hex16(std::uint64_t v) {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
        return buf;
    }
    std::size_t zipf_rank() {
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), rng_.next_double()) - cdf_.begin());
        return std::min(rank, by_rank_.size() - 1);
    }

    Rng rng_;
    std::vector<Entry> entries_;
    std::vector<double> cdf_;
    std::vector<std::size_t> by_rank_;
};

/// What the client threads measured.
struct Phase {
    std::vector<double> fetch_ms;  ///< GETs and revalidations
    std::vector<double> push_ms;   ///< PUTs
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    Phase& operator+=(const Phase& other) {
        fetch_ms.insert(fetch_ms.end(), other.fetch_ms.begin(), other.fetch_ms.end());
        push_ms.insert(push_ms.end(), other.push_ms.begin(), other.push_ms.end());
        attempted += other.attempted;
        failed += other.failed;
        return *this;
    }
    [[nodiscard]] std::vector<double> request_ms() const {
        std::vector<double> all = fetch_ms;
        all.insert(all.end(), push_ms.begin(), push_ms.end());
        return all;
    }
};

/// Sends the mix from kClients threads for `duration` seconds, closed
/// loop: the threads take the catalog's requests in turn.
Phase drive(Catalog& catalog, std::uint16_t port, double duration) {
    std::mutex draw;
    std::vector<Phase> phases(kClients);
    const auto end = Clock::now() + std::chrono::duration_cast<Duration>(
                                        std::chrono::duration<double>(duration));
    {
        std::vector<std::jthread> clients;
        for (std::size_t t = 0; t < kClients; ++t)
            clients.emplace_back([&, t] {
                Phase& phase = phases[t];
                while (Clock::now() < end) {
                    const Request request = [&] {
                        const std::lock_guard lock(draw);
                        return catalog.next();
                    }();
                    const serve::FetchOptions options = catalog.fetch_options(request, port);
                    const auto sent = Clock::now();
                    const serve::FetchResult result = serve::http_fetch(options);
                    const double ms = ms_between(sent, Clock::now());
                    ++phase.attempted;
                    if (!result.ok ||
                        !catalog.answered(request, result.response.status, result.response.body))
                        ++phase.failed;
                    (is_push(request.kind) ? phase.push_ms : phase.fetch_ms).push_back(ms);
                }
            });
    }
    Phase total;
    for (const Phase& p : phases) total += p;
    return total;
}

/// Starts a server on the store, as `servet serve` does: the store, the
/// listening socket, the IO thread and the workers.
std::unique_ptr<serve::ServeServer> start_server(const std::string& store_dir,
                                                 Report& report) {
    serve::ServeOptions options;
    options.store_dir = store_dir;
    auto server = std::make_unique<serve::ServeServer>(options);
    std::string error;
    report.check(server->start(&error), "server start failed: " + error);
    return server;
}

/// Replays kLayerFetches fetches of the mix through the server's layers,
/// one call at a time, on a private store over the served store's files:
/// the HTTP parser, the handler (and the store behind it) and the
/// response renderer. Each layer's time per fetch is given as a share of
/// the measured fetch latency.
void time_layers(Catalog& catalog, const std::string& store_dir, std::uint16_t port,
                 double fetch_ms, Report& report) {
    serve::ProfileStore store(store_dir, serve::ServeOptions{}.cache_entries);
    serve::Handler handler(store);
    Duration parse{}, handle{}, render{};
    std::size_t fetches = 0;
    for (std::size_t i = 0; i < kLayerFetches; ++i) {
        const Request request = catalog.next();
        if (is_push(request.kind)) continue;
        ++fetches;
        const serve::FetchOptions options = catalog.fetch_options(request, port);
        std::string bytes = "GET " + options.path + " HTTP/1.1\r\nhost: " + options.host + ":" +
                            std::to_string(port) + "\r\n";
        if (!options.etag.empty()) bytes += "if-none-match: \"" + options.etag + "\"\r\n";
        bytes += "connection: close\r\n\r\n";
        const auto t0 = Clock::now();
        serve::HttpParser parser;
        const bool parsed = parser.feed(bytes) == serve::HttpParser::State::Ready;
        const auto t1 = Clock::now();
        report.check(parsed, "the HTTP parser rejects a generated request");
        if (!parsed) return;
        const serve::Response response = handler.handle(parser.take_request());
        const auto t2 = Clock::now();
        const std::string wire = serve::render_response(
            response.status, response.content_type, response.body, response.etag);
        const auto t3 = Clock::now();
        report.check(catalog.answered(request, response.status, response.body),
                     "the handler answers a generated request wrongly");
        parse += t1 - t0;
        handle += t2 - t1;
        render += t3 - t2;
    }
    const auto share = [&](Duration total) {
        const double per_fetch_ms = std::chrono::duration<double, std::milli>(total).count() /
                                    static_cast<double>(std::max<std::size_t>(fetches, 1));
        return fetch_ms > 0 ? per_fetch_ms / fetch_ms : 0;
    };
    report.layer["serve.http.parse.share"] = share(parse);
    report.layer["serve.handle.share"] = share(handle);
    report.layer["serve.render.share"] = share(render);
}

void count(const Phase& phase, Report& report) {
    report.attempted += phase.attempted;
    report.failed += phase.failed;
}

}  // namespace

void run_serve_mixed(const Settings& settings, Report& report) {
    Catalog catalog(settings.seed);
    report.check(!catalog.empty(), "no golden profiles to seed the store with");
    if (catalog.empty()) return;

    // The store's contents are the workload's input: written once, fsync'd.
    const std::string store_dir = settings.scratch + "/serve-store";
    {
        serve::ProfileStore store(store_dir, 0);
        for (const Entry& e : catalog.entries())
            report.check(store.put(e.fingerprint, e.options, e.body) ==
                             serve::ProfileStore::PutStatus::Stored,
                         "seeding the store failed");
    }

    // A trace run alternates untraced and traced segments.
    const double measured = settings.smoke ? 0.2 : settings.seconds;
    const int segments = std::max(settings.trace ? 2 : 1,
                                  static_cast<int>(std::lround(measured / kSegmentSeconds)));
    Phase untraced;
    Phase traced;
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    std::uint16_t port = 0;
    for (int segment = 0; segment < segments; ++segment) {
        // Set-up, repeated so its median is steady; the last server serves.
        std::unique_ptr<serve::ServeServer> server;
        for (int k = 0; k < (settings.smoke ? 1 : kSetupsPerSegment); ++k) {
            if (server) {
                server->request_stop();
                server->join();
            }
            const auto setup_start = Clock::now();
            server = start_server(store_dir, report);
            report.setup_s.push_back(seconds_since(setup_start));
        }
        port = server->port();
        count(drive(catalog, port, settings.smoke ? 0.05 : kSegmentWarmupSeconds), report);

        const bool trace = settings.trace && segment % 2 == 1;
        const serve::StoreStats before = server->store().stats();
        obs::tracer().reset();
        obs::tracer().set_enabled(trace);
        Phase phase;
        {
            SERVET_TRACE_SPAN("bench/op");
            phase = drive(catalog, port, measured / segments);
        }
        obs::tracer().set_enabled(false);
        const serve::StoreStats after = server->store().stats();
        server->request_stop();
        server->join();

        count(phase, report);
        if (trace) {
            report.collect_trace();
            traced += phase;
            continue;
        }
        untraced += phase;
        hits += after.cache_hits - before.cache_hits;
        lookups += after.cache_hits + after.cache_misses - before.cache_hits - before.cache_misses;
    }
    report.op_ms = untraced.request_ms();
    report.traced_op_ms = traced.request_ms();

    report.layer["serve.store.hit_ratio"] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0;
    const double fetch_ms = median(untraced.fetch_ms);
    report.layer["serve.push.ratio"] = fetch_ms > 0 ? median(untraced.push_ms) / fetch_ms : 0;
    if (settings.trace) time_layers(catalog, store_dir, port, fetch_ms, report);
}

}  // namespace bench
