#include "watch/watch.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "base/check.hpp"
#include "base/fs.hpp"
#include "base/hash.hpp"
#include "base/log.hpp"
#include "base/text.hpp"
#include "core/journal.hpp"
#include "msg/faulty_network.hpp"
#include "obs/metrics.hpp"
#include "platform/decorators.hpp"
#include "serve/client.hpp"
#include "stats/summary.hpp"

namespace servet::watch {

namespace {

/// The metrics one tick contributes: the flattened profile plus summary
/// statistics of the raw mcalibrator curve. The curve statistics matter
/// because they see value shifts the structural detectors absorb — a
/// uniform cycle inflation leaves detected cache *sizes* unchanged while
/// the curve's level moves immediately.
std::map<std::string, double> sample_metrics(const core::SuiteResult& result,
                                             const Platform& platform) {
    const core::Profile profile = result.to_profile(
        platform.name(), platform.core_count(), platform.page_size());
    std::map<std::string, double> metrics = profile_metrics(profile);
    if (!result.curve.cycles.empty()) {
        const std::vector<double> cycles(result.curve.cycles.begin(),
                                         result.curve.cycles.end());
        metrics["mcal.cycles.median"] = stats::median(cycles);
        metrics["mcal.cycles.min"] = stats::min_value(cycles);
        metrics["mcal.cycles.max"] = stats::max_value(cycles);
    }
    return metrics;
}

/// Spool-and-drain publisher: every committed tick first lands as
/// `<run_dir>/spool/<tick-padded>.sample` (atomic write), then the spool
/// drains oldest-first through the retrying client. Padding the tick to
/// 10 digits makes the lexicographic listing the tick order AND keeps
/// the file stem a valid wire tick token, so the spool file name is the
/// URL segment — nothing to parse, nothing to disagree about after a
/// crash.
class SamplePusher {
  public:
    SamplePusher(const WatchOptions::PushOptions& push, const std::string& run_dir,
                 std::uint64_t fingerprint, std::uint64_t options_hash)
        : push_(push),
          spool_dir_(run_dir + "/spool"),
          fp_key_(format_hex64(fingerprint)),
          opts_key_(format_hex64(options_hash)) {}

    [[nodiscard]] bool enabled() const { return push_.port > 0; }

    /// Spools one tick's payload. Returns false when even the local
    /// spool write fails (disk trouble — the sample survives only in the
    /// series journal).
    [[nodiscard]] bool spool(std::size_t tick, const std::string& payload) {
        char stem[16];
        std::snprintf(stem, sizeof stem, "%010zu", tick);
        const std::string path = spool_dir_ + '/' + stem + ".sample";
        if (!create_parent_dirs(path) || !write_file_atomic(path, payload)) {
            SERVET_LOG_WARN("watch: cannot spool tick %zu under %s", tick,
                            spool_dir_.c_str());
            return false;
        }
        return true;
    }

    /// Pushes spooled samples oldest-first until the spool is empty or
    /// the server stops answering. Returns acknowledged count.
    std::size_t drain() {
        std::vector<std::string> names;
        if (!list_directory(spool_dir_, &names)) return 0;
        std::size_t acknowledged = 0;
        for (const std::string& name : names) {
            if (!name.ends_with(".sample")) continue;
            const std::string tick_token = name.substr(0, name.size() - 7);
            const std::string path = spool_dir_ + '/' + name;
            std::string payload;
            if (read_file(path, &payload) != FileRead::Ok) continue;

            serve::FetchOptions request;
            request.host = push_.host;
            request.port = push_.port;
            request.path = "/v1/series/" + fp_key_ + '/' + opts_key_ + '/' + tick_token;
            request.method = "PUT";
            request.body = payload;
            request.content_type = "text/plain";
            request.token = push_.token;
            request.timeout_seconds = push_.timeout_seconds;
            request.deadline_seconds = push_.deadline_seconds;
            // A per-tick sample PUT is content-addressed: replaying it
            // after a half-acknowledged attempt stores the same bytes.
            request.retry_unsafe = true;
            request.retry.max_attempts = push_.attempts < 1 ? 1 : push_.attempts;
            request.retry.seed = push_.seed;

            const serve::FetchResult result = serve::http_fetch(request);
            if (result.ok && result.response.status < 300) {
                (void)remove_file(path);
                ++acknowledged;
                continue;
            }
            if (result.ok && result.response.status != 503) {
                // The server answered and said no (bad token, bad key):
                // retrying the same bytes cannot succeed — drop the
                // sample rather than wedge every tick behind it. It is
                // still in the series journal.
                SERVET_LOG_WARN("watch: store rejected spooled tick %s with status %d; "
                                "dropping it from the spool",
                                tick_token.c_str(), result.response.status);
                (void)remove_file(path);
                continue;
            }
            SERVET_LOG_WARN("watch: push of tick %s failed (%s); %s",
                            tick_token.c_str(),
                            result.ok ? "503" : result.code.c_str(),
                            "keeping it spooled");
            break;  // server unreachable/shedding: later ticks wait too
        }
        return acknowledged;
    }

    /// Samples still spooled (what drain could not deliver).
    [[nodiscard]] std::size_t pending() const {
        std::vector<std::string> names;
        if (!list_directory(spool_dir_, &names)) return 0;
        std::size_t count = 0;
        for (const std::string& name : names)
            if (name.ends_with(".sample")) ++count;
        return count;
    }

  private:
    WatchOptions::PushOptions push_;
    std::string spool_dir_;
    std::string fp_key_;
    std::string opts_key_;
};

}  // namespace

std::uint64_t watch_options_hash(const WatchOptions& options) {
    Fingerprint fp;
    fp.add(std::string_view("watch-options 1"));
    fp.add(core::suite_options_hash(options.suite));
    fp.add(options.perturb_tick);
    fp.add(options.perturb.fingerprint());
    return fp.value();
}

std::string encode_sample(const std::map<std::string, double>& metrics) {
    std::string out;
    for (const auto& [name, value] : metrics)
        out += "metric " + name + ' ' + format_hexfloat(value) + '\n';
    return out;
}

std::optional<std::map<std::string, double>> decode_sample(const std::string& text) {
    std::map<std::string, double> out;
    for (const std::string_view line : split(text, '\n')) {
        if (line.empty()) continue;
        const std::vector<std::string_view> fields = split(line, ' ');
        if (fields.size() != 3 || fields[0] != "metric") return std::nullopt;
        const std::optional<double> value = parse_double(fields[2]);
        if (!value || !out.emplace(fields[1], *value).second) return std::nullopt;
    }
    return out;
}

WatchResult run_watch(Platform& platform, msg::Network* network,
                      const WatchOptions& options) {
    SERVET_CHECK_MSG(!options.run_dir.empty(), "watch requires a run directory");
    SERVET_CHECK_MSG(options.suite.run_dir.empty() && !options.suite.resume,
                     "the suite inside a watch never journals phases; the series "
                     "journal is the watch's persistence");
    SERVET_CHECK(options.ticks >= 0);

    core::SeriesJournal::Header header;
    header.options_hash = watch_options_hash(options);
    header.fingerprint = platform.fingerprint();
    header.machine = platform.name();
    header.cores = platform.core_count();
    header.page_size = platform.page_size();
    // Resume is the only mode a watch opens with: an absent series is a
    // fresh one, an existing compatible series seeds the baselines.
    core::SeriesJournal journal(options.run_dir, header, core::SeriesJournal::Mode::Resume);

    WatchResult result;
    result.dropped_torn_tail = journal.dropped_torn_tail();
    if (result.dropped_torn_tail)
        SERVET_LOG_WARN("watch: series in %s had a torn trailing record (crash "
                        "mid-tick); it was discarded and the tick re-measures",
                        options.run_dir.c_str());

    // Replay: committed samples pass through the detector exactly as they
    // did when measured, rebuilding the rolling baselines (and the worst
    // verdict) deterministically.
    DriftDetector detector(options.drift);
    for (std::size_t tick = 0; tick < journal.samples().size(); ++tick) {
        const auto metrics = decode_sample(journal.samples()[tick]);
        if (!metrics)
            throw core::JournalError("series journal in " + options.run_dir +
                                     " holds an undecodable sample at tick " +
                                     std::to_string(tick));
        TickReport report;
        report.tick = tick;
        report.replayed = true;
        report.verdicts = detector.observe(*metrics);
        result.reports.push_back(std::move(report));
        ++result.replayed;
    }
    if (result.replayed > 0)
        SERVET_LOG_INFO("watch: replayed %zu committed tick(s) from %s", result.replayed,
                        options.run_dir.c_str());

    // The perturbed substrate, built once and swapped in from the onset
    // tick: probability-1 plans shift every measured value by a fixed
    // factor, so drift in tests is deterministic — and fault decisions
    // key on task identity, not schedule, so parallel ≡ serial holds
    // through the perturbation (the PR that added the injectors tests
    // exactly that).
    std::unique_ptr<FlakyPlatform> perturbed_platform;
    std::unique_ptr<msg::FaultyNetwork> perturbed_network;
    const bool can_perturb = options.perturb_tick >= 0 && options.perturb.active();
    if (can_perturb) {
        if (options.perturb.any_platform_faults())
            perturbed_platform = std::make_unique<FlakyPlatform>(platform, options.perturb);
        if (network != nullptr && options.perturb.any_network_faults())
            perturbed_network =
                std::make_unique<msg::FaultyNetwork>(*network, options.perturb);
    }

    SamplePusher pusher(options.push, options.run_dir, header.fingerprint,
                        header.options_hash);
    const auto stop_requested = [&options] {
        return options.stop != nullptr && options.stop->load(std::memory_order_acquire);
    };

    for (int i = 0; i < options.ticks; ++i) {
        if (stop_requested()) {
            result.stopped = true;
            break;
        }
        const std::size_t tick = journal.samples().size();
        const bool perturb = can_perturb &&
                             tick >= static_cast<std::size_t>(options.perturb_tick);
        Platform& tick_platform =
            perturb && perturbed_platform ? *perturbed_platform : platform;
        msg::Network* tick_network =
            perturb && perturbed_network ? perturbed_network.get() : network;

        core::SuiteOptions suite = options.suite;
        const core::SuiteResult measured = run_suite(tick_platform, tick_network, suite);
        for (const core::PhaseError& error : measured.errors)
            SERVET_LOG_WARN("watch: tick %zu phase %s failed: %s", tick,
                            error.phase.c_str(), error.message.c_str());

        const std::map<std::string, double> metrics = sample_metrics(measured, platform);
        const std::string payload = encode_sample(metrics);
        if (!journal.append(payload))
            SERVET_LOG_ERROR("watch: cannot commit tick %zu to %s; this tick loses "
                             "crash protection",
                             tick, options.run_dir.c_str());
        if (!options.series_json.empty() &&
            !obs::write_metrics_series_json(options.series_json, tick, header.fingerprint))
            SERVET_LOG_WARN("watch: cannot append tick %zu to metrics series %s", tick,
                            options.series_json.c_str());
        if (pusher.enabled()) {
            // Spool first, then drain: one code path whether the server
            // is up (the fresh tick drains immediately, after anything
            // an outage left behind) or down (it just stays spooled).
            (void)pusher.spool(tick, payload);
            result.pushed += pusher.drain();
        }

        TickReport report;
        report.tick = tick;
        report.verdicts = detector.observe(metrics);
        result.reports.push_back(std::move(report));
        ++result.measured;

        if (options.interval_seconds > 0 && i + 1 < options.ticks) {
            // Sliced sleep so a --daemon SIGTERM ends the wait promptly
            // instead of after a full interval.
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(
                                       options.interval_seconds));
            while (!stop_requested() && std::chrono::steady_clock::now() < until)
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
            if (stop_requested()) {
                result.stopped = true;
                break;
            }
        }
    }

    if (pusher.enabled()) result.spooled = pusher.pending();
    result.worst = detector.worst();
    return result;
}

}  // namespace servet::watch
