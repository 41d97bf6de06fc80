#include "obs/metrics.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "base/fs.hpp"
#include "base/text.hpp"

namespace servet::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    SERVET_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                     "histogram bounds must ascend");
    counts_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

void Histogram::observe(double value) {
    std::size_t bucket = bounds_.size();  // overflow by default
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (value <= bounds_[i]) {
            bucket = i;
            break;
        }
    }
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
    std::vector<std::uint64_t> out;
    out.reserve(counts_.size());
    for (const auto& count : counts_) out.push_back(count.load(std::memory_order_relaxed));
    return out;
}

std::uint64_t Histogram::total() const {
    std::uint64_t total = 0;
    for (const auto& count : counts_) total += count.load(std::memory_order_relaxed);
    return total;
}

Counter& Registry::counter(const std::string& name, Stability stability) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& entry = counters_[name];
    if (entry == nullptr) {
        entry = std::make_unique<CounterEntry>();
        entry->stability = stability;
    }
    return entry->metric;
}

Gauge& Registry::gauge(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& entry = gauges_[name];
    if (entry == nullptr) entry = std::make_unique<Gauge>();
    return *entry;
}

Histogram& Registry::histogram(const std::string& name, Stability stability,
                               std::vector<double> bounds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& entry = histograms_[name];
    if (entry == nullptr) entry = std::make_unique<HistogramEntry>(stability, std::move(bounds));
    return entry->metric;
}

std::map<std::string, std::uint64_t> Registry::stable_counters() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, entry] : counters_)
        if (entry->stability == Stability::Stable) out[name] = entry->metric.value();
    return out;
}

namespace {

void append_counters(std::string& out, const std::vector<std::pair<std::string, std::uint64_t>>& items) {
    out += "\"counters\": {";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out += ", ";
        out += '"' + items[i].first + "\": " + std::to_string(items[i].second);
    }
    out += '}';
}

void append_histograms(std::string& out,
                       const std::vector<std::pair<std::string, const Histogram*>>& items) {
    out += "\"histograms\": {";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out += ", ";
        const Histogram& h = *items[i].second;
        out += '"' + items[i].first + "\": {\"bounds\": [";
        for (std::size_t b = 0; b < h.bounds().size(); ++b) {
            if (b) out += ", ";
            out += format_exact(h.bounds()[b]);
        }
        out += "], \"counts\": [";
        const std::vector<std::uint64_t> counts = h.counts();
        for (std::size_t b = 0; b < counts.size(); ++b) {
            if (b) out += ", ";
            out += std::to_string(counts[b]);
        }
        out += "]}";
    }
    out += '}';
}

}  // namespace

std::string Registry::deterministic_json() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    for (const auto& [name, entry] : counters_)
        if (entry->stability == Stability::Stable)
            counters.emplace_back(name, entry->metric.value());
    std::vector<std::pair<std::string, const Histogram*>> histograms;
    for (const auto& [name, entry] : histograms_)
        if (entry->stability == Stability::Stable)
            histograms.emplace_back(name, &entry->metric);

    std::string out = "{";
    append_counters(out, counters);
    out += ", ";
    append_histograms(out, histograms);
    out += '}';
    return out;
}

std::string Registry::to_json(bool stable_only) const {
    std::string out = "{\n  \"deterministic\": ";
    out += deterministic_json();
    if (stable_only) {
        out += "\n}\n";
        return out;
    }
    out += ",\n  \"volatile\": {";

    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    for (const auto& [name, entry] : counters_)
        if (entry->stability == Stability::Volatile)
            counters.emplace_back(name, entry->metric.value());
    append_counters(out, counters);

    out += ", \"gauges\": {";
    std::size_t i = 0;
    for (const auto& [name, entry] : gauges_) {
        if (i++) out += ", ";
        out += '"' + name + "\": " + std::to_string(entry->value());
    }
    out += "}, ";

    std::vector<std::pair<std::string, const Histogram*>> histograms;
    for (const auto& [name, entry] : histograms_)
        if (entry->stability == Stability::Volatile)
            histograms.emplace_back(name, &entry->metric);
    append_histograms(out, histograms);

    out += "}\n}\n";
    return out;
}

std::vector<std::vector<std::string>> Registry::summary_rows() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto stability_tag = [](Stability s) {
        return std::string(s == Stability::Stable ? "stable" : "volatile");
    };
    std::vector<std::vector<std::string>> rows;
    for (const auto& [name, entry] : counters_)
        rows.push_back({name, "counter", stability_tag(entry->stability),
                        std::to_string(entry->metric.value())});
    for (const auto& [name, entry] : gauges_)
        rows.push_back({name, "gauge", "volatile", std::to_string(entry->value())});
    for (const auto& [name, entry] : histograms_) {
        std::string value = "n=" + std::to_string(entry->metric.total()) + " [";
        const std::vector<std::uint64_t> counts = entry->metric.counts();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (i) value += ' ';
            value += std::to_string(counts[i]);
        }
        value += ']';
        rows.push_back({name, "histogram", stability_tag(entry->stability), std::move(value)});
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

void Registry::reset_values() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, entry] : counters_)
        entry->metric.value_.store(0, std::memory_order_relaxed);
    for (auto& [name, entry] : gauges_) entry->value_.store(0, std::memory_order_relaxed);
    for (auto& [name, entry] : histograms_)
        for (auto& count : entry->metric.counts_)
            count.store(0, std::memory_order_relaxed);
}

Registry& registry() {
    static Registry* instance = new Registry();  // never destroyed: handles outlive exit paths
    return *instance;
}

Counter& counter(const std::string& name, Stability stability) {
    return registry().counter(name, stability);
}

Gauge& gauge(const std::string& name) { return registry().gauge(name); }

Histogram& histogram(const std::string& name, Stability stability,
                     std::vector<double> bounds) {
    return registry().histogram(name, stability, std::move(bounds));
}

std::string Registry::series_line(std::uint64_t tick, std::uint64_t fingerprint) const {
    return "{\"tick\": " + std::to_string(tick) + ", \"fingerprint\": \"" +
           format_hex64(fingerprint) +
           "\", \"metrics\": " + deterministic_json() + '}';
}

bool write_metrics_json(const std::string& path, bool stable_only) {
    return write_file_atomic(path, registry().to_json(stable_only));
}

bool write_metrics_series_json(const std::string& path, std::uint64_t tick,
                               std::uint64_t fingerprint) {
    return append_synced(path, registry().series_line(tick, fingerprint) + '\n',
                         /*create=*/true);
}

}  // namespace servet::obs
