#include "base/units.hpp"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "base/text.hpp"

namespace servet {

namespace {

struct Unit {
    std::string_view suffix;
    Bytes factor;
};

constexpr std::array<Unit, 3> kUnits{{{"GB", GiB}, {"MB", MiB}, {"KB", KiB}}};

std::string format_with(double value, std::string_view suffix) {
    char buf[48];
    if (value == std::floor(value) && value < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f%.*s", value, static_cast<int>(suffix.size()),
                      suffix.data());
    } else {
        std::snprintf(buf, sizeof buf, "%.1f%.*s", value, static_cast<int>(suffix.size()),
                      suffix.data());
    }
    return buf;
}

}  // namespace

std::string format_bytes(Bytes n) {
    for (const auto& [suffix, factor] : kUnits) {
        if (n >= factor) return format_with(static_cast<double>(n) / static_cast<double>(factor), suffix);
    }
    return format_with(static_cast<double>(n), "B");
}

std::optional<Bytes> parse_bytes(std::string_view text) {
    if (text.empty()) return std::nullopt;

    // Split numeric prefix from unit suffix.
    std::size_t pos = 0;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.'))
        ++pos;
    const std::string_view num = text.substr(0, pos);
    std::string_view unit = text.substr(pos);
    const std::optional<double> value = parse_finite(num);
    if (!value) return std::nullopt;

    // Normalize unit: strip spaces, lowercase, accept K/KB/KiB forms.
    std::string u;
    for (char c : unit) {
        if (c == ' ') continue;
        u.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    Bytes factor = 1;
    if (u.empty() || u == "b") {
        factor = 1;
    } else if (u == "k" || u == "kb" || u == "kib") {
        factor = KiB;
    } else if (u == "m" || u == "mb" || u == "mib") {
        factor = MiB;
    } else if (u == "g" || u == "gb" || u == "gib") {
        factor = GiB;
    } else {
        return std::nullopt;
    }
    const double bytes = *value * static_cast<double>(factor);
    if (bytes > 9.0e18) return std::nullopt;  // would overflow Bytes
    return static_cast<Bytes>(std::llround(bytes));
}

std::string format_bandwidth(BytesPerSecond bps) {
    char buf[48];
    if (bps >= 1e9) {
        std::snprintf(buf, sizeof buf, "%.2f GB/s", bps / 1e9);
    } else if (bps >= 1e6) {
        std::snprintf(buf, sizeof buf, "%.1f MB/s", bps / 1e6);
    } else if (bps >= 1e3) {
        std::snprintf(buf, sizeof buf, "%.1f KB/s", bps / 1e3);
    } else {
        std::snprintf(buf, sizeof buf, "%.1f B/s", bps);
    }
    return buf;
}

std::string format_latency(Seconds s) {
    char buf[48];
    if (s >= 1.0) {
        std::snprintf(buf, sizeof buf, "%.2f s", s);
    } else if (s >= 1e-3) {
        std::snprintf(buf, sizeof buf, "%.2f ms", s * 1e3);
    } else if (s >= 1e-6) {
        std::snprintf(buf, sizeof buf, "%.2f us", s * 1e6);
    } else {
        std::snprintf(buf, sizeof buf, "%.0f ns", s * 1e9);
    }
    return buf;
}

}  // namespace servet
