#include "hw/topology.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "base/text.hpp"

namespace servet::hw {

std::optional<std::vector<CoreId>> parse_cpulist(const std::string& text) {
    std::vector<CoreId> cores;
    for (const std::string_view field : split(text, ',')) {
        const std::string_view token = trim(field);
        if (token.empty()) continue;
        const auto dash = token.find('-');
        const auto lo = parse_int<CoreId>(token.substr(0, dash));
        const auto hi = dash == std::string_view::npos ? lo
                                                       : parse_int<CoreId>(token.substr(dash + 1));
        if (!lo || !hi || *hi < *lo) return std::nullopt;
        for (CoreId c = *lo; c <= *hi; ++c) cores.push_back(c);
    }
    if (cores.empty()) return std::nullopt;
    return cores;
}

std::optional<Bytes> parse_sysfs_size(const std::string& text) {
    const std::size_t digits = std::min(text.find_first_not_of("0123456789"), text.size());
    const auto value = parse_int<Bytes>(std::string_view(text).substr(0, digits));
    if (!value) return std::nullopt;
    Bytes factor = 1;
    if (digits < text.size()) {
        switch (text[digits]) {
            case 'K': case 'k': factor = KiB; break;
            case 'M': case 'm': factor = MiB; break;
            case 'G': case 'g': factor = GiB; break;
            case '\n': break;
            default: return std::nullopt;
        }
    }
    if (*value > std::numeric_limits<Bytes>::max() / factor) return std::nullopt;
    return *value * factor;
}

namespace {
std::optional<std::string> read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}
}  // namespace

namespace {
/// Strict sysfs `level` parse: digits with optional trailing newline, like
/// the endptr-checked parsers above. An unparsable or non-positive level
/// means the index is garbage, not a level-0 cache.
std::optional<int> parse_sysfs_level(const std::string& text) {
    const auto level =
        parse_int<int>(std::string_view(text).substr(0, text.find_last_not_of("\n ") + 1));
    if (!level || *level < 1) return std::nullopt;
    return level;
}
}  // namespace

std::vector<SysfsCache> sysfs_caches(CoreId core, const std::string& sysfs_cpu_root) {
    std::vector<SysfsCache> caches;
    const std::string base = sysfs_cpu_root + "/cpu" + std::to_string(core) + "/cache/index";
    for (int index = 0; index < 8; ++index) {
        const std::string dir = base + std::to_string(index) + "/";
        const auto level_text = read_file(dir + "level");
        if (!level_text) break;  // no more indices

        SysfsCache cache;
        const auto level = parse_sysfs_level(*level_text);
        if (!level) continue;  // malformed index: skip it, don't invent a level-0 cache
        cache.level = *level;
        cache.type = read_file(dir + "type").value_or("");
        while (!cache.type.empty() && cache.type.back() == '\n') cache.type.pop_back();
        if (cache.type == "Instruction") continue;

        if (const auto size_text = read_file(dir + "size"))
            cache.size = parse_sysfs_size(*size_text).value_or(0);
        if (const auto list_text = read_file(dir + "shared_cpu_list"))
            cache.shared_with = parse_cpulist(*list_text).value_or(std::vector<CoreId>{});
        caches.push_back(std::move(cache));
    }
    return caches;
}

std::vector<SysfsCache> sysfs_caches(CoreId core) {
    return sysfs_caches(core, "/sys/devices/system/cpu");
}

}  // namespace servet::hw
