#include "base/text.hpp"

#include <algorithm>
#include <charconv>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace servet {

std::string format_exact(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string format_hexfloat(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::string format_hex64(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

template <std::integral T>
std::optional<T> parse_int(std::string_view text, int base) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
}

template std::optional<int> parse_int(std::string_view, int);
template std::optional<long> parse_int(std::string_view, int);
template std::optional<long long> parse_int(std::string_view, int);
template std::optional<unsigned> parse_int(std::string_view, int);
template std::optional<unsigned long> parse_int(std::string_view, int);
template std::optional<unsigned long long> parse_int(std::string_view, int);

std::optional<double> parse_double(std::string_view text) {
    // from_chars(hex) takes neither a sign nor the "0x" prefix "%a"
    // writes, so both come off here and the sign goes back on after:
    // "-0x0p+0" must still read as -0.0.
    const bool negative = text.starts_with('-');
    if (negative) text.remove_prefix(1);
    auto format = std::chars_format::general;
    if (text.starts_with("0x") || text.starts_with("0X")) {
        text.remove_prefix(2);
        format = std::chars_format::hex;
        if (text.empty() || !(std::isxdigit(static_cast<unsigned char>(text.front())) ||
                              text.front() == '.'))
            return std::nullopt;
    }
    if (text.empty() || text.front() == '-') return std::nullopt;
    double value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value, format);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return negative ? -value : value;
}

std::optional<double> parse_finite(std::string_view text) {
    const std::optional<double> value = parse_double(text);
    if (!value || !std::isfinite(*value)) return std::nullopt;
    return value;
}

std::string_view trim(std::string_view text) {
    constexpr std::string_view kBlank = " \t\r\n";
    const auto begin = text.find_first_not_of(kBlank);
    if (begin == std::string_view::npos) return {};
    return text.substr(begin, text.find_last_not_of(kBlank) - begin + 1);
}

std::vector<std::string_view> split(std::string_view text, char sep) {
    std::vector<std::string_view> fields;
    std::size_t begin = 0;
    while (begin < text.size()) {
        const std::size_t end = std::min(text.find(sep, begin), text.size());
        fields.push_back(text.substr(begin, end - begin));
        begin = end + 1;
    }
    return fields;
}

std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

}  // namespace servet
