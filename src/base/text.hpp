// The text codec: how every Servet file and wire format writes and reads
// numbers. Profiles, platform files, run and series journals, phase
// payloads, memo files, fault plans, CLI values and HTTP headers all go
// through these functions, so one grammar holds everywhere:
//
// * a reader consumes the whole token or fails — no leading or trailing
//   whitespace, no '+' sign, nothing silently clamped or wrapped;
// * integers are digits (base 10; base 16 for hashes), with a '-' only
//   for signed types, that fit the target type;
// * reals are decimal or C hexfloat text; every value the writers emit
//   (±0, subnormals, ±inf, NaN) reads back bit for bit, NaN as NaN.
//
// Reading ignores the locale, and a decimal subnormal such as 1e-310 reads
// as itself, not as a range error.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace servet {

// ---- writers ----

/// Exact decimal (printf %.17g), for the human-read formats (profiles,
/// metrics JSON, search traces).
[[nodiscard]] std::string format_exact(double v);

/// C hexfloat (printf %a), for the machine-read formats (journals, phase
/// payloads, memo and series files).
[[nodiscard]] std::string format_hexfloat(double v);

/// 16 zero-padded lower-case hex digits, for hashes and fingerprints.
[[nodiscard]] std::string format_hex64(std::uint64_t v);

// ---- readers: nullopt unless the whole token is one number ----

/// An integer in the range of T, in `base` (digits only: no sign for
/// unsigned T, no "0x" prefix). T is any standard integer type from int
/// up.
template <std::integral T>
[[nodiscard]] std::optional<T> parse_int(std::string_view text, int base = 10);

/// A decimal or C hexfloat real, including "inf" and "nan". Finite text
/// whose value overflows (or underflows to zero) is refused.
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// parse_double restricted to finite values: for fields a person writes,
/// so a NaN can never slip past a comparison-based range check.
[[nodiscard]] std::optional<double> parse_finite(std::string_view text);

// ---- tokenisers ----

/// `text` without leading and trailing spaces, tabs, CRs and newlines.
[[nodiscard]] std::string_view trim(std::string_view text);

/// The fields of `text` between `sep` characters. Empty text has no
/// fields, and one trailing separator ends the last field rather than
/// opening an empty one ("a,b," is {"a", "b"}; "a,,b" is {"a", "", "b"}).
/// The views point into `text`.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char sep);

/// Every `sep`-separated field of `text` read by `read` (a reader such as
/// parse_double); nullopt if any field fails. Empty text is the empty list.
template <typename Read>
[[nodiscard]] auto parse_list(std::string_view text, char sep, Read read)
    -> std::optional<std::vector<typename decltype(read(text))::value_type>> {
    std::vector<typename decltype(read(text))::value_type> values;
    for (const std::string_view field : split(text, sep)) {
        auto value = read(field);
        if (!value) return std::nullopt;
        values.push_back(std::move(*value));
    }
    return values;
}

/// Every item of `items` written by `format`, separated by `sep`; the
/// inverse of split.
template <typename Range, typename Format>
[[nodiscard]] std::string join(const Range& items, char sep, Format format) {
    std::string out;
    bool first = true;
    for (const auto& item : items) {
        if (!first) out += sep;
        first = false;
        out += format(item);
    }
    return out;
}

/// `text` as the body of a JSON string (RFC 8259): quote and backslash
/// escaped, control characters as \n, \t or \u00XX.
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace servet
