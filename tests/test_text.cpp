// Properties of the text codec every file format shares: both real
// writers round-trip through parse_double bit for bit, integer readers
// hold the exact range of their type, and malformed tokens are refused
// rather than wrapped, clamped or half-read.
#include "base/text.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "base/rng.hpp"

namespace servet {
namespace {

/// Both writers' text reads back as the same bit pattern.
void expect_round_trip(double v) {
    for (const std::string& text : {format_exact(v), format_hexfloat(v)}) {
        const auto back = parse_double(text);
        ASSERT_TRUE(back.has_value()) << text;
        if (std::isnan(v)) {
            EXPECT_TRUE(std::isnan(*back)) << text;
        } else {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(*back), std::bit_cast<std::uint64_t>(v))
                << text;
        }
    }
}

TEST(TextCodec, RandomBitPatternsRoundTripThroughBothWriters) {
    Rng rng(0x7e47);
    for (int i = 0; i < 100000; ++i) expect_round_trip(std::bit_cast<double>(rng.next_u64()));
}

TEST(TextCodec, EdgeValuesRoundTrip) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double v : {0.0, -0.0, DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN / 2, DBL_MIN,
                           DBL_MAX, -DBL_MAX, kInf, -kInf, 1e-310, 0.1, -1.5})
        expect_round_trip(v);
    expect_round_trip(std::numeric_limits<double>::quiet_NaN());
    EXPECT_TRUE(std::signbit(*parse_double("-0x0p+0")));
    EXPECT_TRUE(std::signbit(*parse_double("-0")));
}

TEST(TextCodec, FiniteReaderRefusesNonFiniteValues) {
    EXPECT_EQ(parse_finite("2.5"), 2.5);
    EXPECT_EQ(parse_finite("0x1p-2"), 0.25);
    for (const char* text : {"nan", "-nan", "inf", "-inf", "infinity", "1e999"})
        EXPECT_FALSE(parse_finite(text).has_value()) << text;
}

template <typename T>
void expect_int_range() {
    constexpr T lo = std::numeric_limits<T>::min();
    constexpr T hi = std::numeric_limits<T>::max();
    EXPECT_EQ(parse_int<T>(std::to_string(lo)), lo);
    EXPECT_EQ(parse_int<T>(std::to_string(hi)), hi);
    // One past each end: the decimal text of hi + 1 and, for signed T,
    // lo - 1 (built without overflowing a builtin type).
    std::string above = std::to_string(hi);
    ++above.back();  // the maxima end in 5 or 7
    EXPECT_FALSE(parse_int<T>(above).has_value()) << above;
    if constexpr (std::is_signed_v<T>) {
        std::string below = std::to_string(lo);
        ++below.back();  // the minima end in 8
        EXPECT_FALSE(parse_int<T>(below).has_value()) << below;
    } else {
        EXPECT_FALSE(parse_int<T>("-1").has_value());
        EXPECT_FALSE(parse_int<T>("-0").has_value());
    }
}

TEST(TextCodec, IntegerRangeEdges) {
    expect_int_range<int>();
    expect_int_range<std::int64_t>();
    expect_int_range<std::uint64_t>();
    expect_int_range<std::size_t>();
    EXPECT_FALSE(parse_int<int>("4294967296").has_value());
    EXPECT_EQ(parse_int<std::uint64_t>("00000000000000ff", 16), 255u);
    EXPECT_FALSE(parse_int<std::uint64_t>("10000000000000000", 16).has_value());
}

TEST(TextCodec, MalformedTokensAreRefused) {
    for (const char* text : {"", " 1", "1 ", "0x", "1e999", "+-1", "1,5", "+1", "--1", "0x-1",
                             "0xinf", "1e", "1.5.2", "\t1", "1\n"}) {
        EXPECT_FALSE(parse_double(text).has_value()) << '"' << text << '"';
        EXPECT_FALSE(parse_int<long long>(text).has_value()) << '"' << text << '"';
    }
    for (const char* text : {"1.5", "1e3", "0x10", "nan"})
        EXPECT_FALSE(parse_int<int>(text).has_value()) << text;
}

TEST(TextCodec, SplitKeepsInnerEmptyFieldsAndDropsOneTrailing) {
    using Fields = std::vector<std::string_view>;
    EXPECT_EQ(split("", ','), Fields{});
    EXPECT_EQ(split("a", ','), Fields{"a"});
    EXPECT_EQ(split("a,,b", ','), (Fields{"a", "", "b"}));
    EXPECT_EQ(split("a,b,", ','), (Fields{"a", "b"}));
    EXPECT_EQ(split(",a", ','), (Fields{"", "a"}));
    EXPECT_EQ(join(Fields{"a", "b"}, ';', [](std::string_view f) { return std::string(f); }),
              "a;b");
}

TEST(TextCodec, TrimStripsBlanksAtBothEnds) {
    EXPECT_EQ(trim(" \t a b \r\n"), "a b");
    EXPECT_EQ(trim(" \t\r\n"), "");
}

TEST(TextCodec, JsonEscapeFollowsRfc8259) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("q\"b\\"), "q\\\"b\\\\");
    EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

}  // namespace
}  // namespace servet
