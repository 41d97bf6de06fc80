#include "base/units.hpp"

#include <gtest/gtest.h>

namespace servet {
namespace {

TEST(FormatBytes, ExactBinaryUnits) {
    EXPECT_EQ(format_bytes(0), "0B");
    EXPECT_EQ(format_bytes(512), "512B");
    EXPECT_EQ(format_bytes(1024), "1KB");
    EXPECT_EQ(format_bytes(32 * KiB), "32KB");
    EXPECT_EQ(format_bytes(3 * MiB), "3MB");
    EXPECT_EQ(format_bytes(12 * MiB), "12MB");
    EXPECT_EQ(format_bytes(2 * GiB), "2GB");
}

TEST(FormatBytes, FractionalUnits) {
    EXPECT_EQ(format_bytes(1536), "1.5KB");
    EXPECT_EQ(format_bytes(2 * MiB + 512 * KiB), "2.5MB");
}

struct ParseCase {
    const char* text;
    Bytes expected;
};

// Names each case by its contents; the default byte dump would print the
// `text` pointer and change the test name from one run to the next.
void PrintTo(const ParseCase& c, std::ostream* os) { *os << c.text << " = " << c.expected; }

class ParseBytesValid : public ::testing::TestWithParam<ParseCase> {};

TEST_P(ParseBytesValid, Parses) {
    const auto result = parse_bytes(GetParam().text);
    ASSERT_TRUE(result.has_value()) << GetParam().text;
    EXPECT_EQ(*result, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParseBytesValid,
    ::testing::Values(ParseCase{"4096", 4096}, ParseCase{"16K", 16 * KiB},
                      ParseCase{"16KB", 16 * KiB}, ParseCase{"16KiB", 16 * KiB},
                      ParseCase{"16kb", 16 * KiB}, ParseCase{"3MB", 3 * MiB},
                      ParseCase{"12m", 12 * MiB}, ParseCase{"1.5GB", GiB + 512 * MiB},
                      ParseCase{"2 MB", 2 * MiB}, ParseCase{"0", 0},
                      ParseCase{"7B", 7}, ParseCase{"0.5K", 512}));

class ParseBytesInvalid : public ::testing::TestWithParam<const char*> {};

TEST_P(ParseBytesInvalid, Rejects) {
    EXPECT_FALSE(parse_bytes(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Cases, ParseBytesInvalid,
                         ::testing::Values("", "KB", "12Q", "1.2.3K", "-5K", "1e9",
                                           "12KBs", "  "));

TEST(ParseBytes, RoundTripsFormat) {
    for (const Bytes value : {Bytes{1}, Bytes{512}, 16 * KiB, 3 * MiB, 9 * MiB, 2 * GiB}) {
        const auto parsed = parse_bytes(format_bytes(value));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, value);
    }
}

TEST(FormatBandwidth, PicksScale) {
    EXPECT_EQ(format_bandwidth(3.5e9), "3.50 GB/s");
    EXPECT_EQ(format_bandwidth(820e6), "820.0 MB/s");
    EXPECT_EQ(format_bandwidth(5.0e3), "5.0 KB/s");
    EXPECT_EQ(format_bandwidth(12.0), "12.0 B/s");
}

TEST(FormatLatency, PicksScale) {
    EXPECT_EQ(format_latency(1.5), "1.50 s");
    EXPECT_EQ(format_latency(2.5e-3), "2.50 ms");
    EXPECT_EQ(format_latency(7.1e-6), "7.10 us");
    EXPECT_EQ(format_latency(120e-9), "120 ns");
}

}  // namespace
}  // namespace servet
