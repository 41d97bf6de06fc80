// Profile validation: the checked-in goldens must pass clean, and
// hand-corrupted profiles must trigger the specific violation codes a
// corruption of that kind implies — `servet validate --repair` keys its
// targeted re-measurement off those codes' implicated phases.
#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/profile.hpp"

namespace servet::core {
namespace {

std::vector<std::string> codes_of(const ValidationReport& report) {
    std::vector<std::string> codes;
    for (const Violation& v : report.violations) codes.push_back(v.code);
    return codes;
}

bool has_code(const ValidationReport& report, const std::string& code) {
    const auto codes = codes_of(report);
    return std::find(codes.begin(), codes.end(), code) != codes.end();
}

testing::AssertionResult only_code(const ValidationReport& report, const std::string& code) {
    if (report.violations.empty())
        return testing::AssertionFailure() << "no violations; expected " << code;
    for (const Violation& v : report.violations)
        if (v.code != code)
            return testing::AssertionFailure()
                   << "unexpected violation " << v.code << ": " << v.message;
    return testing::AssertionSuccess();
}

/// A small physically-consistent profile every corruption test starts
/// from; must validate clean.
Profile sane_profile() {
    Profile profile;
    profile.machine = "sim:test";
    profile.cores = 4;
    profile.page_size = 4096;
    profile.caches = {
        {16 * 1024, "peak", {}},
        {256 * 1024, "probabilistic", {{0, 1}, {2, 3}}},
    };
    profile.memory.reference_bandwidth = 3.0e9;
    profile.memory.tiers = {
        {1.5e9, {{0, 1, 2, 3}}, {3.0e9, 2.0e9, 1.7e9, 1.5e9}},
    };
    profile.comm = {
        {1.0e-6, {{0, 1}, {2, 3}}, {{1024, 1.0e-6}, {4096, 2.5e-6}}, {1.0, 1.1}},
        {5.0e-6, {{0, 2}, {0, 3}, {1, 2}, {1, 3}}, {{1024, 5.0e-6}, {4096, 1.3e-5}}, {1.0}},
    };
    return profile;
}

TEST(Validate, SaneProfilePassesClean) {
    const ValidationReport report = validate_profile(sane_profile());
    EXPECT_TRUE(report.violations.empty())
        << (report.violations.empty() ? "" : report.violations.front().code + ": " +
                                                 report.violations.front().message);
    EXPECT_FALSE(report.has_errors());
    EXPECT_TRUE(report.implicated_phases().empty());
}

TEST(Validate, CheckedInGoldensPassClean) {
    for (const char* name : {"athlon3200", "dempsey", "nehalem2s"}) {
        const std::string path = std::string(SERVET_GOLDEN_DIR) + "/" + name + ".profile";
        std::string diagnostic;
        const auto profile = Profile::load(path, &diagnostic);
        ASSERT_TRUE(profile.has_value()) << diagnostic;
        const ValidationReport report = validate_profile(*profile);
        for (const Violation& v : report.violations)
            ADD_FAILURE() << name << ": " << v.code << " " << v.message;
    }
}

TEST(Validate, SwappedCacheLevelsTriggerSizeOrder) {
    Profile profile = sane_profile();
    std::swap(profile.caches[0].size, profile.caches[1].size);
    const ValidationReport report = validate_profile(profile);
    EXPECT_TRUE(only_code(report, "cache.size-order"));
    EXPECT_TRUE(report.has_errors());
    // cache_size corruption poisons everything sized by it.
    EXPECT_EQ(report.implicated_phases(),
              (std::vector<std::string>{"cache_size", "shared_caches", "mem_overhead",
                                        "comm_costs"}));
}

TEST(Validate, ZeroCacheSizeIsAnError) {
    Profile profile = sane_profile();
    profile.caches[0].size = 0;
    const ValidationReport report = validate_profile(profile);
    EXPECT_TRUE(has_code(report, "cache.size-positive"));
}

TEST(Validate, OverlappingSharingGroupsTriggerGroupsOverlap) {
    Profile profile = sane_profile();
    profile.caches[1].groups = {{0, 1}, {1, 2, 3}};  // core 1 in two instances
    const ValidationReport report = validate_profile(profile);
    EXPECT_TRUE(only_code(report, "cache.groups-overlap"));
    // Groups are measured by the shared-cache probe, not the size scan:
    // only that phase re-measures.
    EXPECT_EQ(report.implicated_phases(), std::vector<std::string>{"shared_caches"});
}

TEST(Validate, OutOfRangeGroupCoreTriggerGroupsRange) {
    Profile profile = sane_profile();
    profile.caches[1].groups = {{0, 7}};
    EXPECT_TRUE(has_code(validate_profile(profile), "cache.groups-range"));
}

TEST(Validate, NegativeTierBandwidthTriggerTierBandwidth) {
    Profile profile = sane_profile();
    profile.memory.tiers[0].bandwidth = -1.5e9;
    const ValidationReport report = validate_profile(profile);
    EXPECT_TRUE(only_code(report, "memory.tier-bandwidth"));
    EXPECT_EQ(report.implicated_phases(), std::vector<std::string>{"mem_overhead"});
}

TEST(Validate, ContendedTierFasterThanReferenceIsAnError) {
    Profile profile = sane_profile();
    profile.memory.tiers[0].bandwidth = profile.memory.reference_bandwidth * 1.5;
    EXPECT_TRUE(has_code(validate_profile(profile), "memory.tier-exceeds-reference"));
}

TEST(Validate, RisingScalabilityCurveIsOnlyAWarning) {
    Profile profile = sane_profile();
    profile.memory.tiers[0].scalability = {1.5e9, 2.9e9};  // speeds up under contention?
    const ValidationReport report = validate_profile(profile);
    EXPECT_TRUE(only_code(report, "memory.scalability-order"));
    EXPECT_FALSE(report.has_errors());
    EXPECT_TRUE(report.implicated_phases().empty());  // warnings implicate nothing
}

TEST(Validate, DecreasingLayerLatencyTriggerLatencyOrder) {
    Profile profile = sane_profile();
    std::swap(profile.comm[0].latency, profile.comm[1].latency);
    const ValidationReport report = validate_profile(profile);
    EXPECT_TRUE(has_code(report, "comm.latency-order"));
    EXPECT_EQ(report.implicated_phases(), std::vector<std::string>{"comm_costs"});
}

TEST(Validate, NegativeP2pLatencyIsAnError) {
    Profile profile = sane_profile();
    profile.comm[1].p2p[0].second = -1.0e-6;
    EXPECT_TRUE(has_code(validate_profile(profile), "comm.p2p-latency-positive"));
}

TEST(Validate, RemoteLayerFasterThanNearTriggersBandwidthOrder) {
    Profile profile = sane_profile();
    profile.comm[1].p2p = {{1024, 1.0e-7}, {4096, 4.0e-7}};  // 10x the near layer's speed
    const ValidationReport report = validate_profile(profile);
    EXPECT_TRUE(has_code(report, "comm.bandwidth-order"));
}

TEST(Validate, SlowdownBelowOneIsAWarning) {
    Profile profile = sane_profile();
    profile.comm[0].slowdown = {1.0, 0.8};
    const ValidationReport report = validate_profile(profile);
    EXPECT_TRUE(only_code(report, "comm.slowdown-band"));
    EXPECT_FALSE(report.has_errors());
}

TEST(Validate, NanCommValuesAreFlagged) {
    // NaN fails every ordered comparison, so each check must test for a
    // finite value explicitly.
    Profile slow = sane_profile();
    slow.comm[0].slowdown = {1.0, std::nan("")};
    EXPECT_TRUE(only_code(validate_profile(slow), "comm.slowdown-band"));

    Profile p2p = sane_profile();
    p2p.comm[1].p2p[0].second = std::nan("");
    EXPECT_TRUE(has_code(validate_profile(p2p), "comm.p2p-latency-positive"));

    Profile latency = sane_profile();
    latency.comm[1].latency = std::nan("");
    EXPECT_TRUE(has_code(validate_profile(latency), "comm.latency-positive"));
}

TEST(Validate, MeasurementJitterWithinSlackIsTolerated) {
    Profile profile = sane_profile();
    // 1% over the reference / 1% below the previous layer: inside the 2%
    // slack band, so no violation.
    profile.memory.tiers[0].bandwidth = profile.memory.reference_bandwidth * 1.01;
    profile.comm[1].latency = profile.comm[0].latency * 0.99;
    profile.comm[0].slowdown = {0.99, 1.0};
    EXPECT_TRUE(validate_profile(profile).violations.empty());
}

TEST(Validate, BadHeaderFieldsImplicateNoPhase) {
    Profile profile = sane_profile();
    profile.cores = 0;
    profile.page_size = 0;
    // Out-of-range groups etc. would now also fire; use a minimal profile.
    Profile minimal;
    minimal.machine = "x";
    minimal.cores = 0;
    minimal.page_size = 0;
    const ValidationReport report = validate_profile(minimal);
    EXPECT_TRUE(has_code(report, "profile.cores"));
    EXPECT_TRUE(has_code(report, "profile.page-size"));
    EXPECT_TRUE(report.has_errors());
    EXPECT_TRUE(report.implicated_phases().empty());  // nothing to re-measure
}

TEST(Validate, PartialProfileErrorsBecomeWarnings) {
    Profile profile = sane_profile();
    profile.comm.clear();
    profile.errors["comm_costs"] = "injected fault: network down";
    const ValidationReport report = validate_profile(profile);
    EXPECT_TRUE(only_code(report, "profile.partial"));
    EXPECT_FALSE(report.has_errors());
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].phase, "comm_costs");
}

TEST(Validate, SeverityToStringNamesBoth) {
    EXPECT_STREQ(to_string(Severity::Error), "error");
    EXPECT_STREQ(to_string(Severity::Warning), "warning");
}

}  // namespace
}  // namespace servet::core
