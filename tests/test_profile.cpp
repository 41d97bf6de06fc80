#include "core/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

namespace servet::core {
namespace {

Profile rich_profile() {
    Profile profile;
    profile.machine = "sim:dunnington";
    profile.cores = 24;
    profile.page_size = 4096;

    ProfileCacheLevel l1{32 * KiB, "peak", {}};
    ProfileCacheLevel l2{3 * MiB, "probabilistic", {{0, 12}, {1, 13}}};
    ProfileCacheLevel l3{12 * MiB, "probabilistic", {{0, 1, 2, 12, 13, 14}}};
    profile.caches = {l1, l2, l3};

    profile.memory.reference_bandwidth = 3.5e9;
    ProfileMemoryTier tier;
    tier.bandwidth = 2.45e9;
    tier.groups = {{0, 1, 2}, {3, 4, 5}};
    tier.scalability = {3.5e9, 2.45e9, 1.63e9};
    profile.memory.tiers = {tier};

    ProfileCommLayer fast;
    fast.latency = 7.1e-7;
    fast.pairs = {{0, 12}, {1, 13}};
    fast.p2p = {{1024, 1.0e-6}, {4096, 2.2e-6}, {16384, 6.0e-6}};
    fast.slowdown = {1.0, 1.08, 1.15};
    ProfileCommLayer slow;
    slow.latency = 2.2e-6;
    slow.pairs = {{0, 1}, {0, 3}};
    slow.p2p = {{1024, 3.0e-6}, {16384, 1.2e-5}};
    slow.slowdown = {1.0, 1.4};
    profile.comm = {fast, slow};

    profile.phase_seconds = {{"cache_size", 120.0}, {"comm_costs", 1320.0}};
    return profile;
}

TEST(ProfileSerialization, RoundTripsExactly) {
    const Profile original = rich_profile();
    const auto parsed = Profile::parse(original.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, original);
}

TEST(ProfileSerialization, EmptyProfileRoundTrips) {
    Profile empty;
    empty.machine = "nothing";
    const auto parsed = Profile::parse(empty.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, empty);
}

TEST(ProfileSerialization, SaveAndLoadFile) {
    const Profile original = rich_profile();
    const std::string path = ::testing::TempDir() + "/servet_test.profile";
    ASSERT_TRUE(original.save(path));
    const auto loaded = Profile::load(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, original);
    std::remove(path.c_str());
}

TEST(ProfileSerialization, LoadMissingFileFails) {
    EXPECT_FALSE(Profile::load("/nonexistent/servet.profile").has_value());
}

class ProfileParseRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileParseRejects, MalformedInput) {
    EXPECT_FALSE(Profile::parse(GetParam()).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ProfileParseRejects,
    ::testing::Values("", "not-a-profile", "servet-profile 1\nbogus_key = 3",
                      "servet-profile 1\n[unknown section]\n",
                      "servet-profile 1\ncores = many",
                      "servet-profile 1\n[cache 0]\nsize = -5",
                      "servet-profile 1\n[cache 0]\ngroups = 1,,2",
                      "servet-profile 1\n[comm-layer 0]\npairs = 1+2",
                      "servet-profile 1\n[comm-layer 0]\np2p = 1024",
                      "servet-profile 1\n[memory]\nreference = fast",
                      "servet-profile 1\nmachine",
                      // Numbers outside their field's type: no wrapping,
                      // no silent infinity.
                      "servet-profile 1\n[cache 0]\ngroups = 4294967296,1",
                      "servet-profile 1\ncores = 4294967298",
                      "servet-profile 1\n[topology]\ndims = 4294967298,2",
                      "servet-profile 1\n[comm-layer 0]\nlatency = 1e999"));

TEST(ProfileParse, ToleratesCommentsAndBlankLines) {
    const std::string text =
        "servet-profile 1\n# a comment\n\nmachine = box\ncores = 2\npage_size = 4096\n";
    const auto parsed = Profile::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->machine, "box");
    EXPECT_EQ(parsed->cores, 2);
}

TEST(ProfileQueries, CacheSizes) {
    const Profile profile = rich_profile();
    EXPECT_EQ(profile.cache_size(0), 32 * KiB);
    EXPECT_EQ(profile.cache_size(2), 12 * MiB);
    EXPECT_FALSE(profile.cache_size(3).has_value());
    EXPECT_EQ(profile.last_level_cache(), 12 * MiB);
    EXPECT_FALSE(Profile{}.last_level_cache().has_value());
}

TEST(ProfileQueries, SharesCache) {
    const Profile profile = rich_profile();
    EXPECT_TRUE(profile.shares_cache(1, {0, 12}));
    EXPECT_TRUE(profile.shares_cache(1, {12, 0}));
    EXPECT_FALSE(profile.shares_cache(1, {0, 1}));
    EXPECT_TRUE(profile.shares_cache(2, {1, 14}));
    EXPECT_FALSE(profile.shares_cache(0, {0, 12}));  // L1 private
    EXPECT_FALSE(profile.shares_cache(9, {0, 12}));  // no such level
}

TEST(ProfileQueries, CommLayerLookup) {
    const Profile profile = rich_profile();
    EXPECT_EQ(profile.comm_layer_of({0, 12}), 0);
    EXPECT_EQ(profile.comm_layer_of({3, 0}), 1);
    EXPECT_EQ(profile.comm_layer_of({5, 9}), -1);
}

TEST(ProfileQueries, CommLatencyInterpolation) {
    const Profile profile = rich_profile();
    // Midpoint of (1024, 1.0us) and (4096, 2.2us).
    const auto mid = profile.comm_latency({0, 12}, 2560);
    ASSERT_TRUE(mid.has_value());
    EXPECT_NEAR(*mid, 1.6e-6, 1e-9);
    // Exact sweep point.
    EXPECT_NEAR(profile.comm_latency({0, 12}, 4096).value(), 2.2e-6, 1e-12);
    // Above the sweep: linear in the last segment's bandwidth.
    const auto big = profile.comm_latency({0, 12}, 32768).value();
    EXPECT_GT(big, 6.0e-6);
    // Unknown pair.
    EXPECT_FALSE(profile.comm_latency({5, 9}, 1024).has_value());
}

TEST(ProfileQueries, MemoryTierAndBandwidth) {
    const Profile profile = rich_profile();
    EXPECT_EQ(profile.memory_tier_of({0, 2}), 0);
    EXPECT_EQ(profile.memory_tier_of({3, 5}), 0);
    EXPECT_EQ(profile.memory_tier_of({0, 3}), -1);  // different groups
    EXPECT_EQ(profile.memory_bandwidth_at(0, 2), 2.45e9);
    EXPECT_EQ(profile.memory_bandwidth_at(0, 99), 1.63e9);  // clamped
    EXPECT_FALSE(profile.memory_bandwidth_at(7, 1).has_value());
    EXPECT_FALSE(profile.memory_bandwidth_at(0, 0).has_value());
}

TEST(ProfileJson, EmitsAllSections) {
    const std::string json = rich_profile().to_json();
    EXPECT_NE(json.find("\"machine\": \"sim:dunnington\""), std::string::npos);
    EXPECT_NE(json.find("\"caches\": ["), std::string::npos);
    EXPECT_NE(json.find("\"method\": \"probabilistic\""), std::string::npos);
    EXPECT_NE(json.find("\"groups\": [[0,12],[1,13]]"), std::string::npos);
    EXPECT_NE(json.find("\"comm_layers\": ["), std::string::npos);
    EXPECT_NE(json.find("\"phase_seconds\": {"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness proxy).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(ProfileJson, EscapesStrings) {
    Profile profile;
    profile.machine = "weird\"name\nwith\\stuff";
    const std::string json = profile.to_json();
    EXPECT_NE(json.find("weird\\\"name\\nwith\\\\stuff"), std::string::npos);
}

TEST(ProfileJson, EmptyProfileWellFormed) {
    const std::string json = Profile{}.to_json();
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("\"caches\": []"), std::string::npos);
}

TEST(ProfileSerialization, GroupsEmptyVsPresent) {
    Profile profile = rich_profile();
    profile.caches[0].groups = {};
    const auto parsed = Profile::parse(profile.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->caches[0].groups.empty());
    EXPECT_EQ(parsed->caches[1].groups.size(), 2u);
}

// ---- cluster topology block ([topology] / [comm-tier k]) ----

/// Profile of an arity-2, 2-level fat-tree of 4 dual-core nodes (the
/// ft-small shape): layer 0 intra-node, layer 1 the 2-hop edge class,
/// layer 2 the 4-hop top class. Only one representative pair per layer
/// was "probed" — the rest classify analytically.
Profile cluster_profile() {
    Profile profile;
    profile.machine = "sim:ft-small";
    profile.cores = 8;
    profile.page_size = 4096;

    ProfileCommLayer intra;
    intra.latency = 2.0e-6;
    intra.pairs = {{0, 1}};
    intra.p2p = {{1024, 2.0e-6}, {65536, 5.0e-5}};
    intra.slowdown = {1.0};
    ProfileCommLayer edge;
    edge.latency = 6.0e-6;
    edge.pairs = {{0, 2}};
    edge.p2p = {{1024, 6.0e-6}, {65536, 1.2e-4}};
    edge.slowdown = {1.0};
    ProfileCommLayer top;
    top.latency = 1.6e-5;
    top.pairs = {{0, 4}};
    top.p2p = {{1024, 1.6e-5}, {65536, 3.0e-4}};
    top.slowdown = {1.0};
    profile.comm = {intra, edge, top};

    profile.topology = {"fat-tree", 2, {2, 2}};
    profile.comm_tiers = {{"edge", 0, 2, 1}, {"core", 1, 4, 2}};
    return profile;
}

TEST(ProfileSerialization, TopologyRoundTripsExactly) {
    const Profile original = cluster_profile();
    const std::string text = original.serialize();
    EXPECT_NE(text.find("[topology]"), std::string::npos);
    EXPECT_NE(text.find("[comm-tier 0]"), std::string::npos);
    EXPECT_NE(text.find("[comm-tier 1]"), std::string::npos);
    const auto parsed = Profile::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, original);
}

TEST(ProfileSerialization, NoTopologyOmitsSections) {
    // Old profiles must serialize byte-identically: no topology, no new
    // sections and no new JSON keys.
    const std::string text = rich_profile().serialize();
    EXPECT_EQ(text.find("[topology]"), std::string::npos);
    EXPECT_EQ(text.find("[comm-tier"), std::string::npos);
    EXPECT_EQ(rich_profile().to_json().find("\"topology\""), std::string::npos);
}

TEST(ProfileJson, TopologyEmitted) {
    const std::string json = cluster_profile().to_json();
    EXPECT_NE(json.find("\"topology\""), std::string::npos);
    EXPECT_NE(json.find("\"fat-tree\""), std::string::npos);
    EXPECT_NE(json.find("\"comm_tiers\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(ProfileQueries, ClusterFallbackClassifiesUnprobedPairs) {
    const Profile profile = cluster_profile();
    // Probed pairs resolve as measured.
    EXPECT_EQ(profile.comm_layer_of({0, 1}), 0);
    EXPECT_EQ(profile.comm_layer_of({2, 0}), 1);
    // Unprobed intra-node pair: node 1's {2,3} translates to the node-0
    // twin {0,1}.
    EXPECT_EQ(profile.comm_layer_of({2, 3}), 0);
    // Unprobed inter-node pairs route over the rebuilt topology and match
    // a comm tier: (1,2) spans adjacent nodes (2 hops, edge); (3,6) spans
    // edge switches (4 hops, core).
    EXPECT_EQ(profile.comm_layer_of({1, 2}), 1);
    EXPECT_EQ(profile.comm_layer_of({3, 6}), 2);
    // And prices from the matched layer's stored curve.
    EXPECT_EQ(profile.comm_latency({3, 6}, 1024), profile.layer_latency(2, 1024));
    EXPECT_FALSE(profile.layer_latency(9, 1024).has_value());
}

TEST(ProfileQueries, CustomTopologyHasNoAnalyticFallback) {
    Profile profile = cluster_profile();
    profile.topology.kind = "custom";
    profile.topology.dims.clear();
    // Measured pairs still classify; unprobed inter-node pairs cannot be
    // routed without the explicit link list, which the profile does not
    // carry.
    EXPECT_EQ(profile.comm_layer_of({0, 2}), 1);
    EXPECT_EQ(profile.comm_layer_of({3, 6}), -1);
}

}  // namespace
}  // namespace servet::core
