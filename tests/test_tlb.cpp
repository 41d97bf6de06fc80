#include <gtest/gtest.h>

#include "core/tlb_detect.hpp"
#include "platform/sim_platform.hpp"
#include "sim/engine.hpp"
#include "sim/zoo.hpp"

namespace servet {
namespace {

sim::MachineSpec with_tlb(sim::MachineSpec spec, int entries, Cycles miss_cycles) {
    spec.tlb = {.enabled = true, .entries = entries, .miss_cycles = miss_cycles};
    spec.measurement_jitter = 0.0;
    return spec;
}

TEST(EngineTlb, DisabledByDefaultInZoo) {
    for (const auto& spec : sim::zoo::paper_machines()) EXPECT_FALSE(spec.tlb.enabled);
}

TEST(EngineTlb, WithinReachNoPenalty) {
    sim::MachineSim machine(with_tlb(sim::zoo::dempsey(), 64, 30));
    // 16 pages of 4KB at 1KB stride: resident in L1-ish and in TLB.
    const Cycles c = machine.traverse_one(0, 16 * KiB, 1 * KiB, 3);
    EXPECT_LT(c, 4.0);
}

TEST(EngineTlb, BeyondReachPaysWalkPerNewPage) {
    // 1KB stride = 4 accesses per 4KB page; past reach, one of every four
    // accesses walks: +miss_cycles/4 per access on the L2 plateau.
    sim::MachineSpec spec = with_tlb(sim::zoo::dempsey(), 64, 30);
    sim::MachineSim with(spec);
    spec.tlb.enabled = false;
    sim::MachineSim without(spec);
    const Bytes array = 1 * MiB;  // 256 pages >> 64 entries, still in 2MB L2
    const Cycles penalized = with.traverse_one(0, array, 1 * KiB, 3);
    const Cycles clean = without.traverse_one(0, array, 1 * KiB, 3);
    EXPECT_NEAR(penalized - clean, 30.0 / 4.0, 1.0);
}

TEST(EngineTlb, PageStrideMissesEveryAccess) {
    sim::MachineSpec spec = with_tlb(sim::zoo::dempsey(), 64, 30);
    sim::MachineSim with(spec);
    spec.tlb.enabled = false;
    sim::MachineSim without(spec);
    // One access per page, 256 pages: every access walks once past reach.
    const Bytes stride = 4 * KiB + 64;
    const Bytes array = 256 * stride;
    const Cycles penalized = with.traverse_one(0, array, stride, 3);
    const Cycles clean = without.traverse_one(0, array, stride, 3);
    EXPECT_NEAR(penalized - clean, 30.0, 3.0);
}

struct TlbCase {
    int entries;
    Cycles miss_cycles;
    bool big_l1;  ///< probe on Athlon (64KB L1) for large TLBs — the probe
                  ///< range is bounded by L1 line capacity (see header)
};

// Names each case by its fields; the default byte dump would include the
// uninitialised padding and vary between builds.
void PrintTo(const TlbCase& c, std::ostream* os) {
    *os << c.entries << " entries " << c.miss_cycles << " cycles on "
        << (c.big_l1 ? "athlon3200" : "dempsey");
}

class TlbDetection : public ::testing::TestWithParam<TlbCase> {};

TEST_P(TlbDetection, RecoversEntriesAndPenalty) {
    const auto& param = GetParam();
    const sim::MachineSpec base =
        param.big_l1 ? sim::zoo::athlon3200() : sim::zoo::dempsey();
    SimPlatform platform(with_tlb(base, param.entries, param.miss_cycles));
    core::TlbDetectOptions options;
    options.l1_size = base.levels[0].geometry.size;
    const auto estimate = core::detect_tlb(platform, options);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_EQ(estimate->entries, param.entries);
    EXPECT_NEAR(estimate->miss_cycles, param.miss_cycles, 0.25 * param.miss_cycles);
    EXPECT_EQ(estimate->reach_bytes,
              static_cast<Bytes>(param.entries) * platform.page_size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, TlbDetection,
                         ::testing::Values(TlbCase{32, 30, false}, TlbCase{64, 30, false},
                                           TlbCase{128, 25, true}, TlbCase{256, 40, true}));

TEST(TlbDetection, BeyondProbeRangeIsUndetectable) {
    // A 512-entry TLB on a 16KB L1 (128-page probe cap): honestly nullopt
    // rather than a bogus estimate contaminated by the L1 transition.
    SimPlatform platform(with_tlb(sim::zoo::dempsey(), 512, 30));
    EXPECT_FALSE(core::detect_tlb(platform).has_value());
}

TEST(TlbDetection, NoTlbMeansNoEstimate) {
    sim::MachineSpec spec = sim::zoo::dempsey();
    spec.measurement_jitter = 0.0;
    SimPlatform platform(spec);
    EXPECT_FALSE(core::detect_tlb(platform).has_value());
}

TEST(TlbDetection, SurvivesJitter) {
    sim::MachineSpec spec = with_tlb(sim::zoo::dempsey(), 64, 30);
    spec.measurement_jitter = 0.02;
    SimPlatform platform(spec);
    const auto estimate = core::detect_tlb(platform);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_EQ(estimate->entries, 64);
}

TEST(TlbSpec, ValidationChecksEnabledFields) {
    sim::MachineSpec spec = sim::zoo::dempsey();
    spec.tlb = {.enabled = true, .entries = 0, .miss_cycles = 30};
    EXPECT_FALSE(spec.validate().empty());
    spec.tlb = {.enabled = false, .entries = 0, .miss_cycles = 0};
    EXPECT_TRUE(spec.validate().empty());
}

}  // namespace
}  // namespace servet
