// The determinism contract of the batched line-stream engine: traverse()
// and traverse_reference() are the same machine executed two ways, and
// must agree cycle-for-cycle and Stable-counter-for-counter on every
// machine in the zoo, on randomized synthetic machines, and through the
// full detection suite at any parallelism. This is what entitles the
// golden profiles to stay pinned while the engine's hot path evolves
// (docs/simulator.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "core/suite.hpp"
#include "msg/sim_network.hpp"
#include "obs/metrics.hpp"
#include "platform/sim_platform.hpp"
#include "sim/engine.hpp"
#include "sim/zoo.hpp"

namespace servet::sim {
namespace {

struct TraverseCall {
    std::vector<CoreId> cores;
    Bytes array_bytes;
    Bytes stride;
    int passes;
    bool fresh_placement;
};

/// Two distinct cores served by one instance of the lowest level that
/// shares one, or an empty list when every instance is private.
std::vector<CoreId> sharing_pair(const MachineSpec& spec) {
    for (const CacheLevelSpec& level : spec.levels)
        for (const std::vector<CoreId>& instance : level.instances)
            if (instance.size() >= 2) return {instance[0], instance[1]};
    return {};
}

/// A call schedule touching every regime of `spec`: L1-resident,
/// mid-hierarchy, past the last level (memory + contention), line-stride
/// (prefetcher streaming), probe-stride, single- and multi-core, fresh
/// and static placement, back-to-back calls sharing one instance (so
/// run_counter_ advancement is exercised too). The init sweep's edges get
/// their own calls: prefetch fills running past the array into a page of
/// their own, an array inside one L1 way, a size that is no whole number
/// of pages, and a concurrent pair sharing a cache instance. So do pass
/// collapsing's: 1, 2 and 5 measured passes, a stride past one page
/// (where dempsey's first comparison fails), a TLB with fewer entries than the
/// array has pages, a 256 B stride whose fills run past the array's end,
/// and a concurrent pair sharing an instance.
std::vector<TraverseCall> call_schedule(const MachineSpec& spec) {
    const Bytes l1 = spec.levels.front().geometry.size;
    const Bytes l1_way = l1 / static_cast<Bytes>(spec.levels.front().geometry.associativity);
    const Bytes llc = spec.levels.back().geometry.size;
    const Bytes page = spec.page_size;
    std::vector<TraverseCall> calls;
    calls.push_back({{0}, l1 / 2, 1 * KiB, 2, true});
    calls.push_back({{0}, 2 * l1, 256, 2, true});       // prefetcher in reach
    calls.push_back({{0}, llc + llc / 4, 1 * KiB, 2, true});  // past the LLC
    calls.push_back({{0}, llc / 2, 64, 1, false});      // line stride, static
    calls.push_back({{0}, 2 * l1, 1 * KiB, 3, false});
    calls.push_back({{0}, 2 * page, 1 * KiB, 1, true});  // fills fault in a third page
    calls.push_back({{0}, l1_way / 2, 256, 2, true});    // inside one L1 way
    calls.push_back({{0}, 5 * page + page / 3, 1 * KiB, 2, true});  // no whole page
    calls.push_back({{0}, llc + llc / 4, 1 * KiB, 5, true});
    calls.push_back({{0}, llc / 2, page + 64, 5, true});
    calls.push_back({{0}, 4 * page, 256, 5, true});       // fills past the end
    calls.push_back({{0}, 2 * l1, 256, 5, false});
    if (spec.tlb.enabled) {
        const Bytes tlb_reach = static_cast<Bytes>(spec.tlb.entries) * page;
        calls.push_back({{0}, 2 * tlb_reach, 1 * KiB, 5, true});
    }
    if (spec.n_cores >= 2) {
        calls.push_back({{0, spec.n_cores - 1}, llc / 2, 1 * KiB, 2, false});
        calls.push_back({{0, 1}, llc + llc / 4, 1 * KiB, 1, true});  // contended misses
    }
    if (const std::vector<CoreId> pair = sharing_pair(spec); !pair.empty()) {
        calls.push_back({pair, llc / 2, 1 * KiB, 2, true});
        calls.push_back({{pair[1], pair[0]}, llc + llc / 4, 1 * KiB, 1, false});
        calls.push_back({pair, 4 * page, 256, 5, true});
        calls.push_back({pair, llc / 2, 1 * KiB, 5, false});
    }
    if (spec.n_cores >= 3) calls.push_back({{2, 0, 1}, 2 * l1, 256, 2, true});
    return calls;
}

/// Run the schedule through two fresh MachineSim instances — one per
/// engine — and require identical cycles, identical demand-access counts,
/// identical Stable counter deltas, and identical simulated state after
/// every call.
void expect_engines_agree(const MachineSpec& spec, const std::string& label) {
    MachineSim batched(spec);
    MachineSim reference(spec);
    const std::vector<TraverseCall> calls = call_schedule(spec);
    EXPECT_EQ(batched.state_digest(), reference.state_digest()) << label << " before any call";

    const std::map<std::string, std::uint64_t> before = obs::registry().stable_counters();
    std::vector<TraversalResult> batched_results;
    std::vector<std::uint64_t> batched_states;
    for (const TraverseCall& c : calls) {
        batched_results.push_back(
            batched.traverse(c.cores, c.array_bytes, c.stride, c.passes, c.fresh_placement));
        batched_states.push_back(batched.state_digest());
    }
    const std::map<std::string, std::uint64_t> mid = obs::registry().stable_counters();
    std::vector<TraversalResult> reference_results;
    std::vector<std::uint64_t> reference_states;
    for (const TraverseCall& c : calls) {
        reference_results.push_back(reference.traverse_reference(
            c.cores, c.array_bytes, c.stride, c.passes, c.fresh_placement));
        reference_states.push_back(reference.state_digest());
    }
    const std::map<std::string, std::uint64_t> after = obs::registry().stable_counters();

    EXPECT_EQ(batched.total_accesses(), reference.total_accesses()) << label;
    for (std::size_t i = 0; i < calls.size(); ++i) {
        const TraversalResult& b = batched_results[i];
        const TraversalResult& r = reference_results[i];
        ASSERT_EQ(b.cycles_per_access.size(), r.cycles_per_access.size()) << label;
        EXPECT_EQ(b.accesses_per_core, r.accesses_per_core) << label << " call " << i;
        for (std::size_t core = 0; core < b.cycles_per_access.size(); ++core)
            EXPECT_EQ(b.cycles_per_access[core], r.cycles_per_access[core])
                << label << " call " << i << " core slot " << core
                << " (bit-exact equality required)";
        EXPECT_EQ(batched_states[i], reference_states[i])
            << label << " call " << i << ": simulated state differs";
    }

    // Stable counters: the batched window (before -> mid) and the
    // reference window (mid -> after) must have pushed identical deltas.
    // Keys absent from an earlier snapshot start at zero.
    const auto value_in = [](const std::map<std::string, std::uint64_t>& snapshot,
                             const std::string& key) -> std::uint64_t {
        const auto it = snapshot.find(key);
        return it == snapshot.end() ? 0 : it->second;
    };
    for (const auto& [key, final_value] : after) {
        const std::uint64_t batched_delta = value_in(mid, key) - value_in(before, key);
        const std::uint64_t reference_delta = final_value - value_in(mid, key);
        EXPECT_EQ(batched_delta, reference_delta) << label << " counter " << key;
    }
}

TEST(BatchedEquivalence, Dunnington) { expect_engines_agree(zoo::dunnington(), "dunnington"); }
TEST(BatchedEquivalence, FinisTerrae) {
    expect_engines_agree(zoo::finis_terrae(), "finis_terrae");
}
TEST(BatchedEquivalence, Dempsey) { expect_engines_agree(zoo::dempsey(), "dempsey"); }
TEST(BatchedEquivalence, Athlon3200) {
    expect_engines_agree(zoo::athlon3200(), "athlon3200");
}
TEST(BatchedEquivalence, Nehalem2S) { expect_engines_agree(zoo::nehalem2s(), "nehalem2s"); }

TEST(BatchedEquivalence, ColoringPolicy) {
    MachineSpec spec = zoo::finis_terrae();
    spec.page_policy = PagePolicy::Coloring;
    expect_engines_agree(spec, "finis_terrae+coloring");
}

TEST(BatchedEquivalence, TlbVariants) {
    // A tiny TLB forces misses (and page-walk penalties) at probe strides;
    // this is the regime where the demand page cache must not over-skip.
    MachineSpec spec = zoo::dempsey();
    spec.tlb.enabled = true;
    spec.tlb.entries = 8;
    spec.tlb.miss_cycles = 30;
    expect_engines_agree(spec, "dempsey+tiny-tlb");

    spec = zoo::nehalem2s();
    spec.tlb.enabled = true;
    spec.tlb.entries = 64;
    expect_engines_agree(spec, "nehalem2s+tlb");
}

TEST(BatchedEquivalence, PrefetcherVariants) {
    MachineSpec eager = zoo::dempsey();
    eager.prefetcher.trigger_streak = 0;  // streams from the first access
    eager.prefetcher.degree = 8;
    expect_engines_agree(eager, "dempsey+eager-prefetch");

    MachineSpec reluctant = zoo::dempsey();
    reluctant.prefetcher.trigger_streak = 5;
    reluctant.prefetcher.max_stride = 2 * KiB;  // probe stride in reach
    expect_engines_agree(reluctant, "dempsey+reluctant-prefetch");

    MachineSpec off = zoo::dempsey();
    off.prefetcher.enabled = false;
    expect_engines_agree(off, "dempsey+no-prefetch");
}

/// Pass collapsing on the profile's own probe: a 6 MiB dempsey array at
/// the 1 KiB stride settles in the warm-up, so of the warm-up and 3
/// measured passes only the warm-up and pass 0 are simulated (the init
/// sweep is closed-form), and the result is still the oracle's.
TEST(PassCollapsing, SettledProbeSimulatesWarmUpAndOnePass) {
    const MachineSpec spec = zoo::dempsey();
    MachineSim batched(spec);
    MachineSim reference(spec);
    const Bytes size = 6 * MiB;
    const std::uint64_t count = size / KiB;
    const TraversalResult b = batched.traverse({0}, size, 1 * KiB, 3);
    const TraversalResult r = reference.traverse_reference({0}, size, 1 * KiB, 3);
    EXPECT_EQ(batched.simulated_accesses(), 2 * count);
    EXPECT_EQ(batched.total_accesses(), reference.total_accesses());
    EXPECT_EQ(reference.simulated_accesses(), reference.total_accesses());
    EXPECT_EQ(b.cycles_per_access, r.cycles_per_access);
    EXPECT_EQ(batched.state_digest(), reference.state_digest());
}

/// A traversal whose pass 0 does not repeat the warm-up: at a stride past
/// one page the caches settle one pass later, so the first comparison
/// fails and the second collapses the last 3 of 5 passes. Found by a
/// randomized sweep of machines, sizes, strides and pass counts.
TEST(PassCollapsing, FailedFirstComparisonStillMatchesOracle) {
    const MachineSpec spec = zoo::dempsey();
    MachineSim batched(spec);
    MachineSim reference(spec);
    const Bytes size = 1 * MiB;
    const Bytes stride = spec.page_size + 64;
    const std::uint64_t count = (size + stride - 1) / stride;
    const TraversalResult b = batched.traverse({0}, size, stride, 5);
    const TraversalResult r = reference.traverse_reference({0}, size, stride, 5);
    EXPECT_EQ(batched.simulated_accesses(), 3 * count);
    EXPECT_EQ(b.cycles_per_access, r.cycles_per_access);
    EXPECT_EQ(batched.state_digest(), reference.state_digest());
}

class RandomizedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedEquivalence, EnginesAgree) {
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 1);
    zoo::SyntheticOptions options;
    options.cores = 2 + static_cast<int>(rng.next_below(2)) * 2;  // 2 or 4
    const Bytes l1_choices[] = {16 * KiB, 32 * KiB, 64 * KiB};
    options.l1_size = l1_choices[rng.next_below(3)];
    const Bytes l2_choices[] = {512 * KiB, 1 * MiB, 2 * MiB};
    options.l2_size = l2_choices[rng.next_below(3)];
    options.l2_sharing = (options.cores == 4 && rng.next_below(2) == 0) ? 2 : 1;
    options.page_policy =
        rng.next_below(3) == 0 ? PagePolicy::Coloring : PagePolicy::Random;
    options.seed = GetParam() * 977;

    MachineSpec spec = zoo::synthetic(options);
    spec.tlb.enabled = rng.next_below(2) == 0;
    spec.tlb.entries = 8 << rng.next_below(4);  // 8..64
    spec.prefetcher.trigger_streak = static_cast<int>(rng.next_below(4));
    spec.prefetcher.degree = 1 + static_cast<int>(rng.next_below(4));
    spec.prefetcher.max_stride = 256ull << rng.next_below(3);  // 256..1024
    expect_engines_agree(spec, "synthetic seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

/// Suite-level closure: the full detection pipeline on a reference-engine
/// platform at jobs=1 must emit the same profile bytes as the batched
/// engine at jobs=1 and jobs=4.
TEST(BatchedEquivalence, SuiteProfileMatchesAcrossEnginesAndJobs) {
    const MachineSpec spec = zoo::dempsey();
    core::SuiteOptions options;
    options.mcalibrator.max_size = 3 * spec.levels.back().geometry.size;
    options.mcalibrator.repeats = 2;
    options.shared_cache.only_with_core = 0;
    options.mem_overhead.only_with_core = 0;

    const auto profile_with = [&](SimPlatform::Engine engine, int jobs) {
        SimPlatform platform(spec);
        platform.set_engine(engine);
        msg::SimNetwork network(platform.spec());
        core::SuiteOptions run_options = options;
        run_options.jobs = jobs;
        const core::SuiteResult result = core::run_suite(platform, &network, run_options);
        core::Profile profile = result.to_profile(spec.name, spec.n_cores, spec.page_size);
        profile.phase_seconds.clear();  // wall clock legitimately differs
        return profile.serialize();
    };

    const std::string reference_serial = profile_with(SimPlatform::Engine::Reference, 1);
    EXPECT_EQ(reference_serial, profile_with(SimPlatform::Engine::Batched, 1));
    EXPECT_EQ(reference_serial, profile_with(SimPlatform::Engine::Batched, 4));
}

}  // namespace
}  // namespace servet::sim
