#include "base/fault_plan.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "base/check.hpp"
#include "base/hash.hpp"
#include "base/text.hpp"

namespace servet {

namespace {

/// A real-valued key of the spec: the field it sets and the finite values
/// it accepts, lo <= v <= hi (lo < v when lo_open).
struct RealKey {
    std::string_view key;
    double FaultPlan::*field;
    double lo;
    double hi;
    bool lo_open = false;
};

constexpr double kUnbounded = std::numeric_limits<double>::max();

constexpr RealKey kRealKeys[] = {
    {"spike", &FaultPlan::spike_probability, 0, 1},
    {"factor", &FaultPlan::spike_factor, 1, kUnbounded},
    {"nan", &FaultPlan::nan_probability, 0, 1},
    {"throw", &FaultPlan::throw_probability, 0, 1},
    {"hang", &FaultPlan::hang_probability, 0, 1},
    {"hang_seconds", &FaultPlan::hang_seconds, 0, kUnbounded, true},
    {"drop", &FaultPlan::drop_probability, 0, 1},
    {"delay", &FaultPlan::delay_probability, 0, 1},
    {"delay_factor", &FaultPlan::delay_factor, 1, kUnbounded},
    {"conn_drop", &FaultPlan::conn_drop_probability, 0, 1},
    {"conn_delay", &FaultPlan::conn_delay_probability, 0, 1},
    {"conn_delay_seconds", &FaultPlan::conn_delay_seconds, 0, kUnbounded},
    {"conn_reset", &FaultPlan::conn_reset_probability, 0, 1},
    {"conn_truncate", &FaultPlan::conn_truncate_probability, 0, 1},
    {"conn_trickle", &FaultPlan::conn_trickle_probability, 0, 1},
};

}  // namespace

std::uint64_t FaultPlan::fingerprint() const {
    Fingerprint fp;
    fp.add(spike_probability);
    fp.add(spike_factor);
    fp.add(nan_probability);
    fp.add(throw_probability);
    fp.add(hang_probability);
    fp.add(hang_seconds);
    fp.add(drop_probability);
    fp.add(delay_probability);
    fp.add(delay_factor);
    fp.add(conn_drop_probability);
    fp.add(conn_delay_probability);
    fp.add(conn_delay_seconds);
    fp.add(conn_reset_probability);
    fp.add(conn_truncate_probability);
    fp.add(conn_trickle_probability);
    fp.add(seed);
    return fp.value();
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec) {
    FaultPlan plan;
    for (const std::string_view field : split(spec, ',')) {
        if (field.empty()) continue;
        const std::size_t eq = field.find('=');
        if (eq == std::string_view::npos) return std::nullopt;
        const std::string_view key = field.substr(0, eq);
        const std::string_view value = field.substr(eq + 1);
        if (key == "seed") {
            const auto seed = parse_int<std::uint64_t>(value);
            if (!seed) return std::nullopt;
            plan.seed = *seed;
            continue;
        }
        const auto real = std::find_if(std::begin(kRealKeys), std::end(kRealKeys),
                                       [&](const RealKey& k) { return k.key == key; });
        const auto v = parse_finite(value);
        if (real == std::end(kRealKeys) || !v || *v < real->lo || *v > real->hi ||
            (real->lo_open && *v == real->lo))
            return std::nullopt;
        plan.*real->field = *v;
    }
    return plan;
}

FaultPlan FaultPlan::from_env(const FaultPlan& fallback) {
    const char* spec = std::getenv("SERVET_FAULTS");
    if (spec == nullptr) return fallback;
    const auto plan = parse(spec);
    SERVET_CHECK_MSG(plan.has_value(), "SERVET_FAULTS is set but does not parse");
    return *plan;
}

FaultPlan FaultPlan::from_env() { return from_env(FaultPlan{}); }

}  // namespace servet
