#include "autotune/search/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "base/check.hpp"
#include "base/hash.hpp"
#include "base/rng.hpp"
#include "base/text.hpp"
#include "core/measure.hpp"
#include "obs/metrics.hpp"

namespace servet::autotune::search {

namespace {

/// Exact decimal; non-finite costs (an unpriced candidate evaluated
/// analytically) render as null so the trace stays valid JSON.
std::string format_double(double v) { return std::isfinite(v) ? format_exact(v) : "null"; }

struct Candidate {
    Config config;
    std::optional<double> prior;
};

/// Fixes the evaluation order before anything runs: enumeration order for
/// exhaustive, a seeded Fisher-Yates shuffle for random, a stable sort by
/// analytic prior (unpriced candidates last, enumeration order breaking
/// ties) for guided.
std::vector<Candidate> order_candidates(const Tunable& tunable, const SearchOptions& options) {
    std::vector<Candidate> candidates;
    for (Config& config : tunable.space().enumerate()) {
        Candidate c;
        c.prior = tunable.analytic_cost(config);
        c.config = std::move(config);
        candidates.push_back(std::move(c));
    }
    switch (options.strategy) {
        case Strategy::Exhaustive:
            break;
        case Strategy::Random: {
            Rng rng(mix64(options.seed));
            for (std::size_t i = candidates.size(); i > 1; --i) {
                const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
                std::swap(candidates[i - 1], candidates[j]);
            }
            break;
        }
        case Strategy::Guided:
            std::stable_sort(candidates.begin(), candidates.end(),
                             [](const Candidate& a, const Candidate& b) {
                                 if (a.prior.has_value() != b.prior.has_value())
                                     return a.prior.has_value();
                                 if (!a.prior.has_value()) return false;
                                 return *a.prior < *b.prior;
                             });
            break;
    }
    return candidates;
}

}  // namespace

std::string_view strategy_name(Strategy strategy) {
    switch (strategy) {
        case Strategy::Exhaustive: return "exhaustive";
        case Strategy::Random: return "random";
        case Strategy::Guided: return "guided";
    }
    return "unknown";
}

std::optional<Strategy> parse_strategy(std::string_view text) {
    for (const Strategy s : all_strategies())
        if (text == strategy_name(s)) return s;
    return std::nullopt;
}

const std::vector<Strategy>& all_strategies() {
    static const std::vector<Strategy> all = {Strategy::Exhaustive, Strategy::Random,
                                              Strategy::Guided};
    return all;
}

std::optional<SearchResult> run_search(const Tunable& tunable, const SearchOptions& options) {
    std::vector<Candidate> candidates = order_candidates(tunable, options);
    const std::size_t space_size = candidates.size();
    if (candidates.empty()) return std::nullopt;
    if (options.budget > 0 && candidates.size() > options.budget)
        candidates.resize(options.budget);

    const bool measured = options.engine != nullptr && tunable.measurable();
    std::vector<double> costs(candidates.size());
    if (measured) {
        std::vector<core::MeasureTask> tasks;
        tasks.reserve(candidates.size());
        for (const Candidate& c : candidates) {
            core::MeasureTask task;
            task.key = "tune:" + tunable.name() + ":" + c.config.key();
            Config config = c.config;
            task.body = [&tunable, config = std::move(config)](Platform* platform,
                                                               msg::Network* network) {
                return std::vector<double>{tunable.measure(config, platform, network)};
            };
            tasks.push_back(std::move(task));
        }
        const auto values = options.engine->run(tasks);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            SERVET_CHECK(!values[i].empty());
            costs[i] = values[i][0];
        }
    } else {
        for (std::size_t i = 0; i < candidates.size(); ++i)
            costs[i] = candidates[i].prior.value_or(std::numeric_limits<double>::infinity());
    }

    SearchResult result;
    result.space_size = space_size;
    result.evals = candidates.size();
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        Evaluation eval;
        eval.order = i + 1;
        eval.config_key = candidates[i].config.key();
        eval.config_hash = candidates[i].config.hash();
        eval.prior = candidates[i].prior;
        eval.cost = costs[i];
        eval.measured = measured;
        result.trace.push_back(std::move(eval));
        if (costs[i] < costs[best_index]) best_index = i;
    }
    result.best = candidates[best_index].config;
    result.best_cost = costs[best_index];
    result.evals_to_best = best_index + 1;

    // Registered once, schedule-invariant: the candidate list (and thus
    // the evaluation count) is fixed before any evaluation runs.
    static obs::Counter& evals_counter =
        obs::counter("autotune.search.evals", obs::Stability::Stable);
    static obs::Gauge& best_cost_gauge = obs::gauge("autotune.search.best_cost");
    evals_counter.add(result.evals);
    const double nano = result.best_cost * 1e9;
    best_cost_gauge.set(
        !(nano > 0) ? 0
                    : (nano >= 9e18 ? std::uint64_t{9000000000000000000ULL}
                                    : static_cast<std::uint64_t>(std::llround(nano))));
    return result;
}

std::string trace_json(const Tunable& tunable, const SearchOptions& options,
                       const SearchResult& result) {
    std::string out = "{";
    out += "\"tunable\":\"" + json_escape(tunable.name()) + "\"";
    out += ",\"strategy\":\"" + std::string(strategy_name(options.strategy)) + "\"";
    out += ",\"budget\":" + std::to_string(options.budget);
    out += ",\"seed\":" + std::to_string(options.seed);
    out += ",\"space\":" + std::to_string(result.space_size);
    out += ",\"evals\":" + std::to_string(result.evals);
    out += ",\"evals_to_best\":" + std::to_string(result.evals_to_best);
    out += ",\"best\":{\"key\":\"" + json_escape(result.best.key()) + "\"";
    out += ",\"cost\":" + format_double(result.best_cost) + "}";
    out += ",\"trace\":[";
    for (std::size_t i = 0; i < result.trace.size(); ++i) {
        const Evaluation& eval = result.trace[i];
        if (i > 0) out += ',';
        out += "{\"i\":" + std::to_string(eval.order);
        out += ",\"key\":\"" + json_escape(eval.config_key) + "\"";
        out += ",\"prior\":" + (eval.prior ? format_double(*eval.prior) : "null");
        out += ",\"cost\":" + format_double(eval.cost);
        out += std::string(",\"measured\":") + (eval.measured ? "true" : "false") + "}";
    }
    out += "]}";
    return out;
}

}  // namespace servet::autotune::search
