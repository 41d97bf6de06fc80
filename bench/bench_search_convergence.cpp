// Search-quality benchmark for the autotune search core (CI job
// perf-smoke, baseline BENCH_search.json). On the deterministic dempsey
// model it measures, for every tunable kernel, how many measured
// evaluations each strategy needs before it first lands on the
// exhaustive optimum (evals-to-best). Blind random is averaged over a
// fixed seed set; guided ranks the same candidates by the profile's
// analytic cost model first. The pinned metric is
//
//   advantage = mean over kernels of
//               (random mean evals-to-best / guided evals-to-best)
//
// i.e. how many times fewer measurements the profile prior buys at equal
// budget. Everything is simulated and seeded, so the number is exact and
// machine-independent; regression means the analytic models and the
// measured kernels drifted apart. --json emits the perf_smoke.py feed.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "autotune/kernels/kernels.hpp"
#include "autotune/search/strategy.hpp"
#include "base/cli.hpp"
#include "core/measure.hpp"
#include "core/profile.hpp"
#include "core/suite.hpp"
#include "msg/sim_network.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"

using namespace servet;

namespace {

struct KernelRow {
    std::string kernel;
    std::size_t space = 0;
    double optimum = 0;
    std::size_t guided_evals_to_best = 0;
    double random_mean_evals_to_best = 0;
    bool guided_found_optimum = false;
};

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("bench_search_convergence: evals-to-optimum per search strategy "
                  "on the dempsey model's tunable kernels.");
    cli.add_int("seeds", "random-strategy seeds averaged per kernel", "8", 1);
    cli.add_flag("json", "emit the perf_smoke.py JSON feed instead of text");
    if (!cli.parse(argc, argv)) return 2;
    const long long seeds = *cli.option_int("seeds");

    const sim::MachineSpec spec = sim::zoo::dempsey();
    SimPlatform platform(spec);
    msg::SimNetwork network(spec);

    // The guided strategy's prior: the model machine's own fast profile,
    // measured through the same substrate the kernels run on.
    core::SuiteOptions suite_options;
    suite_options.mcalibrator.repeats = 2;
    suite_options.shared_cache.only_with_core = 0;
    suite_options.mem_overhead.only_with_core = 0;
    const core::Profile profile =
        core::run_suite(platform, &network, suite_options)
            .to_profile(platform.name(), spec.n_cores, spec.page_size);

    core::MeasureEngine engine(&platform, &network, nullptr, nullptr);

    std::vector<KernelRow> rows;
    double advantage_sum = 0;
    bool all_found = true;
    for (const std::string& name : autotune::kernels::kernel_names()) {
        const auto kernel =
            autotune::kernels::make_kernel(name, profile, platform.core_count());
        if (!kernel) {
            std::fprintf(stderr, "bench_search_convergence: unknown kernel %s\n",
                         name.c_str());
            return 2;
        }

        autotune::search::SearchOptions options;
        options.engine = &engine;

        options.strategy = autotune::search::Strategy::Exhaustive;
        const auto exhaustive = autotune::search::run_search(*kernel, options);
        if (!exhaustive) {
            std::fprintf(stderr, "bench_search_convergence: %s admits no config\n",
                         name.c_str());
            return 2;
        }

        options.strategy = autotune::search::Strategy::Guided;
        const auto guided = autotune::search::run_search(*kernel, options);

        KernelRow row;
        row.kernel = name;
        row.space = exhaustive->space_size;
        row.optimum = exhaustive->best_cost;
        row.guided_evals_to_best = guided->evals_to_best;
        row.guided_found_optimum = guided->best_cost == exhaustive->best_cost;
        all_found = all_found && row.guided_found_optimum;

        options.strategy = autotune::search::Strategy::Random;
        std::size_t random_total = 0;
        for (long long seed = 1; seed <= seeds; ++seed) {
            options.seed = static_cast<std::uint64_t>(seed);
            const auto random = autotune::search::run_search(*kernel, options);
            random_total += random->evals_to_best;
        }
        row.random_mean_evals_to_best =
            static_cast<double>(random_total) / static_cast<double>(seeds);

        advantage_sum += row.random_mean_evals_to_best /
                         static_cast<double>(row.guided_evals_to_best);
        rows.push_back(row);
    }
    const double advantage = advantage_sum / static_cast<double>(rows.size());

    const std::string workload =
        "dempsey-" + std::to_string(rows.size()) + "kernels-" +
        std::to_string(seeds) + "seeds";
    if (cli.flag("json")) {
        std::printf("{\n");
        std::printf("  \"benchmark\": \"search_convergence\",\n");
        std::printf("  \"workload\": \"%s\",\n", workload.c_str());
        std::printf("  \"advantage\": %.4f,\n", advantage);
        std::printf("  \"guided_found_optimum\": %s,\n", all_found ? "true" : "false");
        std::printf("  \"kernels\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const KernelRow& r = rows[i];
            std::printf("    {\"kernel\": \"%s\", \"space\": %zu, "
                        "\"guided_evals_to_best\": %zu, "
                        "\"random_mean_evals_to_best\": %.2f, "
                        "\"guided_found_optimum\": %s}%s\n",
                        r.kernel.c_str(), r.space, r.guided_evals_to_best,
                        r.random_mean_evals_to_best,
                        r.guided_found_optimum ? "true" : "false",
                        i + 1 == rows.size() ? "" : ",");
        }
        std::printf("  ]\n}\n");
    } else {
        std::printf("bench_search_convergence: %s\n", workload.c_str());
        std::printf("  %-10s %6s %10s %16s %8s\n", "kernel", "space", "guided@",
                    "random@ (mean)", "optimum");
        for (const KernelRow& r : rows)
            std::printf("  %-10s %6zu %10zu %16.2f %8s\n", r.kernel.c_str(), r.space,
                        r.guided_evals_to_best, r.random_mean_evals_to_best,
                        r.guided_found_optimum ? "yes" : "MISSED");
        std::printf("  advantage (random/guided evals-to-best): %.2fx\n", advantage);
    }
    // The contract perf-smoke pins: the prior must actually help, and
    // guided must end at the true optimum — a pretty advantage over a
    // wrong answer is worthless.
    if (!all_found) {
        std::fprintf(stderr, "bench_search_convergence: guided missed the exhaustive "
                     "optimum on at least one kernel\n");
        return 1;
    }
    return 0;
}
