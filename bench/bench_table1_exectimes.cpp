// Table I: execution times of each benchmark on the two multicore
// clusters. The paper reports wall-clock minutes on real hardware
// (Dunnington 2/11/20/22 = 55 total; Finis Terrae 2/3/5/33 = 43); our
// substrate is a simulator, so absolute numbers differ wildly — the
// reproducible part is the *relative* structure: the pairwise phases
// dominate, and they are the ones that grow with core count.
#include "bench_util.hpp"

#include <chrono>

#include "base/cli.hpp"
#include "base/table.hpp"
#include "core/suite.hpp"
#include "msg/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/sim_platform.hpp"
#include "sim/zoo.hpp"

using namespace servet;

namespace {

const char* kPhases[] = {"cache_size", "shared_caches", "mem_overhead", "comm_costs"};

std::map<std::string, Seconds> run_machine(const sim::MachineSpec& spec, int jobs) {
    SimPlatform platform(spec);
    msg::SimNetwork network(platform.spec());
    core::SuiteOptions options;
    options.mcalibrator.max_size = 3 * spec.levels.back().geometry.size;
    options.jobs = jobs;
    return core::run_suite(platform, &network, options).phase_seconds;
}

}  // namespace

int main(int argc, char** argv) {
    // --jobs N parallelizes the measurement engine; the phase rows then
    // report summed task time while the wall row shows the actual elapsed
    // time, which is the serial-vs-parallel comparison worth recording.
    CliParser cli("bench_table1_exectimes: Table I, execution time of each suite phase.");
    cli.add_int("jobs", "concurrent measurement tasks", "1", 1);
    cli.add_option("trace", "write a Chrome trace JSON to this file", "");
    cli.add_option("metrics", "write the metrics JSON to this file", "");
    if (!cli.parse(argc, argv)) return 2;
    const int jobs = static_cast<int>(*cli.option_int("jobs"));
    const std::string& trace_path = cli.option("trace");
    const std::string& metrics_path = cli.option("metrics");
    if (!trace_path.empty()) obs::tracer().set_enabled(true);

    const auto wall_start = std::chrono::steady_clock::now();
    const auto dunnington = run_machine(sim::zoo::dunnington(), jobs);
    const auto ft = run_machine(sim::zoo::finis_terrae(2), jobs);
    const double wall_seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    bench::heading("Table I — execution times of all the benchmarks");
    TextTable table({"benchmark", "dunnington (s, sim)", "finis-terrae (s, sim)",
                     "paper dunnington", "paper finis-terrae"});
    const char* paper_dunnington[] = {"2'", "11'", "20'", "22'"};
    const char* paper_ft[] = {"2'", "3'", "5'", "33'"};
    double total_d = 0;
    double total_ft = 0;
    for (int i = 0; i < 4; ++i) {
        const double d = dunnington.count(kPhases[i]) ? dunnington.at(kPhases[i]) : 0.0;
        const double f = ft.count(kPhases[i]) ? ft.at(kPhases[i]) : 0.0;
        total_d += d;
        total_ft += f;
        table.add_row({kPhases[i], strf("%.1f", d), strf("%.1f", f), paper_dunnington[i],
                       paper_ft[i]});
    }
    table.add_row({"Total", strf("%.1f", total_d), strf("%.1f", total_ft), "55'", "43'"});
    std::printf("%s", table.render().c_str());
    std::printf("\nwall-clock for both machines at --jobs %d: %.1f s\n", jobs, wall_seconds);

    bench::note(
        "\nReading vs paper: on real hardware every phase pays wall-clock for every\n"
        "probe, and the O(pairs) phases dominate (Dunnington 53'/55' pairwise; FT's\n"
        "comm phase grows to 33' with the 32-core network probes). In this repo the\n"
        "trace-driven phases (cache sweep, shared caches) carry the simulation cost\n"
        "while the analytic memory/comm models answer instantly — the preserved\n"
        "property is that cost scales with probe count, and that the suite runs\n"
        "once at installation time so absolute cost is unimportant (Section IV-E).");

    if (!trace_path.empty()) {
        obs::tracer().set_enabled(false);
        if (!obs::tracer().write_chrome_trace(trace_path)) {
            std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
            return 1;
        }
        std::printf("trace written to %s\n", trace_path.c_str());
    }
    if (!metrics_path.empty()) {
        if (!obs::write_metrics_json(metrics_path)) {
            std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
            return 1;
        }
        std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    return 0;
}
