// End-to-end test of the installed `servet` binary: the install-time
// workflow (profile -> report -> price) executed through the real CLI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef SERVET_TOOL_PATH
#error "SERVET_TOOL_PATH must be defined by the build"
#endif

namespace {

struct CommandResult {
    int exit_code;
    std::string output;
};

CommandResult run_tool(const std::string& args) {
    // Unique per process and per call: ctest runs each ToolCli test as its
    // own process against the same TempDir, so a shared capture file would
    // race (one test deleting another's output mid-read).
    static std::atomic<int> serial{0};
    const std::string out_path = ::testing::TempDir() + "/servet_tool_out_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(serial.fetch_add(1)) + ".txt";
    const std::string command =
        std::string(SERVET_TOOL_PATH) + " " + args + " > " + out_path + " 2>&1";
    const int status = std::system(command.c_str());
    std::ifstream in(out_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::remove(out_path.c_str());
    return {WEXITSTATUS(status), buffer.str()};
}

std::string profile_path() { return ::testing::TempDir() + "/tool_cli.profile"; }

TEST(ToolCli, NoArgsPrintsUsageAndFails) {
    const auto result = run_tool("");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("usage: servet"), std::string::npos);
}

TEST(ToolCli, MachinesListsTargets) {
    const auto result = run_tool("machines");
    EXPECT_EQ(result.exit_code, 0);
    EXPECT_NE(result.output.find("dunnington"), std::string::npos);
    EXPECT_NE(result.output.find("native"), std::string::npos);
    // The cluster zoo rides along: the 1k/4k fat-trees and the 10k dragonfly.
    EXPECT_NE(result.output.find("ft1024"), std::string::npos);
    EXPECT_NE(result.output.find("ft4096"), std::string::npos);
    EXPECT_NE(result.output.find("df10240"), std::string::npos);
}

TEST(ToolCli, ProfileReportPriceWorkflow) {
    // Dempsey is the cheapest multicore model to measure.
    const auto profile = run_tool("profile --machine dempsey --fast --out " + profile_path());
    ASSERT_EQ(profile.exit_code, 0) << profile.output;
    EXPECT_NE(profile.output.find("2 cache levels"), std::string::npos);

    const auto report = run_tool("report --profile " + profile_path());
    EXPECT_EQ(report.exit_code, 0);
    EXPECT_NE(report.output.find("16KB"), std::string::npos);
    EXPECT_NE(report.output.find("2MB"), std::string::npos);

    const auto markdown = run_tool("report --markdown --profile " + profile_path());
    EXPECT_EQ(markdown.exit_code, 0);
    EXPECT_NE(markdown.output.find("# Servet hardware report"), std::string::npos);

    const auto dot = run_tool("report --dot --profile " + profile_path());
    EXPECT_EQ(dot.exit_code, 0);
    EXPECT_NE(dot.output.find("digraph servet"), std::string::npos);

    const auto json = run_tool("report --json --profile " + profile_path());
    EXPECT_EQ(json.exit_code, 0);
    EXPECT_NE(json.output.find("\"machine\""), std::string::npos);

    const auto price = run_tool("price --profile " + profile_path() +
                                " --from 0 --to 1 --size 64KB");
    EXPECT_EQ(price.exit_code, 0);
    EXPECT_NE(price.output.find("(0,1) 64KB one-way"), std::string::npos);

    std::remove(profile_path().c_str());
}

TEST(ToolCli, ProfileExportsTraceAndMetrics) {
    const std::string trace_path = ::testing::TempDir() + "/tool_cli_trace.json";
    const std::string metrics_path = ::testing::TempDir() + "/tool_cli_metrics.json";
    const auto profile = run_tool("profile --machine dempsey --fast --profile-counters"
                                  " --out " + profile_path() +
                                  " --trace " + trace_path +
                                  " --metrics " + metrics_path);
    ASSERT_EQ(profile.exit_code, 0) << profile.output;
    EXPECT_NE(profile.output.find("trace written to"), std::string::npos);
    EXPECT_NE(profile.output.find("metrics written to"), std::string::npos);

    std::ifstream trace_in(trace_path);
    std::stringstream trace;
    trace << trace_in.rdbuf();
    EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.str().find("suite/run"), std::string::npos);

    std::ifstream metrics_in(metrics_path);
    std::stringstream metrics;
    metrics << metrics_in.rdbuf();
    EXPECT_NE(metrics.str().find("\"deterministic\""), std::string::npos);
    EXPECT_NE(metrics.str().find("exec.tasks.run"), std::string::npos);

    // --profile-counters embeds the deterministic block in the profile.
    std::ifstream profile_in(profile_path());
    std::stringstream stored;
    stored << profile_in.rdbuf();
    EXPECT_NE(stored.str().find("[counters]"), std::string::npos);

    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
    std::remove(profile_path().c_str());
}

TEST(ToolCli, MetricsSubcommandPrintsSummaryTable) {
    const auto result = run_tool("metrics --machine dempsey --fast");
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("metric"), std::string::npos);
    EXPECT_NE(result.output.find("exec.tasks.run"), std::string::npos);
    EXPECT_NE(result.output.find("stable"), std::string::npos);
}

TEST(ToolCli, InjectedPhaseFailureYieldsPartialProfileAndExitCode3) {
    // throw=1 makes every platform probe throw, so the platform-side
    // phases fail; the comm phase measures through the network and still
    // completes. The tool must write the partial profile, name the failed
    // phases, and exit with the documented partial-success code.
    const std::string path = ::testing::TempDir() + "/tool_cli_partial.profile";
    const auto result =
        run_tool("profile --machine dempsey --fast --faults throw=1,seed=1 --out " + path);
    EXPECT_EQ(result.exit_code, 3) << result.output;
    EXPECT_NE(result.output.find("phase"), std::string::npos);
    EXPECT_NE(result.output.find("failed"), std::string::npos);

    std::ifstream in(path);
    std::stringstream stored;
    stored << in.rdbuf();
    EXPECT_NE(stored.str().find("[errors]"), std::string::npos);
    EXPECT_NE(stored.str().find("cache_size"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ToolCli, NaNPlatformSamplesFailTheirPhasesWithExitCode3) {
    // nan=1 turns every platform sample into NaN: the cache-size and
    // memory phases fail with detect.bad_sample, the comm phase still
    // measures through the network, and the run exits 3, not 134.
    const std::string path = ::testing::TempDir() + "/tool_cli_nan.profile";
    const auto result =
        run_tool("profile --machine dempsey --fast --faults nan=1,seed=1 --out " + path);
    EXPECT_EQ(result.exit_code, 3) << result.output;
    std::ifstream in(path);
    std::stringstream stored;
    stored << in.rdbuf();
    EXPECT_NE(stored.str().find("cache_size = detect.bad_sample"), std::string::npos)
        << stored.str();
    EXPECT_NE(stored.str().find("mem_overhead = detect.bad_sample"), std::string::npos)
        << stored.str();
    std::remove(path.c_str());
}

TEST(ToolCli, BadMemoValueFailsCacheSizePhaseWithExitCode3) {
    // A memo file is data from outside the run: a replayed mcalibrator
    // sample of 0, -1 or NaN must cost the cache-size phase, not abort.
    const std::string memo = ::testing::TempDir() + "/tool_cli_bad_value.memo";
    const std::string path = ::testing::TempDir() + "/tool_cli_bad_value.profile";
    std::remove(memo.c_str());
    ASSERT_EQ(run_tool("profile --machine dempsey --fast --memo " + memo + " --out " + path)
                  .exit_code,
              0);
    std::vector<std::string> lines;
    {
        std::ifstream in(memo);
        for (std::string line; std::getline(in, line);) lines.push_back(line);
    }
    for (const char* bad : {"0x0p+0", "-0x1p+0", "nan"}) {
        {
            // Records read "<key> <count> <values...>"; the first mcalibrator
            // record holds one value.
            std::ofstream out(memo, std::ios::trunc);
            bool replaced = false;
            for (const std::string& line : lines) {
                if (!replaced && line.find("/mcal/") != std::string::npos) {
                    out << line.substr(0, line.rfind(' ') + 1) << bad << "\n";
                    replaced = true;
                } else {
                    out << line << "\n";
                }
            }
            ASSERT_TRUE(replaced);
        }
        const auto result =
            run_tool("profile --machine dempsey --fast --memo " + memo + " --out " + path);
        EXPECT_EQ(result.exit_code, 3) << bad << "\n" << result.output;
        std::ifstream in(path);
        std::stringstream stored;
        stored << in.rdbuf();
        EXPECT_NE(stored.str().find("cache_size = detect.bad_sample"), std::string::npos)
            << bad << "\n" << stored.str();
    }
    std::remove(memo.c_str());
    std::remove(path.c_str());
}

TEST(ToolCli, FaultsWithRobustSamplingStillSucceed) {
    // Survivable fault rates through the adaptive sampler: exit 0 and a
    // complete profile, faults notwithstanding.
    const std::string path = ::testing::TempDir() + "/tool_cli_faulty.profile";
    const auto result = run_tool(
        "profile --machine dempsey --fast --jobs 4 --robust 3 --robust-max 9"
        " --faults spike=0.05,factor=8,nan=0.02,seed=1337 --out " + path);
    EXPECT_EQ(result.exit_code, 0) << result.output;

    std::ifstream in(path);
    std::stringstream stored;
    stored << in.rdbuf();
    EXPECT_EQ(stored.str().find("[errors]"), std::string::npos);
    EXPECT_NE(stored.str().find("[cache 0]"), std::string::npos);
    std::remove(path.c_str());
}

/// Writes `text` to a TempDir platform file and returns its path.
std::string write_platform(const std::string& name, const std::string& text) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return path;
}

TEST(ToolCli, ClusterPlatformProfileWorkflow) {
    // Smallest interesting cluster so the end-to-end run stays cheap: a
    // 2-level arity-2 fat-tree of 4 dual-core nodes (8 ranks).
    const std::string platform = write_platform(
        "tool_cli_ft.platform",
        "servet-platform 1\n"
        "name = ft-file\n"
        "cores_per_node = 2\n"
        "[topology]\n"
        "kind = fat-tree\n"
        "arity = 2\n"
        "levels = 2\n"
        "[tier 0]\n"
        "name = edge\n"
        "hop_latency = 2.5e-6\n"
        "bandwidth = 1.2e9\n"
        "congestion = 0.35\n"
        "[tier 1]\n"
        "name = core\n"
        "hop_latency = 5.0e-6\n"
        "bandwidth = 0.8e9\n"
        "congestion = 0.45\n");
    const std::string path = ::testing::TempDir() + "/tool_cli_cluster.profile";

    const auto profile = run_tool("profile --platform " + platform + " --out " + path);
    ASSERT_EQ(profile.exit_code, 0) << profile.output;
    EXPECT_NE(profile.output.find("ft-file"), std::string::npos);

    const auto report = run_tool("report --profile " + path);
    EXPECT_EQ(report.exit_code, 0) << report.output;
    EXPECT_NE(report.output.find("cluster topology: fat-tree"), std::string::npos);
    EXPECT_NE(report.output.find("edge"), std::string::npos);

    // (1,6) spans nodes 0 and 3 and is not in the sampled probe set; the
    // profile prices it through the topology fallback anyway.
    const auto price = run_tool("price --profile " + path +
                                " --from 1 --to 6 --size 64KB");
    EXPECT_EQ(price.exit_code, 0) << price.output;
    EXPECT_NE(price.output.find("(1,6) 64KB one-way"), std::string::npos);

    const auto validate = run_tool("validate --profile " + path);
    EXPECT_EQ(validate.exit_code, 0) << validate.output;

    std::remove(platform.c_str());
    std::remove(path.c_str());
}

TEST(ToolCli, MalformedPlatformFileExitsTwoWithStableCode) {
    const std::string platform = write_platform(
        "tool_cli_bad.platform",
        "servet-platform 1\n"
        "[topology]\n"
        "kind = fat-tree\n"
        "arity = 3\n"
        "levels = 1\n"
        "[tier 0]\n"
        "name = edge\n");
    const auto result = run_tool("profile --platform " + platform);
    EXPECT_EQ(result.exit_code, 2) << result.output;
    EXPECT_NE(result.output.find("platform.fattree.arity"), std::string::npos);
    std::remove(platform.c_str());
}

TEST(ToolCli, NonFinitePlatformFieldExitsTwoWithStableCode) {
    const std::string platform = write_platform(
        "tool_cli_nan.platform",
        "servet-platform 1\n"
        "[topology]\n"
        "kind = torus\n"
        "dims = 2,2\n"
        "[tier 0]\n"
        "name = link\n"
        "hop_latency = nan\n"
        "bandwidth = 1e9\n");
    const auto result = run_tool("profile --platform " + platform);
    EXPECT_EQ(result.exit_code, 2) << result.output;
    EXPECT_NE(result.output.find("platform.field"), std::string::npos) << result.output;
    std::remove(platform.c_str());
}

TEST(ToolCli, ImpossibleMemoCountWarnsAndRunsCold) {
    const std::string platform = write_platform(
        "tool_cli_memo.platform",
        "servet-platform 1\n"
        "[topology]\n"
        "kind = torus\n"
        "dims = 2,2\n"
        "[tier 0]\n"
        "name = link\n"
        "hop_latency = 1e-6\n"
        "bandwidth = 1e9\n");
    const std::string memo = ::testing::TempDir() + "/tool_cli_bad_count.memo";
    {
        std::ofstream out(memo);
        out << "servet-memo 1\nk 18446744073709551615 0x1p+0\n";
    }
    const auto result = run_tool("profile --platform " + platform + " --no-timing --memo " +
                                 memo + " --out " + profile_path());
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("ignoring malformed memo file"), std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("loaded"), std::string::npos) << result.output;
    std::remove(memo.c_str());
    std::remove(platform.c_str());
}

TEST(ToolCli, MissingPlatformFileExitsTwo) {
    const auto result = run_tool("profile --platform /nonexistent.platform");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("platform.io"), std::string::npos);
}

TEST(ToolCli, MalformedFaultSpecFails) {
    const auto result = run_tool("profile --machine dempsey --fast --faults bogus=1");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("fault"), std::string::npos);
}

TEST(ToolCli, UnknownMachineFails) {
    const auto result = run_tool("profile --machine bogus");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("unknown machine"), std::string::npos);
}

TEST(ToolCli, MissingProfileFails) {
    const auto result = run_tool("report --profile /nonexistent.profile");
    EXPECT_NE(result.exit_code, 0);
}

TEST(ToolCli, MalformedProfileExitsTwoAndMissingProfileExitsOne) {
    // The dempsey golden with a group id past the core-id range: the file
    // is there and readable, but it is not a valid profile.
    std::ifstream golden(SERVET_GOLDEN_DIR "/dempsey.profile");
    std::stringstream buffer;
    buffer << golden.rdbuf();
    std::string text = buffer.str();
    const std::string groups = "groups = 0,1\n";
    ASSERT_NE(text.find(groups), std::string::npos);
    text.replace(text.find(groups), groups.size(), "groups = 4294967296,1\n");
    const std::string malformed = ::testing::TempDir() + "/tool_cli_malformed_" +
                                  std::to_string(::getpid()) + ".profile";
    std::ofstream(malformed, std::ios::trunc) << text;

    for (const char* command : {"report", "validate", "price", "map", "broadcast"}) {
        const auto bad = run_tool(std::string(command) + " --profile " + malformed);
        EXPECT_EQ(bad.exit_code, 2) << command << "\n" << bad.output;
        EXPECT_NE(bad.output.find("is not a valid servet profile"), std::string::npos)
            << command << "\n" << bad.output;
        const auto missing = run_tool(std::string(command) + " --profile /nonexistent.profile");
        EXPECT_EQ(missing.exit_code, 1) << command << "\n" << missing.output;
        EXPECT_NE(missing.output.find("no such file"), std::string::npos)
            << command << "\n" << missing.output;
    }
    std::remove(malformed.c_str());
}

TEST(ToolCli, MemoOnNativeIsRefusedBeforeMeasuring) {
    // Native measurements have no content fingerprint to key a memo by;
    // the run must be refused, not measured with the memo silently unused.
    const std::string tag = std::to_string(::getpid());
    const std::string memo = ::testing::TempDir() + "/tool_cli_native_" + tag + ".memo";
    const std::string out = ::testing::TempDir() + "/tool_cli_native_" + tag + ".profile";
    const auto result =
        run_tool("profile --machine native --fast --memo " + memo + " --out " + out);
    EXPECT_EQ(result.exit_code, 2) << result.output;
    EXPECT_NE(result.output.find("--memo"), std::string::npos) << result.output;
    EXPECT_EQ(result.output.find("[servet info"), std::string::npos) << result.output;
    EXPECT_FALSE(std::ifstream(memo).good());
    EXPECT_FALSE(std::ifstream(out).good());
}

TEST(ToolCli, MetricsStableOnlyOmitsVolatileRows) {
    const std::string path = ::testing::TempDir() + "/tool_cli_stable_only.json";
    const auto result =
        run_tool("metrics --machine dempsey --fast --stable-only --out " + path);
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("exec.tasks.run"), std::string::npos);
    EXPECT_EQ(result.output.find("volatile"), std::string::npos);

    std::ifstream in(path);
    std::stringstream stored;
    stored << in.rdbuf();
    EXPECT_NE(stored.str().find("\"deterministic\""), std::string::npos);
    EXPECT_EQ(stored.str().find("\"volatile\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(ToolCli, ProfileExportFailureExitsFiveButStillWritesTheProfile) {
    // A directory as the metrics target makes the export unwritable; the
    // measurement itself succeeded, so the profile must still land and the
    // exit code must name the export failure, distinct from 2 and 3.
    const std::string path = ::testing::TempDir() + "/tool_cli_export_fail.profile";
    const auto result = run_tool("profile --machine dempsey --fast --out " + path +
                                 " --metrics " + ::testing::TempDir());
    EXPECT_EQ(result.exit_code, 5) << result.output;
    EXPECT_NE(result.output.find("cannot write"), std::string::npos);

    std::ifstream in(path);
    std::stringstream stored;
    stored << in.rdbuf();
    EXPECT_NE(stored.str().find("[cache 0]"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ToolCli, WatchStableSeriesExitsZeroWithDriftNone) {
    const std::string run_dir = ::testing::TempDir() + "/tool_cli_watch_stable_" +
                                std::to_string(::getpid());
    const auto result = run_tool("watch --machine dempsey --fast --jobs 4 --run-dir " +
                                 run_dir + " --ticks 5");
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("drift.none"), std::string::npos);
    EXPECT_EQ(result.output.find("drift.confirmed"), std::string::npos);
    EXPECT_NE(result.output.find("5 tick(s) measured"), std::string::npos);

    // A second invocation replays the committed series and stays stable.
    const auto resumed = run_tool("watch --machine dempsey --fast --jobs 4 --run-dir " +
                                  run_dir + " --ticks 1");
    EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("5 replayed"), std::string::npos);

    // --ticks 0 is replay-only: re-judge the committed series without
    // measuring a new sample.
    const auto replayed = run_tool("watch --machine dempsey --fast --run-dir " +
                                   run_dir + " --ticks 0");
    EXPECT_EQ(replayed.exit_code, 0) << replayed.output;
    EXPECT_NE(replayed.output.find("0 tick(s) measured, 6 replayed"), std::string::npos);
}

TEST(ToolCli, WatchPerturbedSeriesConfirmsDriftAndExitsFour) {
    const std::string run_dir = ::testing::TempDir() + "/tool_cli_watch_drift_" +
                                std::to_string(::getpid());
    const auto result = run_tool(
        "watch --machine dempsey --fast --jobs 4 --run-dir " + run_dir +
        " --ticks 5 --perturb-tick 3 --faults spike=1,factor=4,delay=1,delay_factor=4,seed=1");
    EXPECT_EQ(result.exit_code, 4) << result.output;
    EXPECT_NE(result.output.find("drift.confirmed"), std::string::npos);
    EXPECT_NE(result.output.find("worst verdict drift.confirmed"), std::string::npos);
}

TEST(ToolCli, ValidateAgainstBaselineGradesDrift) {
    const std::string base = ::testing::TempDir() + "/tool_cli_against_base.profile";
    const std::string same = ::testing::TempDir() + "/tool_cli_against_same.profile";
    ASSERT_EQ(run_tool("profile --machine dempsey --fast --out " + base).exit_code, 0);
    ASSERT_EQ(run_tool("profile --machine dempsey --fast --out " + same).exit_code, 0);

    // Identical measurements: every metric in band, exit 0.
    const auto clean = run_tool("validate --profile " + same + " --against " + base);
    EXPECT_EQ(clean.exit_code, 0) << clean.output;
    EXPECT_NE(clean.output.find("drift.none"), std::string::npos);

    // A spiked re-measurement shifts the memory bandwidths far out of the
    // baseline band: confirmed drift, the dedicated exit code.
    const std::string drifted = ::testing::TempDir() + "/tool_cli_against_drift.profile";
    ASSERT_EQ(run_tool("profile --machine dempsey --fast --faults spike=1,factor=4,seed=1"
                       " --out " + drifted).exit_code, 0);
    const auto result = run_tool("validate --profile " + drifted + " --against " + base);
    EXPECT_EQ(result.exit_code, 4) << result.output;
    EXPECT_NE(result.output.find("drift.confirmed"), std::string::npos);

    std::remove(base.c_str());
    std::remove(same.c_str());
    std::remove(drifted.c_str());
}

/// One request on a fresh loopback connection, read to EOF.
std::string serve_round_trip(int port, const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return "";
    }
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n =
            ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char chunk[8192];
    while (true) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) break;
        response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
}

TEST(ToolCli, ServeUploadFetchSigterm) {
    // The full daemon lifecycle: fork/exec `servet serve` on an ephemeral
    // port, drive the protocol over raw sockets, SIGTERM, expect exit 0.
    const std::string dir = ::testing::TempDir() + "/tool_cli_serve_" +
                            std::to_string(::getpid());
    const std::string port_file = dir + "/port";
    const std::string store_dir = dir + "/store";
    ASSERT_EQ(run_tool("profile --machine athlon3200 --fast --no-timing --out " + dir +
                       "/golden.profile").exit_code, 0);
    std::string body;
    {
        std::ifstream in(dir + "/golden.profile");
        std::stringstream buffer;
        buffer << in.rdbuf();
        body = buffer.str();
    }
    ASSERT_FALSE(body.empty());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::execl(SERVET_TOOL_PATH, SERVET_TOOL_PATH, "serve", "--port", "0",
                "--store-dir", store_dir.c_str(), "--port-file", port_file.c_str(),
                static_cast<char*>(nullptr));
        _exit(127);  // exec failed
    }

    int port = 0;
    for (int attempt = 0; attempt < 100 && port == 0; ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        std::ifstream in(port_file);
        in >> port;
    }
    ASSERT_GT(port, 0) << "daemon never wrote the port file";

    const std::string fp = "00000000deadbeef";
    const std::string opts = "0123456789abcdef";
    const std::string put = serve_round_trip(
        port, "PUT /v1/profile/" + fp + "/" + opts + " HTTP/1.1\r\ncontent-length: " +
                  std::to_string(body.size()) + "\r\nconnection: close\r\n\r\n" + body);
    EXPECT_EQ(put.compare(0, 12, "HTTP/1.1 201"), 0) << put;

    const std::string get = serve_round_trip(
        port, "GET /v1/profile/" + fp + " HTTP/1.1\r\nconnection: close\r\n\r\n");
    EXPECT_EQ(get.compare(0, 12, "HTTP/1.1 200"), 0) << get;
    const std::size_t head_end = get.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos);
    EXPECT_EQ(get.substr(head_end + 4), body);  // byte-identical round trip

    const std::string revalidated = serve_round_trip(
        port, "GET /v1/profile/" + fp + " HTTP/1.1\r\nif-none-match: \"" + opts +
                  "\"\r\nconnection: close\r\n\r\n");
    EXPECT_EQ(revalidated.compare(0, 12, "HTTP/1.1 304"), 0) << revalidated;

    const std::string malformed = serve_round_trip(port, "NOT-HTTP\r\n\r\n");
    EXPECT_EQ(malformed.compare(0, 12, "HTTP/1.1 400"), 0) << malformed;

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "daemon did not exit cleanly on SIGTERM";
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

std::string read_whole_file(const std::string& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(ToolCli, TuneSearchesEveryStrategyAndWritesTheTrace) {
    // One measured-in-advance profile shared by all invocations so each
    // tune run skips the in-process suite.
    const std::string dir = ::testing::TempDir() + "/tool_cli_tune_" +
                            std::to_string(::getpid());
    const std::string profile = dir + "/dempsey.profile";
    ASSERT_EQ(run_tool("profile --machine dempsey --fast --no-timing --out " + profile)
                  .exit_code, 0);

    for (const std::string strategy : {"exhaustive", "random", "guided"}) {
        const std::string trace = dir + "/trace_" + strategy + ".json";
        const auto result =
            run_tool("tune --machine dempsey --kernel transpose --strategy " + strategy +
                     " --profile " + profile + " --trace " + trace);
        EXPECT_EQ(result.exit_code, 0) << result.output;
        EXPECT_NE(result.output.find("tune: transpose"), std::string::npos);
        EXPECT_NE(result.output.find("best block="), std::string::npos);
        const std::string json = read_whole_file(trace);
        EXPECT_EQ(json.compare(0, 1, "{"), 0);
        EXPECT_NE(json.find("\"tunable\":\"transpose\""), std::string::npos);
        EXPECT_NE(json.find("\"strategy\":\"" + strategy + "\""), std::string::npos);
        EXPECT_NE(json.find("\"measured\":true"), std::string::npos);
        std::remove(trace.c_str());
    }
    std::remove(profile.c_str());
}

TEST(ToolCli, TuneTraceIsByteIdenticalAcrossJobs) {
    const std::string dir = ::testing::TempDir() + "/tool_cli_tune_jobs_" +
                            std::to_string(::getpid());
    const std::string profile = dir + "/dempsey.profile";
    ASSERT_EQ(run_tool("profile --machine dempsey --fast --no-timing --out " + profile)
                  .exit_code, 0);
    const std::string serial_trace = dir + "/serial.json";
    const std::string parallel_trace = dir + "/parallel.json";
    ASSERT_EQ(run_tool("tune --machine dempsey --kernel stencil --strategy guided "
                       "--budget 9 --jobs 1 --profile " + profile + " --trace " +
                       serial_trace).exit_code, 0);
    ASSERT_EQ(run_tool("tune --machine dempsey --kernel stencil --strategy guided "
                       "--budget 9 --jobs 4 --profile " + profile + " --trace " +
                       parallel_trace).exit_code, 0);
    const std::string serial = read_whole_file(serial_trace);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, read_whole_file(parallel_trace));
    std::remove(serial_trace.c_str());
    std::remove(parallel_trace.c_str());
    std::remove(profile.c_str());
}

TEST(ToolCli, TuneRejectsInvalidInvocationsWithExitTwo) {
    EXPECT_EQ(run_tool("tune --kernel fft").exit_code, 2);
    EXPECT_EQ(run_tool("tune --strategy annealing").exit_code, 2);
    EXPECT_EQ(run_tool("tune --machine not-a-machine").exit_code, 2);
    EXPECT_EQ(run_tool("tune --budget -3").exit_code, 2);
    EXPECT_EQ(run_tool("tune --jobs 0").exit_code, 2);
}

TEST(ToolCli, FetchConditionalGetAgainstLiveDaemon) {
    const std::string dir = ::testing::TempDir() + "/tool_cli_fetch_" +
                            std::to_string(::getpid());
    const std::string port_file = dir + "/port";
    const std::string store_dir = dir + "/store";
    const std::string out = dir + "/fetched.profile";
    ASSERT_EQ(run_tool("profile --machine athlon3200 --fast --no-timing --out " + dir +
                       "/golden.profile").exit_code, 0);
    const std::string body = read_whole_file(dir + "/golden.profile");
    ASSERT_FALSE(body.empty());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::execl(SERVET_TOOL_PATH, SERVET_TOOL_PATH, "serve", "--port", "0",
                "--store-dir", store_dir.c_str(), "--port-file", port_file.c_str(),
                static_cast<char*>(nullptr));
        _exit(127);  // exec failed
    }
    int port = 0;
    for (int attempt = 0; attempt < 100 && port == 0; ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        std::ifstream in(port_file);
        in >> port;
    }
    ASSERT_GT(port, 0) << "daemon never wrote the port file";

    const std::string fp = "00000000deadbeef";
    const std::string opts = "0123456789abcdef";
    const std::string put = serve_round_trip(
        port, "PUT /v1/profile/" + fp + "/" + opts + " HTTP/1.1\r\ncontent-length: " +
                  std::to_string(body.size()) + "\r\nconnection: close\r\n\r\n" + body);
    ASSERT_EQ(put.compare(0, 12, "HTTP/1.1 201"), 0) << put;

    // Cold fetch: 200, body saved verbatim, ETag sidecar stored.
    const std::string fetch_args = "fetch --port " + std::to_string(port) +
                                   " --fingerprint " + fp + " --options " + opts +
                                   " --out " + out;
    const auto cold = run_tool(fetch_args);
    EXPECT_EQ(cold.exit_code, 0) << cold.output;
    EXPECT_NE(cold.output.find("wrote"), std::string::npos);
    EXPECT_EQ(read_whole_file(out), body);
    EXPECT_EQ(read_whole_file(out + ".etag"), opts + "\n");

    // Warm fetch: the stored ETag rides If-None-Match, the server answers
    // 304, and the on-disk profile is left alone.
    const auto warm = run_tool(fetch_args);
    EXPECT_EQ(warm.exit_code, 0) << warm.output;
    EXPECT_NE(warm.output.find("current"), std::string::npos);
    EXPECT_EQ(read_whole_file(out), body);

    // Unknown fingerprint: a clean HTTP-level failure, exit 1.
    const auto missing = run_tool("fetch --port " + std::to_string(port) +
                                  " --fingerprint 00000000ffffffff --out " + dir +
                                  "/missing.profile");
    EXPECT_EQ(missing.exit_code, 1);
    EXPECT_NE(missing.output.find("404"), std::string::npos);

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ToolCli, FetchRejectsInvalidInvocationsWithExitTwo) {
    EXPECT_EQ(run_tool("fetch --fingerprint 00000000deadbeef").exit_code, 2);  // no port
    EXPECT_EQ(run_tool("fetch --port 99999 --fingerprint f").exit_code, 2);
    EXPECT_EQ(run_tool("fetch --port 8080").exit_code, 2);  // no fingerprint
}

TEST(ToolCli, UnknownCommandFails) {
    const auto result = run_tool("frobnicate");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("usage"), std::string::npos);
}

TEST(ToolCli, InvalidOptionValuesExitTwoWithoutMeasuring) {
    // Each of these used to fall back to the option's default (or, for
    // machines, ignore the flag) and measure or price something other than
    // what was asked. Every one must now be refused before any work.
    const std::string tag = std::to_string(::getpid());
    const std::string profile = ::testing::TempDir() + "/tool_cli_invalid_" + tag + ".profile";
    ASSERT_EQ(run_tool("profile --machine dempsey --fast --no-timing --out " + profile)
                  .exit_code, 0);
    const std::string out = ::testing::TempDir() + "/tool_cli_invalid_out_" + tag;
    const std::string run_dir = ::testing::TempDir() + "/tool_cli_invalid_run_" + tag;
    const struct {
        std::string args;
        const char* named;  // what stderr must mention
    } cases[] = {
        {"price --profile " + profile + " --from abc", "--from"},
        {"price --profile " + profile + " --size junk", "--size"},
        {"price --profile " + profile + " --size -5KB", "--size"},
        {"tlb --machine dempsey --l1 junk", "--l1"},
        {"map --profile " + profile + " --app typo", "--app"},
        {"map --profile " + profile + " --ranks zz", "--ranks"},
        {"broadcast --profile " + profile + " --root q", "--root"},
        {"profile --machine dempsey --robust abc --out " + out, "--robust"},
        {"watch --machine dempsey --run-dir " + run_dir + " --perturb-tick x",
         "--perturb-tick"},
        {"machines --bogus", "--bogus"},
        {"profile dempsey --out " + out, "'dempsey'"},
    };
    for (const auto& c : cases) {
        const auto result = run_tool(c.args);
        EXPECT_EQ(result.exit_code, 2) << c.args << "\n" << result.output;
        EXPECT_NE(result.output.find(c.named), std::string::npos) << c.args << "\n"
                                                                  << result.output;
        // Nothing measured or priced: no suite log, no product on stdout.
        EXPECT_EQ(result.output.find("[servet info"), std::string::npos) << c.args;
        EXPECT_EQ(result.output.find("one-way"), std::string::npos) << c.args;
        EXPECT_EQ(result.output.find("rank -> core"), std::string::npos) << c.args;
        EXPECT_EQ(result.output.find("broadcast of"), std::string::npos) << c.args;
        EXPECT_EQ(result.output.find("data TLB"), std::string::npos) << c.args;
        EXPECT_EQ(result.output.find("native"), std::string::npos) << c.args;
    }
    EXPECT_FALSE(std::ifstream(out).good());
    EXPECT_FALSE(std::ifstream(run_dir + "/series.servet").good());
    std::remove(profile.c_str());
}

/// The command names `servet --help` lists.
std::vector<std::string> listed_commands() {
    const auto usage = run_tool("--help");
    EXPECT_EQ(usage.exit_code, 0);
    std::vector<std::string> commands;
    std::istringstream in(usage.output.substr(usage.output.find("commands:\n") + 10));
    std::string line;
    while (std::getline(in, line) && line.starts_with("  "))
        commands.push_back(line.substr(2, line.find(' ', 2) - 2));
    return commands;
}

TEST(ToolCli, EveryCommandHelpExitsZeroAndUnknownOptionExitsTwo) {
    const std::vector<std::string> commands = listed_commands();
    EXPECT_EQ(commands.size(), 13u);
    for (const std::string& command : commands) {
        const auto help = run_tool(command + " --help");
        EXPECT_EQ(help.exit_code, 0) << command << "\n" << help.output;
        EXPECT_NE(help.output.find("usage: " + command), std::string::npos) << help.output;
        const auto bogus = run_tool(command + " --no-such-option");
        EXPECT_EQ(bogus.exit_code, 2) << command << "\n" << bogus.output;
        EXPECT_NE(bogus.output.find("--no-such-option"), std::string::npos) << bogus.output;
    }
}

}  // namespace
