// Death test for the crash-safe run journal: SIGKILL the real `servet
// profile` mid-suite (a fault plan hangs one phase while the rest land),
// then resume in the same run directory and require the final profile to
// be byte-identical to an uninterrupted run — at --jobs 1 and --jobs 4.
//
// The interrupted run injects hang-only faults (hang=..., hang_seconds
// long enough to outlast the test) so the kill point is deterministic;
// hang faults never perturb measured values, so the journal it leaves
// behind is compatible with the fault-free resume.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.hpp"

#ifndef SERVET_TOOL_PATH
#error "SERVET_TOOL_PATH must be defined by the build"
#endif

namespace {

// Pinned experimentally: on nehalem2s --fast, this plan lets cache_size
// commit and then hangs a task of the shared_caches phase, at --jobs 1
// and --jobs 4 alike (the phase fan-out lets the other phases finish
// under jobs 4).
constexpr const char* kHangFaults = "hang=0.005,hang_seconds=3600,seed=3";
constexpr const char* kMachine = "nehalem2s";

std::string unique_dir(const std::string& stem) {
    static int serial = 0;
    return ::testing::TempDir() + stem + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(++serial);
}

std::string read_all(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

struct CommandResult {
    int exit_code;
    std::string output;
};

CommandResult run_tool(const std::string& args) {
    const std::string out_path = unique_dir("crash_resume_out") + ".txt";
    const std::string command =
        std::string(SERVET_TOOL_PATH) + " " + args + " > " + out_path + " 2>&1";
    const int status = std::system(command.c_str());
    CommandResult result{WEXITSTATUS(status), read_all(out_path)};
    std::remove(out_path.c_str());
    return result;
}

/// Launches `servet <args...>` with stdout/stderr discarded; returns pid.
pid_t spawn_tool(const std::vector<std::string>& args) {
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    // Child: silence it and exec the tool.
    if (std::freopen("/dev/null", "w", stdout) == nullptr ||
        std::freopen("/dev/null", "w", stderr) == nullptr)
        _exit(126);
    std::vector<char*> argv;
    static const std::string tool = SERVET_TOOL_PATH;
    argv.push_back(const_cast<char*>(tool.c_str()));
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(tool.c_str(), argv.data());
    _exit(127);
}

/// SIGKILLs a `servet profile` run once its journal shows the cache_size
/// commit. Fails the test (and reaps the child) on any deviation from
/// the pinned script: premature exit, or no commit within the deadline.
void kill_after_first_commit(pid_t pid, const std::string& run_dir) {
    const std::string journal = servet::core::RunJournal::file_path(run_dir);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
    while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            FAIL() << "tool exited before it could be killed (status " << status << ")";
        if (read_all(journal).find("commit cache_size") != std::string::npos) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_NE(read_all(journal).find("commit cache_size"), std::string::npos)
        << "cache_size never committed; cannot stage the crash";
    // Let concurrent phases make some progress past the first commit so
    // the kill lands mid-suite, not at a tidy boundary.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "expected the tool to die by SIGKILL, status " << status;
}

void crash_then_resume_is_byte_identical(int jobs) {
    const std::string jobs_str = std::to_string(jobs);
    const std::string run_dir = unique_dir("crash_run_j" + jobs_str);
    const std::string crashed_out = run_dir + "/crashed.profile";

    // Reference: the same measurement uninterrupted and fault-free.
    const std::string ref_out = unique_dir("crash_ref_j" + jobs_str) + ".profile";
    const auto reference =
        run_tool(std::string("profile --machine ") + kMachine + " --fast --jobs " + jobs_str +
                 " --no-timing --out " + ref_out);
    ASSERT_EQ(reference.exit_code, 0) << reference.output;

    // The doomed run: hang-only faults freeze it mid-suite, we SIGKILL it.
    const pid_t pid = spawn_tool({"profile", "--machine", kMachine, "--fast", "--jobs",
                                  jobs_str, "--run-dir", run_dir, "--faults", kHangFaults,
                                  "--no-timing", "--out", crashed_out});
    ASSERT_GT(pid, 0);
    kill_after_first_commit(pid, run_dir);
    if (::testing::Test::HasFatalFailure()) return;
    // SIGKILL means no profile was ever written.
    EXPECT_EQ(read_all(crashed_out), "");

    // Resume fault-free in the same run directory.
    const std::string resumed_out = run_dir + "/resumed.profile";
    const auto resumed =
        run_tool(std::string("profile --machine ") + kMachine + " --fast --jobs " + jobs_str +
                 " --run-dir " + run_dir + " --resume --no-timing --out " + resumed_out);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    // At least the committed cache_size phase must have replayed rather
    // than re-measured.
    EXPECT_NE(resumed.output.find("phase(s) replayed"), std::string::npos) << resumed.output;
    EXPECT_EQ(resumed.output.find("0 phase(s) replayed"), std::string::npos) << resumed.output;

    const std::string resumed_bytes = read_all(resumed_out);
    ASSERT_FALSE(resumed_bytes.empty());
    EXPECT_EQ(resumed_bytes, read_all(ref_out))
        << "resumed profile differs from the uninterrupted run at --jobs " << jobs_str;
    std::remove(ref_out.c_str());
}

TEST(CrashResume, KilledRunResumesByteIdenticalSerial) {
    crash_then_resume_is_byte_identical(1);
}

TEST(CrashResume, KilledRunResumesByteIdenticalParallel) {
    crash_then_resume_is_byte_identical(4);
}

TEST(CrashResume, ResumeWithDifferentOptionsIsRefused) {
    const std::string run_dir = unique_dir("crash_refuse");
    const std::string out = run_dir + "/p.profile";
    const auto first = run_tool(std::string("profile --machine ") + kMachine +
                                " --fast --run-dir " + run_dir + " --no-timing --out " + out);
    ASSERT_EQ(first.exit_code, 0) << first.output;

    // Dropping --fast changes the measurement configuration: refused.
    const auto mismatched = run_tool(std::string("profile --machine ") + kMachine +
                                     " --run-dir " + run_dir + " --resume --no-timing --out " +
                                     out);
    EXPECT_EQ(mismatched.exit_code, 2) << mismatched.output;
    EXPECT_NE(mismatched.output.find("options hash"), std::string::npos) << mismatched.output;

    // A different machine in the same run directory: refused.
    const auto wrong_machine = run_tool("profile --machine dempsey --fast --run-dir " +
                                        run_dir + " --resume --no-timing --out " + out);
    EXPECT_EQ(wrong_machine.exit_code, 2) << wrong_machine.output;

    // Resuming with the original options still works after the refusals.
    const auto resumed = run_tool(std::string("profile --machine ") + kMachine +
                                  " --fast --run-dir " + run_dir + " --resume --no-timing "
                                  "--out " + out);
    EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("4 phase(s) replayed"), std::string::npos)
        << resumed.output;
}

TEST(CrashResume, ValidateRepairRemeasuresOnlyImplicatedPhases) {
    const std::string run_dir = unique_dir("crash_repair");
    const std::string out = run_dir + "/p.profile";
    const auto first = run_tool(std::string("profile --machine ") + kMachine +
                                " --fast --run-dir " + run_dir + " --no-timing --out " + out);
    ASSERT_EQ(first.exit_code, 0) << first.output;
    const std::string good_bytes = read_all(out);

    const auto clean = run_tool("validate --profile " + out);
    EXPECT_EQ(clean.exit_code, 0) << clean.output;

    // Corrupt the comm section: negate the first comm-layer latency —
    // physically impossible, implicating exactly the comm_costs phase.
    std::string corrupted = good_bytes;
    const std::size_t section = corrupted.find("[comm-layer 0]");
    ASSERT_NE(section, std::string::npos) << "no comm layer section to corrupt";
    const std::size_t pos = corrupted.find("latency = ", section);
    // Explicit bound (not just ASSERT) so the inlined insert() below is
    // provably in range even to the compiler's flow analysis.
    if (pos == std::string::npos || pos + 10 > corrupted.size())
        FAIL() << "no latency line to corrupt";
    corrupted.insert(pos + 10, 1, '-');
    {
        std::ofstream rewrite(out, std::ios::binary | std::ios::trunc);
        rewrite << corrupted;
    }

    const auto invalid = run_tool("validate --profile " + out);
    EXPECT_EQ(invalid.exit_code, 2) << invalid.output;
    EXPECT_NE(invalid.output.find("comm."), std::string::npos) << invalid.output;

    const auto repaired = run_tool(std::string("validate --profile ") + out + " --repair " +
                                   "--run-dir " + run_dir + " --machine " + kMachine +
                                   " --fast --no-timing");
    ASSERT_EQ(repaired.exit_code, 0) << repaired.output;
    // Only comm_costs re-measures; the other three phases replay.
    EXPECT_NE(repaired.output.find("re-measuring comm_costs"), std::string::npos)
        << repaired.output;
    EXPECT_NE(repaired.output.find("3 phase(s) replayed, 1 re-measured"), std::string::npos)
        << repaired.output;
    EXPECT_EQ(read_all(out), good_bytes) << "repair did not restore the original profile";
}

}  // namespace
