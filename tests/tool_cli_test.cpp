// Regression tests driving the real protocol_tool binary: degenerate and
// hostile inputs must produce a one-line diagnostic and a failure exit
// code (never a crash, never a silent misparse), and the checkpointed
// longrun must survive a hard SIGKILL and resume to the digest of an
// uninterrupted run.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct RunResult {
    int exit_code = -1;       ///< WEXITSTATUS, or -1 when not exited normally
    int term_signal = 0;      ///< terminating signal, 0 when exited normally
    std::string output;       ///< combined stdout+stderr
};

/// Runs `protocol_tool <args>` through the shell, capturing both streams.
RunResult run_tool(const std::string& args) {
    const std::string command = std::string(PPSC_TOOL_PATH) + " " + args + " 2>&1";
    std::FILE* pipe = ::popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    RunResult result;
    char buffer[4096];
    std::size_t got;
    while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        result.output.append(buffer, got);
    const int status = ::pclose(pipe);
    if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
    if (WIFSIGNALED(status)) result.term_signal = WTERMSIG(status);
    return result;
}

/// Scratch directory with a generated double_exp(3) protocol file.
struct ToolFixture : ::testing::Test {
    void SetUp() override {
        dir = fs::temp_directory_path() / ("ppsc-tool-cli-" + std::to_string(::getpid()));
        fs::remove_all(dir);
        fs::create_directories(dir);
        pp = (dir / "d3.pp").string();
        const RunResult family = run_tool("family double_exp 3");
        ASSERT_EQ(family.exit_code, 0) << family.output;
        std::ofstream(pp) << family.output;
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    fs::path dir;
    std::string pp;
};

// --- degenerate inputs -----------------------------------------------------

TEST_F(ToolFixture, RejectsNonNumericPopulation) {
    for (const char* bad : {"abc", "12x", "", "-5", "1", "0"}) {
        const RunResult r = run_tool("simulate " + pp + " '" + bad + "'");
        EXPECT_EQ(r.exit_code, 1) << "population '" << bad << "': " << r.output;
        EXPECT_NE(r.output.find("population"), std::string::npos) << r.output;
    }
}

TEST_F(ToolFixture, RejectsNonNumericEta) {
    const RunResult r = run_tool("verify " + pp + " 16x");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.output.find("eta"), std::string::npos) << r.output;
}

TEST_F(ToolFixture, RejectsMissingFile) {
    const RunResult r = run_tool("info " + (dir / "no-such-file.pp").string());
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
}

TEST_F(ToolFixture, RejectsMalformedProtocolFile) {
    const std::string bad = (dir / "bad.pp").string();
    std::ofstream(bad) << "state q0 2\ntrans q0 -> q0\n";  // bad output + arity
    const RunResult r = run_tool("info " + bad);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
}

TEST_F(ToolFixture, RejectsUnknownCommandAndUnknownFlag) {
    EXPECT_EQ(run_tool("frobnicate " + pp).exit_code, 1);
    EXPECT_EQ(run_tool("simulate " + pp + " 100 --frobnicate").exit_code, 1);
    EXPECT_EQ(run_tool("longrun " + pp + " 100 1000 --resume").exit_code, 1)
        << "--resume without --checkpoint-dir must be rejected";
    EXPECT_EQ(run_tool("longrun " + pp + " 100 1000 --checkpoint-dir").exit_code, 1)
        << "--checkpoint-dir without a value must be rejected";
    EXPECT_EQ(run_tool("longrun " + pp + " 100 1000 --checkpoint-dir x --checkpoint-every 0")
                  .exit_code,
              1)
        << "zero cadence must be rejected";
}

TEST_F(ToolFixture, HelpAndDemoSucceed) {
    EXPECT_EQ(run_tool("help").exit_code, 0);
    EXPECT_EQ(run_tool("demo").exit_code, 0);
}

// --- analyze diagnostics ---------------------------------------------------

// Every `file:line: severity [code]: message` line of `analyze`, pinned on a
// hand-written file that exercises the loader's corner cases: comments and
// blank lines, CRLF and tab separators, a silent rule, pairs written in
// non-canonical order, a `trans+` rule, and an identical duplicate, which
// warns at its own line while its transition keeps the first line.
TEST_F(ToolFixture, AnalyzeDiagnosticsPointAtSourceLines) {
    const std::string file = (dir / "lines.pp").string();
    std::ofstream(file, std::ios::binary) << "# analyze fixture\n"        // 1
                                             "\n"                          // 2
                                             "state x 0\r\n"               // 3
                                             "state\tT\t1\n"               // 4
                                             "state z 0   # never made\n"  // 5
                                             "input x -> x\n"              // 6
                                             "trans T x -> T T\r\n"        // 7
                                             "trans T T -> T T\n"          // 8 silent
                                             "trans z x -> z T\n"          // 9 dead
                                             "trans+ x z -> x x\n"         // 10 dead
                                             "trans x z -> T z\n"          // 11 = line 9
                                             "trans x x -> T T";           // 12
    const RunResult r = run_tool("analyze " + file);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    const std::string expected =
        file + ":11: warning [duplicate-rule]: duplicate rule for pair {x, z} (identical to "
               "line 9)\n" +
        file + ":5: note [unreachable-state]: state 'z' is unreachable from every initial "
               "configuration\n" +
        file + ":9: note [dead-transition]: transition 1 can never fire (pre-state 'z' is "
               "unreachable)\n" +
        file + ":10: note [dead-transition]: transition 2 can never fire (pre-state 'z' is "
               "unreachable)\n" +
        file + ":1: warning [trap-empty]: the output trap W_0 is empty: trap-based "
               "stable-consensus detection can never certify output 0\n" +
        file + ":3: note [nondeterministic-pair]: pair {x, z} has 2 rules (nondeterministic)\n";
    const std::size_t summary = r.output.find("analyze: ");
    ASSERT_NE(summary, std::string::npos) << r.output;
    EXPECT_EQ(r.output.substr(0, summary), expected);
    EXPECT_EQ(r.output.substr(summary, r.output.find('\n', summary) - summary),
              "analyze: 1 unreachable state, 2 dead transitions, consensus 0 possible, "
              "consensus 1 possible");
}

// --- crash/resume end to end -----------------------------------------------

TEST_F(ToolFixture, LongrunSurvivesSigkillAndResumesToReferenceDigest) {
    const std::string base = "longrun " + pp + " 256 2000000 7 ";
    const RunResult reference = run_tool(base);
    ASSERT_EQ(reference.exit_code, 0) << reference.output;
    const std::size_t line = reference.output.find("longrun:");
    ASSERT_NE(line, std::string::npos);
    const std::string reference_line = reference.output.substr(line);

    const std::string flags =
        "--checkpoint-dir " + (dir / "ck").string() + " --checkpoint-every 100000 ";
    // Depending on whether the shell execs the command directly, the kill
    // surfaces as a SIGKILL status or as the shell's 128+9 exit code.
    const RunResult killed = run_tool(base + flags + "--die-after 800000");
    EXPECT_TRUE(killed.term_signal == SIGKILL || killed.exit_code == 128 + SIGKILL)
        << "signal=" << killed.term_signal << " exit=" << killed.exit_code << "\n"
        << killed.output;

    const RunResult resumed = run_tool(base + flags + "--resume");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resumed from"), std::string::npos) << resumed.output;
    EXPECT_NE(resumed.output.find(reference_line), std::string::npos)
        << "resumed digest line differs:\nwant: " << reference_line
        << "\ngot:  " << resumed.output;
}

}  // namespace
