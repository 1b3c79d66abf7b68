// Golden-fixture tests for ppg_lint's blocking-socket-no-timeout rule: in
// src/serve and src/fleet a blocking socket read primitive must sit within
// two lines of a deadline/timeout token, or carry a waiver naming what
// bounds the wait. Runs on the shared throwaway-tree harness
// (lint_fixture.h).
#include "lint_fixture.h"

namespace {

using ppg::testing::LintRun;

class LintSocketTimeoutTest : public ppg::testing::LintFixture {};

TEST_F(LintSocketTimeoutTest, FiresOnUntimedReadInServe) {
  write_file("src/serve/conn.cpp",
             "void pump(int fd) {\n"
             "  char buf[64];\n"
             "  ::read(fd, buf, sizeof(buf));\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(
      run.output.find("src/serve/conn.cpp:3: [blocking-socket-no-timeout]"),
      std::string::npos)
      << run.output;
}

TEST_F(LintSocketTimeoutTest, FiresOnUntimedLineReaderInFleet) {
  write_file("src/fleet/pump.cpp",
             "void pump(int fd) {\n"
             "  net::LineReader reader(fd, cap, 0);\n"
             "  reader.next(&line);\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(
      run.output.find("src/fleet/pump.cpp:2: [blocking-socket-no-timeout]"),
      std::string::npos)
      << run.output;
}

TEST_F(LintSocketTimeoutTest, DeadlineWithinTwoLinesSatisfiesTheRule) {
  write_file("src/serve/conn.cpp",
             "void pump(int fd) {\n"
             "  const net::Deadline d = net::Deadline::after_ms(1000);\n"
             "  std::size_t n = 0;\n"
             "  read_some(fd, buf, sizeof(buf), &n, d);\n"
             "}\n");
  write_file("src/fleet/pump.cpp",
             "void pump(int fd, const Options& opts) {\n"
             "  net::LineReader reader(fd, cap, opts.idle_timeout_ms);\n"
             "  reader.next(&line);\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintSocketTimeoutTest, DoesNotPoliceOtherDirectories) {
  // common/net.cpp is the primitive layer the rule exists to make people
  // call *with* deadlines; the raw reads live there legitimately.
  write_file("src/common/net.cpp",
             "IoStatus read_some(int fd) {\n"
             "  return ::read(fd, buf, cap);\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintSocketTimeoutTest, HonorsWaiver) {
  write_file(
      "src/fleet/pump.cpp",
      "void pump(int fd) {\n"
      "  net::LineReader reader(fd, cap, 0);  "
      "// ppg-lint: allow(blocking-socket-no-timeout) heartbeat owns "
      "liveness\n"
      "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
