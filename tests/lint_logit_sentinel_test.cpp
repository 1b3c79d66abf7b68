// Golden-fixture tests for ppg_lint's logit-sentinel rule: in src/gpt,
// src/search, src/core and src/serve, pattern conformance is a per-step
// allowed-token list that sampling and scoring read directly. A
// logit-overwriting LogitMask hook and a -1e29 "masked logit" threshold
// both fire; -1e30f seeding a running max does not. Runs on the shared
// throwaway-tree harness (lint_fixture.h).
#include "lint_fixture.h"

namespace {

using ppg::testing::LintRun;

class LintLogitSentinelTest : public ppg::testing::LintFixture {};

TEST_F(LintLogitSentinelTest, FiresOnLogitMaskAndThreshold) {
  write_file("src/gpt/filter.h",
             "#pragma once\n"
             "#include <functional>\n"
             "#include <span>\n"
             "using LogitMask = std::function<void(int, std::span<float>)>;\n");
  write_file("src/search/score.cpp",
             "bool masked(float l) {\n"
             "  return l <= -1e29f;\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/gpt/filter.h:4: [logit-sentinel]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/search/score.cpp:2: [logit-sentinel]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintLogitSentinelTest, FiresInCoreAndServe) {
  write_file("src/core/leaf.cpp",
             "void run(const gpt::LogitMask& mask) { (void)mask; }\n");
  write_file("src/serve/row.cpp",
             "constexpr float kMasked = -1e29f;\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/core/leaf.cpp:1: [logit-sentinel]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/serve/row.cpp:1: [logit-sentinel]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintLogitSentinelTest, RunningMaxSeedStaysLegal) {
  write_file("src/gpt/softmax.cpp",
             "float row_max(const float* x, int n) {\n"
             "  float mx = -1e30f;\n"
             "  for (int i = 0; i < n; ++i) mx = x[i] > mx ? x[i] : mx;\n"
             "  return mx;\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintLogitSentinelTest, IgnoresOtherDirsCommentsAndStrings) {
  // src/eval scores whole passwords, not logit rows.
  write_file("src/eval/meter.cpp",
             "bool degenerate(double lp) { return lp <= -1e29; }\n");
  write_file("src/gpt/notes.cpp",
             "// LogitMask wrote -1e30 and filtered at -1e29 once.\n"
             "const char* kDoc = \"LogitMask\";\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintLogitSentinelTest, HonorsWaiver) {
  write_file("src/core/legacy.cpp",
             "bool old(float l) { return l <= -1e29f; }  "
             "// ppg-lint: allow(logit-sentinel) fixture\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
