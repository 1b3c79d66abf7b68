// Golden-fixture tests for ppg_lint's three lock-discipline rules
// (raw-std-mutex, blocking-under-lock, unannotated-mutex-sibling): for
// each rule, a fixture tree that must fire it, one that must not, and one
// where a `// ppg-lint: allow(...)` waiver silences it, on the shared
// throwaway-tree harness (lint_fixture.h).
#include "lint_fixture.h"

namespace {

using ppg::testing::LintRun;

class LintLockRulesTest : public ppg::testing::LintFixture {};

// ---------------------------------------------------------------- raw-std-mutex

TEST_F(LintLockRulesTest, RawStdMutexFiresInWrapperDirs) {
  write_file("src/serve/state.h",
             "#pragma once\n"
             "class State {\n"
             " private:\n"
             "  std::mutex mu_;\n"
             "};\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/serve/state.h:4: [raw-std-mutex]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintLockRulesTest, RawStdMutexIgnoresWrapperAndOtherDirs) {
  // The annotated wrapper is the sanctioned spelling inside serve/obs/gpt…
  write_file("src/serve/state.h",
             "#pragma once\n"
             "class State {\n"
             " private:\n"
             "  Mutex mu_;\n"
             "};\n");
  // …and the rule does not police directories outside the wrapper mandate.
  write_file("src/eval/elsewhere.h",
             "#pragma once\n"
             "class Elsewhere {\n"
             " private:\n"
             "  std::mutex mu_;\n"
             "};\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintLockRulesTest, RawStdMutexHonorsWaiver) {
  write_file("src/gpt/legacy.h",
             "#pragma once\n"
             "class Legacy {\n"
             " private:\n"
             "  std::mutex mu_;  // ppg-lint: allow(raw-std-mutex) migrating\n"
             "};\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------- blocking-under-lock

TEST_F(LintLockRulesTest, BlockingUnderLockFiresInsideGuardScope) {
  write_file("src/core/flush.cpp",
             "void flush() {\n"
             "  MutexLock lock(mu_);\n"
             "  ::fsync(fd_);\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/core/flush.cpp:3: [blocking-under-lock]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintLockRulesTest, BlockingUnderLockAllowsCopyThenWrite) {
  // The guard's block closes before the IO: the sanctioned shape.
  write_file("src/core/flush.cpp",
             "void flush() {\n"
             "  {\n"
             "    MutexLock lock(mu_);\n"
             "    snapshot();\n"
             "  }\n"
             "  ::fsync(fd_);\n"
             "  std::this_thread::sleep_for(pause);\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintLockRulesTest, BlockingUnderLockHonorsWaiver) {
  write_file("src/core/ledger.cpp",
             "void append() {\n"
             "  MutexLock lock(mu_);\n"
             "  ::fsync(fd_);  // ppg-lint: allow(blocking-under-lock) "
             "durability point\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintLockRulesTest, OneWaiverListSilencesSeveralRules) {
  // One line, two findings (raw-std-mutex + blocking-under-lock), one
  // comma-separated allow() covering both.
  write_file("src/obs/both.cpp",
             "void f() {\n"
             "  std::unique_lock<std::mutex> lk(mu_); ::fsync(0);  "
             "// ppg-lint: allow(raw-std-mutex, blocking-under-lock) test\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------- unannotated-mutex-sibling

TEST_F(LintLockRulesTest, UnannotatedMutexSiblingFiresOnBareMember) {
  write_file("src/gpt/cache.h",
             "#pragma once\n"
             "class Cache {\n"
             " private:\n"
             "  mutable Mutex mu_;\n"
             "  int counter_;\n"
             "};\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(
      run.output.find("src/gpt/cache.h:5: [unannotated-mutex-sibling]"),
      std::string::npos)
      << run.output;
}

TEST_F(LintLockRulesTest, UnannotatedMutexSiblingAcceptsAnnotatedAndExempt) {
  write_file("src/gpt/cache.h",
             "#pragma once\n"
             "class Cache {\n"
             " private:\n"
             "  mutable Mutex mu_;\n"
             "  int counter_ PPG_GUARDED_BY(mu_) = 0;\n"
             "  const std::size_t limit_;\n"
             "  static constexpr int kMax_ = 4;\n"
             "  std::atomic<int> hits_;\n"
             "  CondVar cv_;\n"
             "};\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintLockRulesTest, UnannotatedMutexSiblingScopedToEnclosingBlock) {
  // The bare member lives in a different class than the mutex.
  write_file("src/gpt/two.h",
             "#pragma once\n"
             "class Locked {\n"
             " private:\n"
             "  Mutex mu_;\n"
             "};\n"
             "class Unlocked {\n"
             " private:\n"
             "  int counter_;\n"
             "};\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintLockRulesTest, UnannotatedMutexSiblingHonorsWaiver) {
  write_file("src/gpt/cache.h",
             "#pragma once\n"
             "class Cache {\n"
             " private:\n"
             "  mutable Mutex mu_;\n"
             "  int counter_;  // ppg-lint: allow(unannotated-mutex-sibling) "
             "set once before threads start\n"
             "};\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
