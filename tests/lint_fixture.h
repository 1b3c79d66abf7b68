// Throwaway-tree harness for ppg_lint's golden-fixture tests: each test
// writes a few source files under a fresh root named after it, runs the
// lint binary CMake just built (PPG_LINT_BIN) over that root, and checks
// the exit code and the findings it printed, so fixtures never touch the
// real tree.
#pragma once

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace ppg::testing {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

class LintFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = std::filesystem::path(::testing::TempDir()) /
            ("ppg_lint_" + std::string(info->test_suite_name()) + "_" +
             info->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void write_file(const std::string& rel, const std::string& body) {
    const std::filesystem::path p = root_ / rel;
    std::filesystem::create_directories(p.parent_path());
    std::ofstream out(p);
    out << body;
    ASSERT_TRUE(out.good()) << rel;
  }

  LintRun run_lint() {
    const std::filesystem::path out_path = root_ / "lint_output.txt";
    const std::string cmd = std::string(PPG_LINT_BIN) + " --root " +
                            root_.string() + " > " + out_path.string() +
                            " 2>&1";
    const int rc = std::system(cmd.c_str());
    LintRun run;
    run.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    std::ifstream in(out_path);
    run.output.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    return run;
  }

  std::filesystem::path root_;
};

}  // namespace ppg::testing
