// Golden-fixture tests for ppg_lint's raw-intrinsics rule: raw SIMD
// intrinsics (_mm*/__m*/immintrin.h) may appear only inside the
// src/nn/kernels_* backend implementation files; everything else must go
// through the dispatched nn/kernels.h wrappers so the cross-backend
// differential harness covers every vector path (DESIGN.md §15). Runs on
// the shared throwaway-tree harness (lint_fixture.h).
#include "lint_fixture.h"

namespace {

using ppg::testing::LintRun;

class LintIntrinsicsTest : public ppg::testing::LintFixture {};

TEST_F(LintIntrinsicsTest, FiresOnIntrinsicsOutsideBackendFiles) {
  write_file("src/gpt/fastpath.cpp",
             "#include <immintrin.h>\n"
             "float hsum(__m256 v) {\n"
             "  __m128 lo = _mm256_castps256_ps128(v);\n"
             "  return _mm_cvtss_f32(lo);\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/gpt/fastpath.cpp:1: [raw-intrinsics]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/gpt/fastpath.cpp:2: [raw-intrinsics]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintIntrinsicsTest, FiresOnAvx512EvenInsideNn) {
  // nn/ at large is not exempt — only the two backend TUs are.
  write_file("src/nn/fused_extra.cpp",
             "void f(float* y) {\n"
             "  __m512 z = _mm512_setzero_ps();\n"
             "  _mm512_storeu_ps(y, z);\n"
             "}\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/nn/fused_extra.cpp:2: [raw-intrinsics]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintIntrinsicsTest, SilentInsideBackendImplementations) {
  write_file("src/nn/kernels_avx2.cpp",
             "#include <immintrin.h>\n"
             "float hsum8(__m256 v) { return _mm256_cvtss_f32(v); }\n");
  write_file("src/nn/kernels_avx512.cpp",
             "#include <immintrin.h>\n"
             "float first(__m512 v) { return _mm512_cvtss_f32(v); }\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintIntrinsicsTest, IgnoresCommentsAndStrings) {
  write_file("src/nn/notes.cpp",
             "// the AVX2 table uses _mm256_fmadd_ps per the contract\n"
             "/* __m512 discussion */\n"
             "const char* kDoc = \"_mm512_setzero_ps\";\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintIntrinsicsTest, HonorsWaiver) {
  write_file("src/core/probe.cpp",
             "#include <immintrin.h>  "
             "// ppg-lint: allow(raw-intrinsics) cpuid probe only\n"
             "unsigned probe() { return 0; }\n");
  const LintRun run = run_lint();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
