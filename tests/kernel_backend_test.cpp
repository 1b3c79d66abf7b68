// Cross-backend differential harness for the SIMD kernel dispatch layer
// (nn/backend.h, DESIGN.md §15).
//
// Every available backend is run against the scalar oracle over
// randomized shapes — including odd sizes that exercise vector tails and
// remainder rows — and fp32 results are required to be BITWISE identical
// (0 ULP), not merely close: the accumulation contract in
// nn/kernels_impl.h promises that backend dispatch never changes results,
// and this harness is what keeps that promise honest. The int8 path is
// int32-exact by construction, so quantized outputs must match bitwise
// too, and the fp32-vs-int8 error must stay inside the documented
// per-element bound |y_q − y_f| ≤ k·(s_x·|w|_max + s_w·|x|_max)/2.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/backend.h"
#include "nn/kernels.h"
#include "nn/packed.h"
#include "nn/quant.h"

namespace ppg::nn {
namespace {

using kernels::Index;

std::vector<float> random_vec(std::size_t n, Rng& rng, float scale = 1.f) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal()) * scale;
  return v;
}

/// Distance in representation order between two floats: 0 means bitwise
/// equal; 1 means adjacent representable values. Any NaN is reported as a
/// huge distance so it can never pass an equality budget.
std::uint64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::uint64_t(1) << 62;
  std::int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  // Map the sign-magnitude float ordering onto a monotone integer line.
  const auto key = [](std::int32_t i) {
    return i < 0 ? std::int64_t(0x80000000LL) - i : std::int64_t(i);
  };
  const std::int64_t d = key(ia) - key(ib);
  return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

/// Max ULP distance over two buffers (asserts equal length upstream).
std::uint64_t max_ulp(const std::vector<float>& a,
                      const std::vector<float>& b) {
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, ulp_distance(a[i], b[i]));
  return worst;
}

/// Shapes chosen to cover every code path in the vector kernels: the
/// degenerate 1s, sizes below one vector, exact tile multiples (AVX2 GEMM
// tiles 6 rows × 16 cols; AVX-512 4 × 32), and odd sizes that leave both
/// masked column tails and remainder rows.
struct Shape {
  Index m, n, k;
};
const Shape kShapes[] = {
    {1, 1, 1},   {2, 3, 4},    {3, 5, 7},    {6, 16, 32}, {8, 32, 64},
    {7, 17, 33}, {13, 31, 29}, {12, 48, 31}, {5, 64, 96}, {9, 100, 130},
};

class BackendDifferentialTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (!backend_available(GetParam()))
      GTEST_SKIP() << "backend " << backend_name(GetParam())
                   << " not available on this machine/build";
  }
};

TEST_P(BackendDifferentialTest, GemmFamilyBitwiseMatchesScalarOracle) {
  Rng rng(0xbac0);
  for (const Shape& s : kShapes) {
    auto a = random_vec(static_cast<std::size_t>(s.m * s.k), rng);
    auto b = random_vec(static_cast<std::size_t>(s.k * s.n), rng);
    auto at = random_vec(static_cast<std::size_t>(s.k * s.m), rng);
    auto bt = random_vec(static_cast<std::size_t>(s.n * s.k), rng);
    auto c0 = random_vec(static_cast<std::size_t>(s.m * s.n), rng);
    // gemm_tn's accumulation contract has the one allowed data-dependent
    // branch (zero rows of Aᵀ are skipped); plant zeros to exercise it.
    for (auto& x : at)
      if (rng.bernoulli(0.25)) x = 0.f;

    const auto run_all = [&](std::vector<float>& nn, std::vector<float>& nt,
                             std::vector<float>& tn) {
      nn = c0;
      nt = c0;
      tn = c0;
      kernels::gemm_nn(s.m, s.n, s.k, a.data(), b.data(), nn.data());
      kernels::gemm_nt(s.m, s.n, s.k, a.data(), bt.data(), nt.data());
      kernels::gemm_tn(s.m, s.n, s.k, at.data(), b.data(), tn.data());
    };

    std::vector<float> ref_nn, ref_nt, ref_tn;
    {
      ScopedBackend oracle(BackendKind::kScalar);
      run_all(ref_nn, ref_nt, ref_tn);
    }
    std::vector<float> got_nn, got_nt, got_tn;
    {
      ScopedBackend backend(GetParam());
      run_all(got_nn, got_nt, got_tn);
    }
    EXPECT_EQ(max_ulp(ref_nn, got_nn), 0u)
        << "gemm_nn " << s.m << "x" << s.n << "x" << s.k << " on "
        << backend_name(GetParam());
    EXPECT_EQ(max_ulp(ref_nt, got_nt), 0u)
        << "gemm_nt " << s.m << "x" << s.n << "x" << s.k << " on "
        << backend_name(GetParam());
    EXPECT_EQ(max_ulp(ref_tn, got_tn), 0u)
        << "gemm_tn " << s.m << "x" << s.n << "x" << s.k << " on "
        << backend_name(GetParam());
  }
}

TEST_P(BackendDifferentialTest, AffineBitwiseMatchesScalarOracle) {
  Rng rng(0xaff1);
  for (const Shape& s : kShapes) {
    auto x = random_vec(static_cast<std::size_t>(s.m * s.k), rng);
    auto w = random_vec(static_cast<std::size_t>(s.k * s.n), rng);
    auto bias = random_vec(static_cast<std::size_t>(s.n), rng);
    std::vector<float> ref(static_cast<std::size_t>(s.m * s.n));
    std::vector<float> got(ref.size());
    {
      ScopedBackend oracle(BackendKind::kScalar);
      kernels::affine(s.m, s.n, s.k, x.data(), w.data(), bias.data(),
                      ref.data());
    }
    {
      ScopedBackend backend(GetParam());
      kernels::affine(s.m, s.n, s.k, x.data(), w.data(), bias.data(),
                      got.data());
    }
    EXPECT_EQ(max_ulp(ref, got), 0u)
        << "affine " << s.m << "x" << s.n << "x" << s.k << " on "
        << backend_name(GetParam());
  }
}

// The column-panel path at decode shapes: every panel remainder (n mod
// 16 ∈ {1, 15, 0, 1, 8, 0, 0}), tiny to fc1/fc2-sized k, and M = 1..17 so
// each backend's full row tiles and every remainder tile height run. Each
// output row depends only on its own x row, so one 17-row reference per
// (n, k) serves every M: the backend's packed rows must equal the scalar
// oracle's packed rows and both backends' row-major affine at 0 ULP.
TEST_P(BackendDifferentialTest, PackedAffineBitwiseMatchesOracleAndAffine) {
  Rng rng(0x9a4e1);
  constexpr Index kMaxRows = 17;
  for (const Index n : {1, 15, 16, 17, 136, 768, 1024}) {
    for (const Index k : {1, 31, 256, 1024}) {
      const auto x = random_vec(static_cast<std::size_t>(kMaxRows * k), rng);
      const auto w = random_vec(static_cast<std::size_t>(k * n), rng);
      const auto bias = random_vec(static_cast<std::size_t>(n), rng);
      std::vector<float> packed(static_cast<std::size_t>(packed_size(k, n)));
      pack_weights(w.data(), k, n, packed.data());
      const std::size_t out = static_cast<std::size_t>(kMaxRows * n);
      std::vector<float> ref(out), oracle(out), affine(out);
      {
        ScopedBackend scalar(BackendKind::kScalar);
        kernels::affine(kMaxRows, n, k, x.data(), w.data(), bias.data(),
                        ref.data());
        kernels::packed_affine(kMaxRows, n, k, x.data(), packed.data(),
                               bias.data(), oracle.data());
      }
      ScopedBackend backend(GetParam());
      kernels::affine(kMaxRows, n, k, x.data(), w.data(), bias.data(),
                      affine.data());
      ASSERT_EQ(max_ulp(ref, oracle), 0u)
          << "scalar packed_affine vs affine, n=" << n << " k=" << k;
      ASSERT_EQ(max_ulp(ref, affine), 0u)
          << "affine on " << backend_name(GetParam()) << ", n=" << n
          << " k=" << k;
      for (Index m = 1; m <= kMaxRows; ++m) {
        // NaN-filled so an unwritten element can never pass.
        std::vector<float> got(static_cast<std::size_t>(m * n),
                               std::numeric_limits<float>::quiet_NaN());
        kernels::packed_affine(m, n, k, x.data(), packed.data(),
                               bias.data(), got.data());
        const std::vector<float> want(ref.begin(), ref.begin() + m * n);
        ASSERT_EQ(max_ulp(want, got), 0u)
            << "packed_affine " << m << "x" << n << "x" << k << " on "
            << backend_name(GetParam());
      }
    }
  }
}

TEST_P(BackendDifferentialTest, RowOpsBitwiseMatchScalarOracle) {
  Rng rng(0x50f7);
  for (const Shape& s : kShapes) {
    const Index rows = s.m, d = s.k;
    auto x = random_vec(static_cast<std::size_t>(rows * d), rng, 2.f);
    auto gain = random_vec(static_cast<std::size_t>(d), rng);
    auto bias = random_vec(static_cast<std::size_t>(d), rng);
    std::vector<float> ref_ln(x.size()), got_ln(x.size());
    std::vector<float> ref_sm(x.size()), got_sm(x.size());
    {
      ScopedBackend oracle(BackendKind::kScalar);
      kernels::layernorm_rows(rows, d, x.data(), gain.data(), bias.data(),
                              ref_ln.data());
      kernels::softmax_rows(rows, d, x.data(), ref_sm.data());
    }
    {
      ScopedBackend backend(GetParam());
      kernels::layernorm_rows(rows, d, x.data(), gain.data(), bias.data(),
                              got_ln.data());
      kernels::softmax_rows(rows, d, x.data(), got_sm.data());
    }
    EXPECT_EQ(max_ulp(ref_ln, got_ln), 0u)
        << "layernorm " << rows << "x" << d << " on "
        << backend_name(GetParam());
    EXPECT_EQ(max_ulp(ref_sm, got_sm), 0u)
        << "softmax " << rows << "x" << d << " on " << backend_name(GetParam());
    // Sanity on the oracle itself: softmax rows are normalized.
    for (Index r = 0; r < rows; ++r) {
      double sum = 0.0;
      for (Index j = 0; j < d; ++j)
        sum += ref_sm[static_cast<std::size_t>(r * d + j)];
      EXPECT_NEAR(sum, 1.0, 1e-4);
    }
  }
}

TEST_P(BackendDifferentialTest, QuantizedPathBitwiseMatchesScalarOracle) {
  Rng rng(0x1178);
  for (const Shape& s : kShapes) {
    const Index k_pad = quant::padded_k(s.k);
    auto x = random_vec(static_cast<std::size_t>(s.m * s.k), rng);
    auto w = random_vec(static_cast<std::size_t>(s.k * s.n), rng);
    auto bias = random_vec(static_cast<std::size_t>(s.n), rng);

    const auto run = [&](std::vector<std::int8_t>& qx, std::vector<float>& sx,
                         quant::QuantizedMatrix& qw, std::vector<float>& y) {
      qx.assign(static_cast<std::size_t>(s.m * k_pad), 0);
      sx.assign(static_cast<std::size_t>(s.m), 0.f);
      qw = quant::quantize_weights(w.data(), s.k, s.n);
      y.assign(static_cast<std::size_t>(s.m * s.n), 0.f);
      kernels::quantize_rows(s.m, s.k, k_pad, x.data(), qx.data(), sx.data());
      kernels::qaffine(s.m, s.n, k_pad, qx.data(), sx.data(), qw.data.data(),
                       qw.scales.data(), bias.data(), y.data());
    };

    std::vector<std::int8_t> ref_qx, got_qx;
    std::vector<float> ref_sx, got_sx, ref_y, got_y;
    quant::QuantizedMatrix ref_qw, got_qw;
    {
      ScopedBackend oracle(BackendKind::kScalar);
      run(ref_qx, ref_sx, ref_qw, ref_y);
    }
    {
      ScopedBackend backend(GetParam());
      run(got_qx, got_sx, got_qw, got_y);
    }
    EXPECT_EQ(ref_qx, got_qx) << "quantized activations diverged";
    EXPECT_EQ(ref_qw.data, got_qw.data) << "quantized weights diverged";
    EXPECT_EQ(max_ulp(ref_sx, got_sx), 0u);
    EXPECT_EQ(max_ulp(ref_qw.scales, got_qw.scales), 0u);
    EXPECT_EQ(max_ulp(ref_y, got_y), 0u)
        << "qaffine " << s.m << "x" << s.n << "x" << s.k << " on "
        << backend_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendDifferentialTest,
                         ::testing::Values(BackendKind::kScalar,
                                           BackendKind::kAvx2,
                                           BackendKind::kAvx512),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

// --- int8 vs fp32 error model ------------------------------------------

// The quantization error bound documented in nn/quant.h must hold
// empirically: per element, |y_q − y_f| ≤ k·(s_x·|w|_max + s_w·|x|_max)/2
// (+ one fp32 rounding epsilon of slack for the dequant arithmetic).
TEST(QuantErrorModel, QaffineErrorWithinDocumentedBound) {
  Rng rng(0xb0d);
  for (const Shape& s : kShapes) {
    const Index k_pad = quant::padded_k(s.k);
    auto x = random_vec(static_cast<std::size_t>(s.m * s.k), rng);
    auto w = random_vec(static_cast<std::size_t>(s.k * s.n), rng);
    auto bias = random_vec(static_cast<std::size_t>(s.n), rng);

    std::vector<float> y_f(static_cast<std::size_t>(s.m * s.n));
    kernels::affine(s.m, s.n, s.k, x.data(), w.data(), bias.data(), y_f.data());

    auto qw = quant::quantize_weights(w.data(), s.k, s.n);
    std::vector<std::int8_t> qx(static_cast<std::size_t>(s.m * k_pad), 0);
    std::vector<float> sx(static_cast<std::size_t>(s.m), 0.f);
    std::vector<float> y_q(y_f.size(), 0.f);
    kernels::quantize_rows(s.m, s.k, k_pad, x.data(), qx.data(), sx.data());
    kernels::qaffine(s.m, s.n, k_pad, qx.data(), sx.data(), qw.data.data(),
                     qw.scales.data(), bias.data(), y_q.data());

    for (Index i = 0; i < s.m; ++i) {
      float xmax = 0.f;
      for (Index p = 0; p < s.k; ++p)
        xmax = std::max(xmax,
                        std::fabs(x[static_cast<std::size_t>(i * s.k + p)]));
      for (Index j = 0; j < s.n; ++j) {
        float wmax = 0.f;
        for (Index p = 0; p < s.k; ++p)
          wmax = std::max(
              wmax, std::fabs(w[static_cast<std::size_t>(p * s.n + j)]));
        const double bound =
            static_cast<double>(s.k) *
                (static_cast<double>(sx[static_cast<std::size_t>(i)]) * wmax +
                 static_cast<double>(
                     qw.scales[static_cast<std::size_t>(j)]) *
                     xmax) /
                2.0 +
            1e-4;
        const std::size_t at = static_cast<std::size_t>(i * s.n + j);
        EXPECT_LE(std::fabs(double(y_q[at]) - double(y_f[at])), bound)
            << "shape " << s.m << "x" << s.n << "x" << s.k << " element ("
            << i << "," << j << ")";
      }
    }
  }
}

TEST(QuantErrorModel, QuantizeRoundTripWithinHalfStep) {
  Rng rng(0x5739);
  const Index k = 37, k_pad = quant::padded_k(k);
  auto x = random_vec(static_cast<std::size_t>(k), rng, 3.f);
  std::vector<std::int8_t> q(static_cast<std::size_t>(k_pad), 0);
  float scale = 0.f;
  kernels::quantize_rows(1, k, k_pad, x.data(), q.data(), &scale);
  ASSERT_GT(scale, 0.f);
  for (Index p = 0; p < k; ++p)
    EXPECT_LE(std::fabs(x[static_cast<std::size_t>(p)] -
                        scale * float(q[static_cast<std::size_t>(p)])),
              scale * 0.5f + 1e-6f);
  for (Index p = k; p < k_pad; ++p)
    EXPECT_EQ(q[static_cast<std::size_t>(p)], 0) << "padding not zeroed";
}

// --- column-panel layout ------------------------------------------------

TEST(PackedLayout, PanelsHoldColumnsRowByRowWithZeroPadding) {
  Rng rng(0x9a4e2);
  const Index k = 5, n = 37;  // three panels, the last 5 columns wide
  const auto w = random_vec(static_cast<std::size_t>(k * n), rng);
  ASSERT_EQ(packed_size(k, n), 3 * k * 16);
  std::vector<float> want(static_cast<std::size_t>(packed_size(k, n)), 0.f);
  for (Index q = 0; q < 3; ++q)
    for (Index p = 0; p < k; ++p)
      for (Index u = 0; u < 16 && q * 16 + u < n; ++u)
        want[static_cast<std::size_t>((q * k + p) * 16 + u)] =
            w[static_cast<std::size_t>(p * n + q * 16 + u)];
  // NaN-filled: pack_weights must write the padding too. max_ulp compares
  // bits, which -ffast-math cannot fold the way it folds NaN == 0.f.
  std::vector<float> packed(want.size(),
                            std::numeric_limits<float>::quiet_NaN());
  pack_weights(w.data(), k, n, packed.data());
  EXPECT_EQ(max_ulp(want, packed), 0u);
  EXPECT_THROW(pack_weights(w.data(), 0, n, packed.data()),
               std::invalid_argument);
}

// --- dispatch mechanics -------------------------------------------------

TEST(BackendDispatch, ParseBackendRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(parse_backend("scalar"), BackendKind::kScalar);
  EXPECT_EQ(parse_backend("avx2"), BackendKind::kAvx2);
  EXPECT_EQ(parse_backend("avx512"), BackendKind::kAvx512);
  EXPECT_THROW(parse_backend("avx1024"), std::invalid_argument);
  EXPECT_THROW(parse_backend(""), std::invalid_argument);
  EXPECT_THROW(parse_backend("AVX2"), std::invalid_argument);
  for (BackendKind kind : {BackendKind::kScalar, BackendKind::kAvx2,
                           BackendKind::kAvx512})
    EXPECT_EQ(parse_backend(backend_name(kind)), kind);
}

TEST(BackendDispatch, ScalarAlwaysAvailableAndListedFirst) {
  EXPECT_TRUE(backend_available(BackendKind::kScalar));
  const auto all = available_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), BackendKind::kScalar);
  // Widest last: the list is ordered by BackendKind.
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(static_cast<int>(all[i - 1]), static_cast<int>(all[i]));
  for (BackendKind kind : all) EXPECT_TRUE(backend_available(kind));
}

TEST(BackendDispatch, SetBackendActivatesAndThrowsOnUnavailable) {
  const BackendKind before = active_backend().kind;
  for (BackendKind kind : available_backends()) {
    set_backend(kind);
    EXPECT_EQ(active_backend().kind, kind);
    EXPECT_STREQ(active_backend().name, backend_name(kind));
  }
  for (BackendKind kind : {BackendKind::kAvx2, BackendKind::kAvx512}) {
    if (!backend_available(kind)) {
      EXPECT_THROW(set_backend(kind), std::invalid_argument);
    }
  }
  set_backend(before);
}

TEST(BackendDispatch, ScopedBackendRestoresOnExitAndOnThrow) {
  const BackendKind before = active_backend().kind;
  {
    ScopedBackend forced(BackendKind::kScalar);
    EXPECT_EQ(active_backend().kind, BackendKind::kScalar);
  }
  EXPECT_EQ(active_backend().kind, before);
  try {
    ScopedBackend forced(BackendKind::kScalar);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(active_backend().kind, before);
}

TEST(BackendDispatch, TablesExposeNonNullEntryPoints) {
  for (BackendKind kind : available_backends()) {
    ScopedBackend forced(kind);
    const KernelBackend& t = active_backend();
    EXPECT_NE(t.gemm_nn, nullptr);
    EXPECT_NE(t.gemm_nt, nullptr);
    EXPECT_NE(t.gemm_tn, nullptr);
    EXPECT_NE(t.affine, nullptr);
    EXPECT_NE(t.packed_affine, nullptr);
    EXPECT_NE(t.layernorm_rows, nullptr);
    EXPECT_NE(t.softmax_rows, nullptr);
    EXPECT_NE(t.quantize_rows, nullptr);
    EXPECT_NE(t.qaffine, nullptr);
  }
}

}  // namespace
}  // namespace ppg::nn
