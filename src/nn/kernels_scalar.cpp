// Scalar kernel backend: the oracle every SIMD backend is differentially
// tested against (tests/kernel_backend_test.cpp), and the fallback on
// CPUs without AVX2. It spells out the canonical accumulation contract
// of kernels_impl.h in plain loops: std::fmaf per multiply-accumulate,
// dot8/sum8/sumsq8 for reductions. Under the release flags the fmaf
// loops still auto-vectorize to hardware FMA, so "scalar" here means
// "reference semantics", not "unvectorized".
//
// This TU is compiled with -ffp-contract=off
// -fno-unsafe-math-optimizations (see src/nn/CMakeLists.txt); edits must
// preserve the per-element accumulation order documented in
// kernels_impl.h or the cross-backend bitwise tests will fail.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "nn/kernels_impl.h"
#include "nn/packed.h"

namespace ppg::nn::kernels_detail::scalar {

namespace {

/// Shared core of gemm_nn / affine: when `bias` is non-null every output
/// element starts from bias[j] (no accumulate); when null it accumulates
/// into the existing C. Straight-line p loop, no zero skips — the
/// contract (kernels_impl.h) forbids data-dependent branches here so the
/// SIMD tiles stay branch-free in their hot loops.
void gemm_bias(Index m, Index n, Index k, const float* __restrict a,
               const float* __restrict b, const float* __restrict bias,
               float* __restrict c) {
  if (bias != nullptr)
    for (Index i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (Index j = 0; j < n; ++j) crow[j] = bias[j];
    }
  Index i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    for (Index p = 0; p < k; ++p) {
      const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
      const float* brow = b + p * n;
      for (Index j = 0; j < n; ++j) {
        const float bv = brow[j];
        c0[j] = std::fmaf(v0, bv, c0[j]);
        c1[j] = std::fmaf(v1, bv, c1[j]);
        c2[j] = std::fmaf(v2, bv, c2[j]);
        c3[j] = std::fmaf(v3, bv, c3[j]);
      }
    }
  }
  for (; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (Index p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (Index j = 0; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
    }
  }
}

}  // namespace

void gemm_nn(Index m, Index n, Index k, const float* a, const float* b,
             float* c) {
  gemm_bias(m, n, k, a, b, nullptr, c);
}

void affine(Index m, Index n, Index k, const float* x, const float* w,
            const float* bias, float* y) {
  gemm_bias(m, n, k, x, w, bias, y);
}

void packed_affine(Index m, Index n, Index k, const float* __restrict x,
                   const float* __restrict wp, const float* __restrict bias,
                   float* __restrict y) {
  // One 16-lane accumulator per (row, panel): the bias, then fmaf down the
  // panel in ascending p — affine's order for every stored element.
  constexpr Index kW = kPanelWidth;
  for (Index j0 = 0; j0 < n; j0 += kW) {
    const Index width = std::min(kW, n - j0);
    const float* panel = wp + j0 * k;
    for (Index i = 0; i < m; ++i) {
      float acc[kW] = {};
      for (Index u = 0; u < width; ++u) acc[u] = bias[j0 + u];
      const float* xr = x + i * k;
      for (Index p = 0; p < k; ++p) {
        const float* wr = panel + p * kW;
        for (Index u = 0; u < kW; ++u) acc[u] = std::fmaf(xr[p], wr[u], acc[u]);
      }
      for (Index u = 0; u < width; ++u) y[i * n + j0 + u] = acc[u];
    }
  }
}

void gemm_nt(Index m, Index n, Index k, const float* __restrict a,
             const float* __restrict b, float* __restrict c) {
  for (Index i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (Index j = 0; j < n; ++j)
      crow[j] += dot8(k, arow, b + j * k);
  }
}

void gemm_tn(Index m, Index n, Index k, const float* __restrict a,
             const float* __restrict b, float* __restrict c) {
  for (Index p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (Index i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.f) continue;
      float* crow = c + i * n;
      for (Index j = 0; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
    }
  }
}

void layernorm_rows(Index rows, Index d, const float* x, const float* gain,
                    const float* bias, float* y) {
  const float invd = 1.f / static_cast<float>(d);
  for (Index i = 0; i < rows; ++i) {
    const float* xr = x + i * d;
    float* yr = y + i * d;
    const float mean = sum8(d, xr) * invd;
    const float var = sumsq8(d, xr, mean);
    const float rs = 1.f / std::sqrt(var * invd + 1e-5f);
    for (Index j = 0; j < d; ++j)
      yr[j] = std::fmaf((xr[j] - mean) * rs, gain[j], bias[j]);
  }
}

void softmax_rows(Index rows, Index n, const float* x, float* y) {
  for (Index i = 0; i < rows; ++i) {
    const float* xr = x + i * n;
    float* yr = y + i * n;
    float mx = xr[0];
    for (Index j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
    for (Index j = 0; j < n; ++j) yr[j] = std::exp(xr[j] - mx);
    const float inv = 1.f / sum8(n, yr);
    for (Index j = 0; j < n; ++j) yr[j] *= inv;
  }
}

void quantize_rows(Index rows, Index k, Index k_pad, const float* x,
                   std::int8_t* q, float* scale) {
  for (Index i = 0; i < rows; ++i) {
    const float* xr = x + i * k;
    std::int8_t* qr = q + i * k_pad;
    float amax = 0.f;
    for (Index j = 0; j < k; ++j) amax = std::max(amax, std::fabs(xr[j]));
    scale[i] = amax / 127.f;
    // lrintf rounds to nearest-even under the default mode — the same
    // rule _mm256_cvtps_epi32 hardwires, so a vector requantizer could
    // never disagree. Clamp to ±127 keeps q symmetric (−128 unused).
    const float inv = amax > 0.f ? 127.f / amax : 0.f;
    for (Index j = 0; j < k; ++j) {
      long r = std::lrintf(xr[j] * inv);
      if (r > 127) r = 127;
      if (r < -127) r = -127;
      qr[j] = static_cast<std::int8_t>(r);
    }
    for (Index j = k; j < k_pad; ++j) qr[j] = 0;
  }
}

void qaffine(Index m, Index n, Index k_pad, const std::int8_t* qx,
             const float* sx, const std::int8_t* qw, const float* sw,
             const float* bias, float* y) {
  for (Index i = 0; i < m; ++i) {
    const std::int8_t* xr = qx + i * k_pad;
    const float si = sx[i];
    float* yr = y + i * n;
    for (Index j = 0; j < n; ++j) {
      const std::int8_t* wr = qw + j * k_pad;
      std::int32_t acc = 0;
      for (Index p = 0; p < k_pad; ++p)
        acc += static_cast<std::int32_t>(xr[p]) *
               static_cast<std::int32_t>(wr[p]);
      yr[j] = std::fmaf(static_cast<float>(acc), si * sw[j], bias[j]);
    }
  }
}

}  // namespace ppg::nn::kernels_detail::scalar
