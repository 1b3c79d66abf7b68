// Internal: per-backend kernel entry points and the canonical accumulation
// contract every backend must reproduce bit for bit.
//
// The contract (enforced by tests/kernel_backend_test.cpp):
//
//  * Every multiply-accumulate is a correctly rounded fused multiply-add
//    (std::fmaf in the scalar backend — glibc's fmaf is correctly rounded
//    even without hardware FMA — and vfmadd in the vector backends), so
//    one madd produces identical bits on every backend.
//  * Elementwise ("j-lane") kernels — gemm_nn, affine, packed_affine,
//    gemm_tn and the layernorm/softmax normalization loops — fix a
//    per-OUTPUT-element order: the initial value (0, C, or bias) followed
//    by madds in ascending p. Vectorizing across outputs never reorders
//    any single output's chain, so these match at any vector width — and
//    whatever the weight layout — by construction.
//    gemm_nn/affine hot loops are BRANCH-FREE: no data-dependent zero
//    skips (a per-p scalar compare costs ~2× GEMM throughput; fmaf with
//    a zero multiplier is value-preserving for finite data anyway). Only
//    gemm_tn keeps its av == 0.f row skip — rank-1 updates over sparse
//    gradients are its reason to exist — and every backend replicates
//    that one rule so the madd COUNT stays equal across tables.
//  * Reductions (gemm_nt dots, softmax's Σexp, layernorm's mean/var) use
//    dot8/sum8/sumsq8 below: eight accumulation lanes (lane t takes
//    elements j ≡ t mod 8 of the first ⌊n/8⌋·8), combined by the fixed
//    tree ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) — exactly one ymm
//    accumulator reduced by the extract-hi/movehl/shuffle sequence — then
//    the tail folded in sequentially. The AVX-512 backend reuses the
//    AVX2 reduction kernels rather than widening to sixteen lanes.
//  * expf stays a scalar libm call in every backend (the same symbol →
//    the same bits); max reductions are order-free over finite floats.
//
// Backend TUs are compiled with -ffp-contract=off and
// -fno-unsafe-math-optimizations appended after the global -ffast-math,
// so the compiler may neither contract a*b+c into an fma nor reassociate
// the trees above: the source-level order IS the executed order.
#pragma once

#include <cmath>
#include <cstdint>

namespace ppg::nn::kernels_detail {

using Index = std::int64_t;

/// Canonical 8-lane fused-multiply-add dot product (see contract above).
inline float dot8(Index n, const float* x, const float* y) {
  float l[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  Index j = 0;
  for (; j + 8 <= n; j += 8)
    for (int t = 0; t < 8; ++t) l[t] = std::fmaf(x[j + t], y[j + t], l[t]);
  float s = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
  for (; j < n; ++j) s = std::fmaf(x[j], y[j], s);
  return s;
}

/// Canonical 8-lane sum.
inline float sum8(Index n, const float* x) {
  float l[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  Index j = 0;
  for (; j + 8 <= n; j += 8)
    for (int t = 0; t < 8; ++t) l[t] += x[j + t];
  float s = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
  for (; j < n; ++j) s += x[j];
  return s;
}

/// Canonical 8-lane sum of squared deviations: Σ (x[j] - mean)².
inline float sumsq8(Index n, const float* x, float mean) {
  float l[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  Index j = 0;
  for (; j + 8 <= n; j += 8)
    for (int t = 0; t < 8; ++t) {
      const float c = x[j + t] - mean;
      l[t] = std::fmaf(c, c, l[t]);
    }
  float s = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
  for (; j < n; ++j) {
    const float c = x[j] - mean;
    s = std::fmaf(c, c, s);
  }
  return s;
}

// Entry points each backend TU defines. The AVX-512 table deliberately
// borrows the AVX2 reduction kernels (gemm_nt, layernorm_rows,
// softmax_rows) so lane geometry never differs; quantize_rows has a
// single scalar definition shared by every table (it is O(rows·k) next
// to the O(rows·k·n) GEMMs, and sharing removes a whole class of
// rounding-mode mismatches).
namespace scalar {
void gemm_nn(Index m, Index n, Index k, const float* a, const float* b,
             float* c);
void gemm_nt(Index m, Index n, Index k, const float* a, const float* b,
             float* c);
void gemm_tn(Index m, Index n, Index k, const float* a, const float* b,
             float* c);
void affine(Index m, Index n, Index k, const float* x, const float* w,
            const float* bias, float* y);
void packed_affine(Index m, Index n, Index k, const float* x, const float* wp,
                   const float* bias, float* y);
void layernorm_rows(Index rows, Index d, const float* x, const float* gain,
                    const float* bias, float* y);
void softmax_rows(Index rows, Index n, const float* x, float* y);
void quantize_rows(Index rows, Index k, Index k_pad, const float* x,
                   std::int8_t* q, float* scale);
void qaffine(Index m, Index n, Index k_pad, const std::int8_t* qx,
             const float* sx, const std::int8_t* qw, const float* sw,
             const float* bias, float* y);
}  // namespace scalar

namespace avx2 {
void gemm_nn(Index m, Index n, Index k, const float* a, const float* b,
             float* c);
void gemm_nt(Index m, Index n, Index k, const float* a, const float* b,
             float* c);
void gemm_tn(Index m, Index n, Index k, const float* a, const float* b,
             float* c);
void affine(Index m, Index n, Index k, const float* x, const float* w,
            const float* bias, float* y);
void packed_affine(Index m, Index n, Index k, const float* x, const float* wp,
                   const float* bias, float* y);
void layernorm_rows(Index rows, Index d, const float* x, const float* gain,
                    const float* bias, float* y);
void softmax_rows(Index rows, Index n, const float* x, float* y);
void qaffine(Index m, Index n, Index k_pad, const std::int8_t* qx,
             const float* sx, const std::int8_t* qw, const float* sw,
             const float* bias, float* y);
}  // namespace avx2

namespace avx512 {
void gemm_nn(Index m, Index n, Index k, const float* a, const float* b,
             float* c);
void gemm_tn(Index m, Index n, Index k, const float* a, const float* b,
             float* c);
void affine(Index m, Index n, Index k, const float* x, const float* w,
            const float* bias, float* y);
void packed_affine(Index m, Index n, Index k, const float* x, const float* wp,
                   const float* bias, float* y);
void qaffine(Index m, Index n, Index k_pad, const std::int8_t* qx,
             const float* sx, const std::int8_t* qw, const float* sw,
             const float* bias, float* y);
}  // namespace avx512

}  // namespace ppg::nn::kernels_detail
