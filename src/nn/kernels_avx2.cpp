// AVX2+FMA kernel backend. Dispatched only after cpuid confirms AVX2+FMA
// (src/nn/backend.cpp); this TU is compiled with -mavx2 -mfma regardless
// of the host, plus -ffp-contract=off -fno-unsafe-math-optimizations so
// the intrinsic sequences below are exactly what executes.
//
// Bitwise equality with the scalar oracle (kernels_impl.h contract):
//  * gemm/affine hold a 6-row × 16-column register tile of C across the
//    whole p loop — per output element that is still "initial value, then
//    fmadd in ascending p", the scalar order, while eliminating the k×
//    C-row memory traffic that bounds the unblocked form. The hot loop is
//    branch-free: the contract has no data-dependent zero skips in
//    gemm_nn/affine (a 4-way scalar compare per p costs ~2× throughput).
//  * reductions keep ONE 8-lane ymm accumulator and fold it with the
//    extract-hi/movehl/shuffle tree that dot8/sum8/sumsq8 spell out in
//    scalar form; tails run scalar fmaf after the tree, as in dot8.
//  * the int8 qaffine accumulates in int32 (exact: |q| ≤ 127 and
//    k_pad ≤ 2^15 keep Σ far below 2^31), so any summation order works;
//    the dequant fmaf matches the scalar expression.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "nn/kernels_impl.h"
#include "nn/packed.h"

namespace ppg::nn::kernels_detail::avx2 {

namespace {

/// The canonical lane-combining tree: l0..l7 -> ((l0+l4)+(l2+l6)) +
/// ((l1+l5)+(l3+l7)). movehl pairs lanes {0,1}+{2,3}; the final shuffle
/// adds lane 1. Matches dot8/sum8's scalar parenthesization bit for bit.
inline float reduce8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);           // l0 l1 l2 l3
  const __m128 hi = _mm256_extractf128_ps(v, 1);         // l4 l5 l6 l7
  __m128 s = _mm_add_ps(lo, hi);                         // l0+l4 .. l3+l7
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));                // (l0+l4)+(l2+l6), ...
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

inline std::int32_t hsum_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x1));
  return _mm_cvtsi128_si32(s);
}

/// dot8 with intrinsics: one ymm accumulator, canonical tree, scalar tail.
inline float dot8v(Index n, const float* x, const float* y) {
  __m256 acc = _mm256_setzero_ps();
  Index j = 0;
  for (; j + 8 <= n; j += 8)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + j), _mm256_loadu_ps(y + j), acc);
  float s = reduce8(acc);
  for (; j < n; ++j) s = std::fmaf(x[j], y[j], s);
  return s;
}

inline float sum8v(Index n, const float* x) {
  __m256 acc = _mm256_setzero_ps();
  Index j = 0;
  for (; j + 8 <= n; j += 8)
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + j));
  float s = reduce8(acc);
  for (; j < n; ++j) s += x[j];
  return s;
}

inline float sumsq8v(Index n, const float* x, float mean) {
  const __m256 mv = _mm256_set1_ps(mean);
  __m256 acc = _mm256_setzero_ps();
  Index j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 c = _mm256_sub_ps(_mm256_loadu_ps(x + j), mv);
    acc = _mm256_fmadd_ps(c, c, acc);
  }
  float s = reduce8(acc);
  for (; j < n; ++j) {
    const float c = x[j] - mean;
    s = std::fmaf(c, c, s);
  }
  return s;
}

/// Shared core of gemm_nn / affine (bias != nullptr selects the affine
/// "start from bias, no accumulate" initialization).
void gemm_bias(Index m, Index n, Index k, const float* a, const float* b,
               const float* bias, float* c) {
  Index i = 0;
  for (; i + 6 <= m; i += 6) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    const float* a4 = a3 + k;
    const float* a5 = a4 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    float* c4 = c3 + n;
    float* c5 = c4 + n;
    Index j = 0;
    // 6×16 register tile: 12 ymm accumulators live across the whole k
    // loop (+2 for the B stream, +1 broadcast = 15 of 16 ymm regs).
    for (; j + 16 <= n; j += 16) {
      __m256 i0, i1;
      if (bias != nullptr) {
        i0 = _mm256_loadu_ps(bias + j);
        i1 = _mm256_loadu_ps(bias + j + 8);
      } else {
        i0 = _mm256_loadu_ps(c0 + j);
        i1 = _mm256_loadu_ps(c0 + j + 8);
      }
      __m256 s00 = i0, s01 = i1;
      __m256 s10 = bias != nullptr ? i0 : _mm256_loadu_ps(c1 + j);
      __m256 s11 = bias != nullptr ? i1 : _mm256_loadu_ps(c1 + j + 8);
      __m256 s20 = bias != nullptr ? i0 : _mm256_loadu_ps(c2 + j);
      __m256 s21 = bias != nullptr ? i1 : _mm256_loadu_ps(c2 + j + 8);
      __m256 s30 = bias != nullptr ? i0 : _mm256_loadu_ps(c3 + j);
      __m256 s31 = bias != nullptr ? i1 : _mm256_loadu_ps(c3 + j + 8);
      __m256 s40 = bias != nullptr ? i0 : _mm256_loadu_ps(c4 + j);
      __m256 s41 = bias != nullptr ? i1 : _mm256_loadu_ps(c4 + j + 8);
      __m256 s50 = bias != nullptr ? i0 : _mm256_loadu_ps(c5 + j);
      __m256 s51 = bias != nullptr ? i1 : _mm256_loadu_ps(c5 + j + 8);
      for (Index p = 0; p < k; ++p) {
        const float* brow = b + p * n + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 w = _mm256_set1_ps(a0[p]);
        s00 = _mm256_fmadd_ps(w, b0, s00);
        s01 = _mm256_fmadd_ps(w, b1, s01);
        w = _mm256_set1_ps(a1[p]);
        s10 = _mm256_fmadd_ps(w, b0, s10);
        s11 = _mm256_fmadd_ps(w, b1, s11);
        w = _mm256_set1_ps(a2[p]);
        s20 = _mm256_fmadd_ps(w, b0, s20);
        s21 = _mm256_fmadd_ps(w, b1, s21);
        w = _mm256_set1_ps(a3[p]);
        s30 = _mm256_fmadd_ps(w, b0, s30);
        s31 = _mm256_fmadd_ps(w, b1, s31);
        w = _mm256_set1_ps(a4[p]);
        s40 = _mm256_fmadd_ps(w, b0, s40);
        s41 = _mm256_fmadd_ps(w, b1, s41);
        w = _mm256_set1_ps(a5[p]);
        s50 = _mm256_fmadd_ps(w, b0, s50);
        s51 = _mm256_fmadd_ps(w, b1, s51);
      }
      _mm256_storeu_ps(c0 + j, s00);
      _mm256_storeu_ps(c0 + j + 8, s01);
      _mm256_storeu_ps(c1 + j, s10);
      _mm256_storeu_ps(c1 + j + 8, s11);
      _mm256_storeu_ps(c2 + j, s20);
      _mm256_storeu_ps(c2 + j + 8, s21);
      _mm256_storeu_ps(c3 + j, s30);
      _mm256_storeu_ps(c3 + j + 8, s31);
      _mm256_storeu_ps(c4 + j, s40);
      _mm256_storeu_ps(c4 + j + 8, s41);
      _mm256_storeu_ps(c5 + j, s50);
      _mm256_storeu_ps(c5 + j + 8, s51);
    }
    for (; j + 8 <= n; j += 8) {
      const __m256 i0 = bias != nullptr ? _mm256_loadu_ps(bias + j)
                                        : _mm256_loadu_ps(c0 + j);
      __m256 s0 = i0;
      __m256 s1 = bias != nullptr ? i0 : _mm256_loadu_ps(c1 + j);
      __m256 s2 = bias != nullptr ? i0 : _mm256_loadu_ps(c2 + j);
      __m256 s3 = bias != nullptr ? i0 : _mm256_loadu_ps(c3 + j);
      __m256 s4 = bias != nullptr ? i0 : _mm256_loadu_ps(c4 + j);
      __m256 s5 = bias != nullptr ? i0 : _mm256_loadu_ps(c5 + j);
      for (Index p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * n + j);
        s0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[p]), bv, s0);
        s1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[p]), bv, s1);
        s2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[p]), bv, s2);
        s3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[p]), bv, s3);
        s4 = _mm256_fmadd_ps(_mm256_set1_ps(a4[p]), bv, s4);
        s5 = _mm256_fmadd_ps(_mm256_set1_ps(a5[p]), bv, s5);
      }
      _mm256_storeu_ps(c0 + j, s0);
      _mm256_storeu_ps(c1 + j, s1);
      _mm256_storeu_ps(c2 + j, s2);
      _mm256_storeu_ps(c3 + j, s3);
      _mm256_storeu_ps(c4 + j, s4);
      _mm256_storeu_ps(c5 + j, s5);
    }
    for (; j < n; ++j) {
      float s0 = bias != nullptr ? bias[j] : c0[j];
      float s1 = bias != nullptr ? bias[j] : c1[j];
      float s2 = bias != nullptr ? bias[j] : c2[j];
      float s3 = bias != nullptr ? bias[j] : c3[j];
      float s4 = bias != nullptr ? bias[j] : c4[j];
      float s5 = bias != nullptr ? bias[j] : c5[j];
      for (Index p = 0; p < k; ++p) {
        const float bv = b[p * n + j];
        s0 = std::fmaf(a0[p], bv, s0);
        s1 = std::fmaf(a1[p], bv, s1);
        s2 = std::fmaf(a2[p], bv, s2);
        s3 = std::fmaf(a3[p], bv, s3);
        s4 = std::fmaf(a4[p], bv, s4);
        s5 = std::fmaf(a5[p], bv, s5);
      }
      c0[j] = s0;
      c1[j] = s1;
      c2[j] = s2;
      c3[j] = s3;
      c4[j] = s4;
      c5[j] = s5;
    }
  }
  for (; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    Index j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 s = bias != nullptr ? _mm256_loadu_ps(bias + j)
                                 : _mm256_loadu_ps(crow + j);
      for (Index p = 0; p < k; ++p)
        s = _mm256_fmadd_ps(_mm256_set1_ps(arow[p]),
                            _mm256_loadu_ps(b + p * n + j), s);
      _mm256_storeu_ps(crow + j, s);
    }
    for (; j < n; ++j) {
      float s = bias != nullptr ? bias[j] : crow[j];
      for (Index p = 0; p < k; ++p) s = std::fmaf(arow[p], b[p * n + j], s);
      crow[j] = s;
    }
  }
}

static_assert(kPanelWidth == 16, "two ymm per panel row");

/// maskload/maskstore lanes [0, cols) of one ymm; cols may be <= 0 or >= 8.
inline __m256i lane_mask(Index cols) {
  const int c = static_cast<int>(std::min<Index>(std::max<Index>(cols, 0), 8));
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(c),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// One R-row × one-panel tile of packed_affine (R <= 6): two ymm
/// accumulators per row (the panel's 16 columns), live across the whole k
/// loop, started from the bias and fmadd-ed down the panel in ascending p.
/// 12 accumulators + 2 panel halves + 1 broadcast fill 15 of 16 ymm. The
/// rows are spelled out (PPG_PACKED_ROW) rather than looped over: with
/// the accumulators in an array, GCC -O2 kept them on the stack.
template <int R>
void packed_tile(Index k, const float* x, Index ldx, const float* w,
                 const float* bias, Index cols, float* y, Index ldy) {
  const bool full = cols >= 16;
  const __m256i m0 = lane_mask(cols), m1 = lane_mask(cols - 8);
  const __m256 b0 = full ? _mm256_loadu_ps(bias) : _mm256_maskload_ps(bias, m0);
  const __m256 b1 =
      full ? _mm256_loadu_ps(bias + 8) : _mm256_maskload_ps(bias + 8, m1);
  [[maybe_unused]] __m256 s00 = b0, s01 = b1, s10 = b0, s11 = b1, s20 = b0,
                          s21 = b1, s30 = b0, s31 = b1, s40 = b0, s41 = b1,
                          s50 = b0, s51 = b1;
  for (Index p = 0; p < k; ++p) {
    const __m256 v0 = _mm256_loadu_ps(w + p * 16);
    const __m256 v1 = _mm256_loadu_ps(w + p * 16 + 8);
#define PPG_PACKED_ROW(r)                             \
  if constexpr (R > r) {                              \
    const __m256 a = _mm256_set1_ps(x[r * ldx + p]);  \
    s##r##0 = _mm256_fmadd_ps(a, v0, s##r##0);        \
    s##r##1 = _mm256_fmadd_ps(a, v1, s##r##1);        \
  }
    PPG_PACKED_ROW(0) PPG_PACKED_ROW(1) PPG_PACKED_ROW(2)
    PPG_PACKED_ROW(3) PPG_PACKED_ROW(4) PPG_PACKED_ROW(5)
#undef PPG_PACKED_ROW
  }
#define PPG_PACKED_STORE(r)                           \
  if constexpr (R > r) {                              \
    if (full) {                                       \
      _mm256_storeu_ps(y + r * ldy, s##r##0);         \
      _mm256_storeu_ps(y + r * ldy + 8, s##r##1);     \
    } else {                                          \
      _mm256_maskstore_ps(y + r * ldy, m0, s##r##0);  \
      _mm256_maskstore_ps(y + r * ldy + 8, m1, s##r##1); \
    }                                                 \
  }
  PPG_PACKED_STORE(0) PPG_PACKED_STORE(1) PPG_PACKED_STORE(2)
  PPG_PACKED_STORE(3) PPG_PACKED_STORE(4) PPG_PACKED_STORE(5)
#undef PPG_PACKED_STORE
}

}  // namespace

void gemm_nn(Index m, Index n, Index k, const float* a, const float* b,
             float* c) {
  gemm_bias(m, n, k, a, b, nullptr, c);
}

void packed_affine(Index m, Index n, Index k, const float* x, const float* wp,
                   const float* bias, float* y) {
  // One panel at a time, outermost: its k·64 bytes stream in once and
  // stay cache-resident while every row tile reads them. Rows go in 6-row
  // tiles, then one tile of the remaining 1..5 rows.
  for (Index j = 0; j < n; j += 16) {
    const float* w = wp + j * k;
    const Index cols = n - j;
    Index i = 0;
    for (; i + 6 <= m; i += 6)
      packed_tile<6>(k, x + i * k, k, w, bias + j, cols, y + i * n + j, n);
    const float* xr = x + i * k;
    float* yr = y + i * n + j;
    switch (m - i) {
      case 1: packed_tile<1>(k, xr, k, w, bias + j, cols, yr, n); break;
      case 2: packed_tile<2>(k, xr, k, w, bias + j, cols, yr, n); break;
      case 3: packed_tile<3>(k, xr, k, w, bias + j, cols, yr, n); break;
      case 4: packed_tile<4>(k, xr, k, w, bias + j, cols, yr, n); break;
      case 5: packed_tile<5>(k, xr, k, w, bias + j, cols, yr, n); break;
      default: break;
    }
  }
}

void affine(Index m, Index n, Index k, const float* x, const float* w,
            const float* bias, float* y) {
  gemm_bias(m, n, k, x, w, bias, y);
}

void gemm_nt(Index m, Index n, Index k, const float* a, const float* b,
             float* c) {
  for (Index i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (Index j = 0; j < n; ++j) crow[j] += dot8v(k, arow, b + j * k);
  }
}

void gemm_tn(Index m, Index n, Index k, const float* a, const float* b,
             float* c) {
  for (Index p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (Index i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.f) continue;
      float* crow = c + i * n;
      const __m256 w = _mm256_set1_ps(av);
      Index j = 0;
      for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(
            crow + j,
            _mm256_fmadd_ps(w, _mm256_loadu_ps(brow + j),
                            _mm256_loadu_ps(crow + j)));
      for (; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
    }
  }
}

void layernorm_rows(Index rows, Index d, const float* x, const float* gain,
                    const float* bias, float* y) {
  const float invd = 1.f / static_cast<float>(d);
  for (Index i = 0; i < rows; ++i) {
    const float* xr = x + i * d;
    float* yr = y + i * d;
    const float mean = sum8v(d, xr) * invd;
    const float var = sumsq8v(d, xr, mean);
    const float rs = 1.f / std::sqrt(var * invd + 1e-5f);
    const __m256 mv = _mm256_set1_ps(mean);
    const __m256 rv = _mm256_set1_ps(rs);
    Index j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 t =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xr + j), mv), rv);
      _mm256_storeu_ps(
          yr + j,
          _mm256_fmadd_ps(t, _mm256_loadu_ps(gain + j),
                          _mm256_loadu_ps(bias + j)));
    }
    for (; j < d; ++j)
      yr[j] = std::fmaf((xr[j] - mean) * rs, gain[j], bias[j]);
  }
}

void softmax_rows(Index rows, Index n, const float* x, float* y) {
  for (Index i = 0; i < rows; ++i) {
    const float* xr = x + i * n;
    float* yr = y + i * n;
    float mx = xr[0];
    for (Index j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
    // expf stays a scalar libm call in every backend (contract).
    for (Index j = 0; j < n; ++j) yr[j] = std::exp(xr[j] - mx);
    const float inv = 1.f / sum8v(n, yr);
    const __m256 iv = _mm256_set1_ps(inv);
    Index j = 0;
    for (; j + 8 <= n; j += 8)
      _mm256_storeu_ps(yr + j, _mm256_mul_ps(_mm256_loadu_ps(yr + j), iv));
    for (; j < n; ++j) yr[j] *= inv;
  }
}

void qaffine(Index m, Index n, Index k_pad, const std::int8_t* qx,
             const float* sx, const std::int8_t* qw, const float* sw,
             const float* bias, float* y) {
  // maddubs sign trick: x·w = |x| · copysign(w, x) elementwise, with |x|
  // in [0,127] fitting maddubs' unsigned operand. Each s16 pair-sum is at
  // most 2·127·127 = 32258 < 2^15, so the saturating add never saturates
  // and the product chain stays integer-exact (hence backend-invariant).
  // Four output channels per pass share the |x| vectors, quartering the
  // activation-side work next to the unavoidable weight-row streams.
  const __m256i ones16 = _mm256_set1_epi16(1);
  for (Index i = 0; i < m; ++i) {
    const std::int8_t* xr = qx + i * k_pad;
    const float si = sx[i];
    float* yr = y + i * n;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* w0 = qw + j * k_pad;
      const std::int8_t* w1 = w0 + k_pad;
      const std::int8_t* w2 = w1 + k_pad;
      const std::int8_t* w3 = w2 + k_pad;
      __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;
      // k_pad is a multiple of 32 (quant.h pads weights and activations),
      // so the 32-byte step never needs a tail.
      for (Index p = 0; p < k_pad; p += 32) {
        const __m256i xv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(xr + p));
        const __m256i xabs = _mm256_abs_epi8(xv);
        const auto lane = [&](const std::int8_t* wr, __m256i acc) {
          const __m256i wv = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(wr + p));
          const __m256i prod =
              _mm256_maddubs_epi16(xabs, _mm256_sign_epi8(wv, xv));
          return _mm256_add_epi32(acc, _mm256_madd_epi16(prod, ones16));
        };
        a0 = lane(w0, a0);
        a1 = lane(w1, a1);
        a2 = lane(w2, a2);
        a3 = lane(w3, a3);
      }
      // Joint 4-channel reduction (hadd tree) + vector dequant. Integer
      // adds commute, and cvt/mul/fmadd here are the same correctly
      // rounded operations as the scalar fmaf(float(acc), si*sw[j],
      // bias[j]) expression, so results stay bitwise backend-invariant.
      const __m256i t01 = _mm256_hadd_epi32(a0, a1);
      const __m256i t23 = _mm256_hadd_epi32(a2, a3);
      const __m256i t = _mm256_hadd_epi32(t01, t23);
      const __m128i sums = _mm_add_epi32(_mm256_castsi256_si128(t),
                                         _mm256_extracti128_si256(t, 1));
      const __m128 scale =
          _mm_mul_ps(_mm_set1_ps(si), _mm_loadu_ps(sw + j));
      _mm_storeu_ps(yr + j, _mm_fmadd_ps(_mm_cvtepi32_ps(sums), scale,
                                         _mm_loadu_ps(bias + j)));
    }
    for (; j < n; ++j) {
      const std::int8_t* wr = qw + j * k_pad;
      __m256i acc = _mm256_setzero_si256();
      for (Index p = 0; p < k_pad; p += 32) {
        const __m256i xv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(xr + p));
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(wr + p));
        const __m256i prod = _mm256_maddubs_epi16(_mm256_abs_epi8(xv),
                                                  _mm256_sign_epi8(wv, xv));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(prod, ones16));
      }
      yr[j] = std::fmaf(static_cast<float>(hsum_epi32(acc)), si * sw[j],
                        bias[j]);
    }
  }
}

}  // namespace ppg::nn::kernels_detail::avx2
