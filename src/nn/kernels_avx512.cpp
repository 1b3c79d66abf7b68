// AVX-512 kernel backend. Provides only the "j-lane" kernels — gemm_nn,
// gemm_tn, affine, packed_affine and the int8 qaffine — where widening
// the vector is free of reordering hazards: each output element's fmadd
// chain keeps the scalar order whatever the lane count, and int32 dot
// products are exact.
// The reduction kernels (gemm_nt, layernorm_rows, softmax_rows) would
// need 16 accumulation lanes, which breaks the canonical 8-lane contract
// of kernels_impl.h, so the AVX-512 dispatch table borrows the AVX2
// implementations for those instead (see backend.cpp).
//
// Compiled with -mavx512{f,bw,dq,vl} -mfma regardless of host; dispatched
// only after cpuid confirms avx512f+bw (backend.cpp). Same FP flags as
// the other backend TUs: -ffp-contract=off -fno-unsafe-math-optimizations.
#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "nn/kernels_impl.h"
#include "nn/packed.h"

namespace ppg::nn::kernels_detail::avx512 {

namespace {

/// Shared core of gemm_nn / affine, 4-row × 32-column zmm register tile.
/// Tails narrow to 16 via a masked zmm (masked lanes never touch memory
/// or the accumulator chain), then to the scalar contract loop.
void gemm_bias(Index m, Index n, Index k, const float* a, const float* b,
               const float* bias, float* c) {
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
    Index j = 0;
    for (; j + 32 <= n; j += 32) {
      __m512 i0, i1;
      if (bias != nullptr) {
        i0 = _mm512_loadu_ps(bias + j);
        i1 = _mm512_loadu_ps(bias + j + 16);
      } else {
        i0 = _mm512_loadu_ps(c0 + j);
        i1 = _mm512_loadu_ps(c0 + j + 16);
      }
      __m512 s00 = i0, s01 = i1;
      __m512 s10 = bias != nullptr ? i0 : _mm512_loadu_ps(c1 + j);
      __m512 s11 = bias != nullptr ? i1 : _mm512_loadu_ps(c1 + j + 16);
      __m512 s20 = bias != nullptr ? i0 : _mm512_loadu_ps(c2 + j);
      __m512 s21 = bias != nullptr ? i1 : _mm512_loadu_ps(c2 + j + 16);
      __m512 s30 = bias != nullptr ? i0 : _mm512_loadu_ps(c3 + j);
      __m512 s31 = bias != nullptr ? i1 : _mm512_loadu_ps(c3 + j + 16);
      for (Index p = 0; p < k; ++p) {
        const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        const float* brow = b + p * n + j;
        const __m512 b0 = _mm512_loadu_ps(brow);
        const __m512 b1 = _mm512_loadu_ps(brow + 16);
        const __m512 w0 = _mm512_set1_ps(v0);
        s00 = _mm512_fmadd_ps(w0, b0, s00);
        s01 = _mm512_fmadd_ps(w0, b1, s01);
        const __m512 w1 = _mm512_set1_ps(v1);
        s10 = _mm512_fmadd_ps(w1, b0, s10);
        s11 = _mm512_fmadd_ps(w1, b1, s11);
        const __m512 w2 = _mm512_set1_ps(v2);
        s20 = _mm512_fmadd_ps(w2, b0, s20);
        s21 = _mm512_fmadd_ps(w2, b1, s21);
        const __m512 w3 = _mm512_set1_ps(v3);
        s30 = _mm512_fmadd_ps(w3, b0, s30);
        s31 = _mm512_fmadd_ps(w3, b1, s31);
      }
      _mm512_storeu_ps(c0 + j, s00);
      _mm512_storeu_ps(c0 + j + 16, s01);
      _mm512_storeu_ps(c1 + j, s10);
      _mm512_storeu_ps(c1 + j + 16, s11);
      _mm512_storeu_ps(c2 + j, s20);
      _mm512_storeu_ps(c2 + j + 16, s21);
      _mm512_storeu_ps(c3 + j, s30);
      _mm512_storeu_ps(c3 + j + 16, s31);
    }
    if (j < n) {
      // Masked 16-wide tail covers the remaining 1..31 columns in at most
      // two passes; inactive lanes are never loaded or stored.
      for (; j < n; j += 16) {
        const Index w = std::min<Index>(16, n - j);
        const __mmask16 mask =
            static_cast<__mmask16>((1u << w) - 1u);
        const __m512 i0 = bias != nullptr
                              ? _mm512_maskz_loadu_ps(mask, bias + j)
                              : _mm512_maskz_loadu_ps(mask, c0 + j);
        __m512 s0 = i0;
        __m512 s1 =
            bias != nullptr ? i0 : _mm512_maskz_loadu_ps(mask, c1 + j);
        __m512 s2 =
            bias != nullptr ? i0 : _mm512_maskz_loadu_ps(mask, c2 + j);
        __m512 s3 =
            bias != nullptr ? i0 : _mm512_maskz_loadu_ps(mask, c3 + j);
        for (Index p = 0; p < k; ++p) {
          const __m512 bv = _mm512_maskz_loadu_ps(mask, b + p * n + j);
          s0 = _mm512_fmadd_ps(_mm512_set1_ps(a0[p]), bv, s0);
          s1 = _mm512_fmadd_ps(_mm512_set1_ps(a1[p]), bv, s1);
          s2 = _mm512_fmadd_ps(_mm512_set1_ps(a2[p]), bv, s2);
          s3 = _mm512_fmadd_ps(_mm512_set1_ps(a3[p]), bv, s3);
        }
        _mm512_mask_storeu_ps(c0 + j, mask, s0);
        _mm512_mask_storeu_ps(c1 + j, mask, s1);
        _mm512_mask_storeu_ps(c2 + j, mask, s2);
        _mm512_mask_storeu_ps(c3 + j, mask, s3);
      }
    }
  }
  for (; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (Index j = 0; j < n; j += 16) {
      const Index w = std::min<Index>(16, n - j);
      const __mmask16 mask = static_cast<__mmask16>((1u << w) - 1u);
      __m512 s = bias != nullptr ? _mm512_maskz_loadu_ps(mask, bias + j)
                                 : _mm512_maskz_loadu_ps(mask, crow + j);
      for (Index p = 0; p < k; ++p)
        s = _mm512_fmadd_ps(_mm512_set1_ps(arow[p]),
                            _mm512_maskz_loadu_ps(mask, b + p * n + j), s);
      _mm512_mask_storeu_ps(crow + j, mask, s);
    }
  }
}

static_assert(kPanelWidth == 16, "one zmm per panel row");

/// Lanes [0, cols) of one panel; cols may be <= 0 or >= 16.
inline __mmask16 panel_mask(Index cols) {
  if (cols >= 16) return 0xFFFF;
  return cols <= 0 ? 0 : static_cast<__mmask16>((1u << cols) - 1u);
}

/// One R-row × P-panel tile of packed_affine (R <= 8, P <= 2): one zmm
/// accumulator per (row, panel), live across the whole k loop, started
/// from the bias and fmadd-ed down the panels in ascending p. The rows are
/// spelled out (PPG_PACKED_ROW) rather than looped over: with the
/// accumulators in an array, GCC -O2 kept them on the stack.
template <int R, int P>
void packed_tile(Index k, const float* x, Index ldx, const float* w,
                 const float* bias, Index cols, float* y, Index ldy) {
  const __mmask16 m0 = panel_mask(cols), m1 = panel_mask(cols - 16);
  const __m512 b0 = _mm512_maskz_loadu_ps(m0, bias);
  [[maybe_unused]] __m512 b1 = b0;
  if constexpr (P > 1) b1 = _mm512_maskz_loadu_ps(m1, bias + 16);
  [[maybe_unused]] __m512 s00 = b0, s01 = b1, s10 = b0, s11 = b1, s20 = b0,
                          s21 = b1, s30 = b0, s31 = b1, s40 = b0, s41 = b1,
                          s50 = b0, s51 = b1, s60 = b0, s61 = b1, s70 = b0,
                          s71 = b1;
  const float* w1 = w + k * 16;
  for (Index p = 0; p < k; ++p) {
    const __m512 v0 = _mm512_loadu_ps(w + p * 16);
    [[maybe_unused]] __m512 v1 = v0;
    if constexpr (P > 1) v1 = _mm512_loadu_ps(w1 + p * 16);
#define PPG_PACKED_ROW(r)                                             \
  if constexpr (R > r) {                                              \
    const __m512 a = _mm512_set1_ps(x[r * ldx + p]);                  \
    s##r##0 = _mm512_fmadd_ps(a, v0, s##r##0);                        \
    if constexpr (P > 1) s##r##1 = _mm512_fmadd_ps(a, v1, s##r##1);   \
  }
    PPG_PACKED_ROW(0) PPG_PACKED_ROW(1) PPG_PACKED_ROW(2) PPG_PACKED_ROW(3)
    PPG_PACKED_ROW(4) PPG_PACKED_ROW(5) PPG_PACKED_ROW(6) PPG_PACKED_ROW(7)
#undef PPG_PACKED_ROW
  }
#define PPG_PACKED_STORE(r)                                            \
  if constexpr (R > r) {                                               \
    _mm512_mask_storeu_ps(y + r * ldy, m0, s##r##0);                   \
    if constexpr (P > 1) _mm512_mask_storeu_ps(y + r * ldy + 16, m1, s##r##1); \
  }
  PPG_PACKED_STORE(0) PPG_PACKED_STORE(1) PPG_PACKED_STORE(2)
  PPG_PACKED_STORE(3) PPG_PACKED_STORE(4) PPG_PACKED_STORE(5)
  PPG_PACKED_STORE(6) PPG_PACKED_STORE(7)
#undef PPG_PACKED_STORE
}

/// All m rows against P panels: 8-row tiles, then one tile of the
/// remaining 1..7 rows (a full tile of its own height, not a fallback).
template <int P>
void packed_rows(Index m, Index n, Index k, const float* x, const float* w,
                 const float* bias, Index cols, float* y) {
  Index i = 0;
  for (; i + 8 <= m; i += 8)
    packed_tile<8, P>(k, x + i * k, k, w, bias, cols, y + i * n, n);
  const float* xr = x + i * k;
  float* yr = y + i * n;
  switch (m - i) {
    case 1: packed_tile<1, P>(k, xr, k, w, bias, cols, yr, n); break;
    case 2: packed_tile<2, P>(k, xr, k, w, bias, cols, yr, n); break;
    case 3: packed_tile<3, P>(k, xr, k, w, bias, cols, yr, n); break;
    case 4: packed_tile<4, P>(k, xr, k, w, bias, cols, yr, n); break;
    case 5: packed_tile<5, P>(k, xr, k, w, bias, cols, yr, n); break;
    case 6: packed_tile<6, P>(k, xr, k, w, bias, cols, yr, n); break;
    case 7: packed_tile<7, P>(k, xr, k, w, bias, cols, yr, n); break;
    default: break;
  }
}

}  // namespace

void gemm_nn(Index m, Index n, Index k, const float* a, const float* b,
             float* c) {
  gemm_bias(m, n, k, a, b, nullptr, c);
}

void packed_affine(Index m, Index n, Index k, const float* x, const float* wp,
                   const float* bias, float* y) {
  // Panel pairs outermost: each pair's 2·k·64 bytes stream in once and
  // stay cache-resident while every row tile reads them.
  Index j = 0;
  for (; j + 16 < n; j += 32)
    packed_rows<2>(m, n, k, x, wp + j * k, bias + j, n - j, y + j);
  if (j < n) packed_rows<1>(m, n, k, x, wp + j * k, bias + j, n - j, y + j);
}

void affine(Index m, Index n, Index k, const float* x, const float* w,
            const float* bias, float* y) {
  gemm_bias(m, n, k, x, w, bias, y);
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
      const __m512 w = _mm512_set1_ps(av);
      for (Index j = 0; j < n; j += 16) {
        const Index cols = std::min<Index>(16, n - j);
        const __mmask16 mask = static_cast<__mmask16>((1u << cols) - 1u);
        _mm512_mask_storeu_ps(
            crow + j, mask,
            _mm512_fmadd_ps(w, _mm512_maskz_loadu_ps(mask, brow + j),
                            _mm512_maskz_loadu_ps(mask, crow + j)));
      }
    }
  }
}

void qaffine(Index m, Index n, Index k_pad, const std::int8_t* qx,
             const float* sx, const std::int8_t* qw, const float* sw,
             const float* bias, float* y) {
  // Same maddubs sign trick as the AVX2 table (see kernels_avx2.cpp):
  // |x|·copysign(w,x) pairs stay below the s16 saturation line, so the
  // whole chain is integer-exact and backend-invariant. Four output
  // channels share the |x| vectors; the 32-byte remainder of an odd
  // k_pad multiple runs the identical ymm step under AVX-512VL.
  const __m512i ones16 = _mm512_set1_epi16(1);
  const __m256i yones16 = _mm256_set1_epi16(1);
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
      Index p = 0;
      for (; p + 64 <= k_pad; p += 64) {
        const __m512i xv = _mm512_loadu_si512(xr + p);
        const __m512i xabs = _mm512_abs_epi8(xv);
        // AVX-512BW has no vpsignb; copysign(w,x) spelled via a mask of
        // x's negative bytes: w, negated where x < 0 (x == 0 never
        // matters — its |x| lane multiplies to 0 either way).
        const __mmask64 neg =
            _mm512_movepi8_mask(xv);  // sign bits of each byte
        const auto lane = [&](const std::int8_t* wr, __m256i acc) {
          const __m512i wv = _mm512_loadu_si512(wr + p);
          const __m512i wsigned =
              _mm512_mask_sub_epi8(wv, neg, _mm512_setzero_si512(), wv);
          const __m512i prod = _mm512_maddubs_epi16(xabs, wsigned);
          const __m512i dots = _mm512_madd_epi16(prod, ones16);
          // Fold the zmm into the ymm accumulator so all widths share one
          // per-channel accumulator (integer adds commute; still exact).
          return _mm256_add_epi32(
              acc, _mm256_add_epi32(_mm512_castsi512_si256(dots),
                                    _mm512_extracti64x4_epi64(dots, 1)));
        };
        a0 = lane(w0, a0);
        a1 = lane(w1, a1);
        a2 = lane(w2, a2);
        a3 = lane(w3, a3);
      }
      for (; p < k_pad; p += 32) {
        const __m256i xv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(xr + p));
        const __m256i xabs = _mm256_abs_epi8(xv);
        const auto lane = [&](const std::int8_t* wr, __m256i acc) {
          const __m256i wv = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(wr + p));
          const __m256i prod =
              _mm256_maddubs_epi16(xabs, _mm256_sign_epi8(wv, xv));
          return _mm256_add_epi32(acc, _mm256_madd_epi16(prod, yones16));
        };
        a0 = lane(w0, a0);
        a1 = lane(w1, a1);
        a2 = lane(w2, a2);
        a3 = lane(w3, a3);
      }
      // Joint 4-channel hadd-tree reduction + vector dequant; identical
      // operation sequence to the AVX2 table's epilogue, and the same
      // correctly rounded ops as the scalar fmaf expression.
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
      std::int64_t acc = 0;
      for (Index p = 0; p < k_pad; ++p)
        acc += std::int32_t(xr[p]) * std::int32_t(wr[p]);
      yr[j] = std::fmaf(static_cast<float>(acc), si * sw[j], bias[j]);
    }
  }
}

}  // namespace ppg::nn::kernels_detail::avx512
