// Raw float kernels shared by the autograd ops (graph.cpp) and the
// no-autograd inference engine (gpt/infer.cpp).
//
// Since the backend-dispatch refactor these are thin wrappers: argument
// DCHECKs here, then one indirect call through the process-wide
// KernelBackend table (backend.h) into explicitly vectorized scalar /
// AVX2 / AVX-512 implementations (kernels_scalar.cpp & friends). All
// backends obey the accumulation contract in kernels_impl.h, so fp32
// results are bitwise identical whichever table is active — callers can
// treat the dispatch as invisible.
//
// All GEMMs accumulate into C (C += ...) so backward passes can reuse them
// for gradient accumulation; call them on zeroed buffers for plain products.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "nn/backend.h"

namespace ppg::nn::kernels {

using Index = std::int64_t;

/// Shared argument DCHECKs for the GEMM family: dimensions non-negative,
/// buffers present whenever their extent is non-zero. Callers (graph.cpp,
/// infer.cpp) own shape *compatibility*; what a raw-pointer kernel can
/// still verify is that nobody handed it a null or negative-extent view.
inline void dcheck_gemm_args([[maybe_unused]] Index m,
                             [[maybe_unused]] Index n,
                             [[maybe_unused]] Index k,
                             [[maybe_unused]] const float* a,
                             [[maybe_unused]] const float* b,
                             [[maybe_unused]] const float* c) {
  PPG_DCHECK(m >= 0 && n >= 0 && k >= 0,
             "gemm: negative extent m=%lld n=%lld k=%lld",
             static_cast<long long>(m), static_cast<long long>(n),
             static_cast<long long>(k));
  PPG_DCHECK(a != nullptr || m * k == 0, "gemm: null A with m*k > 0");
  PPG_DCHECK(b != nullptr || n * k == 0, "gemm: null B with n*k > 0");
  PPG_DCHECK(c != nullptr || m * n == 0, "gemm: null C with m*n > 0");
}

/// C[m,n] += A[m,k] · B[k,n].
inline void gemm_nn(Index m, Index n, Index k, const float* a, const float* b,
                    float* c) {
  dcheck_gemm_args(m, n, k, a, b, c);
  active_backend().gemm_nn(m, n, k, a, b, c);
}

/// C[m,n] += A[m,k] · B[n,k]ᵀ  (dot-product form).
inline void gemm_nt(Index m, Index n, Index k, const float* a, const float* b,
                    float* c) {
  dcheck_gemm_args(m, n, k, a, b, c);
  active_backend().gemm_nt(m, n, k, a, b, c);
}

/// C[m,n] += A[k,m]ᵀ · B[k,n]  (rank-1 update form).
inline void gemm_tn(Index m, Index n, Index k, const float* a, const float* b,
                    float* c) {
  dcheck_gemm_args(m, n, k, a, b, c);
  active_backend().gemm_tn(m, n, k, a, b, c);
}

/// y[m,n] = x[m,k] · W[k,n] + bias[n] (no accumulate; bias broadcast).
inline void affine(Index m, Index n, Index k, const float* x, const float* w,
                   const float* bias, float* y) {
  dcheck_gemm_args(m, n, k, x, w, y);
  PPG_DCHECK(bias != nullptr || n == 0, "affine: null bias with n > 0");
  active_backend().affine(m, n, k, x, w, bias, y);
}

/// y[m,n] = x[m,k] · W[k,n] + bias[n] with W in the column-panel layout
/// of nn/packed.h (`wp` = PackedMatrix::data). Same per-element order as
/// affine(), so the result is bitwise equal to affine() on the row-major W.
inline void packed_affine(Index m, Index n, Index k, const float* x,
                          const float* wp, const float* bias, float* y) {
  dcheck_gemm_args(m, n, k, x, wp, y);
  PPG_DCHECK(bias != nullptr || n == 0,
             "packed_affine: null bias with n > 0");
  active_backend().packed_affine(m, n, k, x, wp, bias, y);
}

/// y[r,d] = layernorm(x[r,d]) * gain[d] + bias[d], eps 1e-5 (forward only;
/// the autograd layernorm in graph.cpp keeps its own fused form because it
/// must also save xhat/rstd for backward).
inline void layernorm_rows(Index rows, Index d, const float* x,
                           const float* gain, const float* bias, float* y) {
  PPG_DCHECK(rows >= 0 && d >= 0, "layernorm_rows: negative extent");
  PPG_DCHECK((x != nullptr && y != nullptr) || rows * d == 0,
             "layernorm_rows: null buffer");
  PPG_DCHECK((gain != nullptr && bias != nullptr) || d == 0,
             "layernorm_rows: null gain/bias");
  active_backend().layernorm_rows(rows, d, x, gain, bias, y);
}

/// y[r,n] = softmax(x[r,n]) per row (max-subtracted, eps-free).
inline void softmax_rows(Index rows, Index n, const float* x, float* y) {
  PPG_DCHECK(rows >= 0 && n >= 0, "softmax_rows: negative extent");
  PPG_DCHECK((x != nullptr && y != nullptr) || rows * n == 0,
             "softmax_rows: null buffer");
  active_backend().softmax_rows(rows, n, x, y);
}

/// Per-row absmax int8 quantization of x[rows,k] into q[rows,k_pad]
/// (zero-padded) + per-row dequant scales. See quant.h for the scheme.
inline void quantize_rows(Index rows, Index k, Index k_pad, const float* x,
                          std::int8_t* q, float* scale) {
  PPG_DCHECK(rows >= 0 && k >= 0 && k_pad >= k, "quantize_rows: bad extents");
  PPG_DCHECK(k_pad % 32 == 0, "quantize_rows: k_pad not a multiple of 32");
  active_backend().quantize_rows(rows, k, k_pad, x, q, scale);
}

/// y[m,n] = dequant(qx[m,k_pad] · qw[n,k_pad]ᵀ) + bias[n]; int32-exact
/// dot products, so bitwise identical across backends. bias is required.
inline void qaffine(Index m, Index n, Index k_pad, const std::int8_t* qx,
                    const float* sx, const std::int8_t* qw, const float* sw,
                    const float* bias, float* y) {
  PPG_DCHECK(m >= 0 && n >= 0 && k_pad >= 0 && k_pad % 32 == 0,
             "qaffine: bad extents");
  PPG_DCHECK(bias != nullptr || n == 0, "qaffine: null bias with n > 0");
  active_backend().qaffine(m, n, k_pad, qx, sx, qw, sw, bias, y);
}

}  // namespace ppg::nn::kernels
