// Runtime-dispatched SIMD kernel backends (DESIGN.md §15).
//
// Every float kernel in nn/kernels.h routes through one KernelBackend
// function table. Three tables exist: a scalar oracle, an AVX2 table and
// an AVX-512 table (x86-64 builds only; other targets get scalar alone).
// The active table is resolved once, lazily: the PPG_NN_BACKEND
// environment variable ("scalar" | "avx2" | "avx512") wins when set,
// otherwise cpuid picks the widest table the running CPU supports.
// `ppg_serve --nn-backend` and tests override it via set_backend().
//
// The backend choice is NOT allowed to change results: every fp32 kernel
// follows one canonical accumulation contract (fused multiply-adds in a
// fixed per-element order; reductions decompose into eight accumulation
// lanes combined by a fixed tree — see kernels_impl.h), so all backends
// produce bitwise identical output for identical input. The int8 path is
// integer-exact and therefore trivially backend-invariant. The
// cross-backend differential harness (tests/kernel_backend_test.cpp)
// pins both properties; because of them, dispatch is free to follow the
// hardware without entering any reproducibility fingerprint.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ppg::nn {

using Index = std::int64_t;

enum class BackendKind : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// One backend's kernel entry points. All pointers are always non-null.
/// Shapes/layouts match the wrappers in nn/kernels.h, which own the
/// argument DCHECKs; these raw entries assume validated arguments.
struct KernelBackend {
  BackendKind kind;
  const char* name;
  // fp32 GEMM family (C += ..., row-major, contiguous).
  void (*gemm_nn)(Index m, Index n, Index k, const float* a, const float* b,
                  float* c);
  void (*gemm_nt)(Index m, Index n, Index k, const float* a, const float* b,
                  float* c);
  void (*gemm_tn)(Index m, Index n, Index k, const float* a, const float* b,
                  float* c);
  // y[m,n] = x[m,k]·W[k,n] + bias[n] (no accumulate).
  void (*affine)(Index m, Index n, Index k, const float* x, const float* w,
                 const float* bias, float* y);
  // The same product with W in the column-panel layout of nn/packed.h;
  // bitwise equal to affine on the row-major W.
  void (*packed_affine)(Index m, Index n, Index k, const float* x,
                        const float* wp, const float* bias, float* y);
  // Fused row ops.
  void (*layernorm_rows)(Index rows, Index d, const float* x,
                         const float* gain, const float* bias, float* y);
  void (*softmax_rows)(Index rows, Index n, const float* x, float* y);
  // int8 path (per-row absmax, see nn/quant.h).
  void (*quantize_rows)(Index rows, Index k, Index k_pad, const float* x,
                        std::int8_t* q, float* scale);
  void (*qaffine)(Index m, Index n, Index k_pad, const std::int8_t* qx,
                  const float* sx, const std::int8_t* qw, const float* sw,
                  const float* bias, float* y);
};

/// The active table. First call resolves PPG_NN_BACKEND / cpuid; a bad
/// PPG_NN_BACKEND value (unknown name, or a backend this CPU lacks)
/// throws std::invalid_argument from that first call.
const KernelBackend& active_backend();

/// Forces the active backend. Throws std::invalid_argument when `kind`
/// is not available (not compiled in, or missing CPU support). Intended
/// for startup flags and tests; do not race it against in-flight kernels.
void set_backend(BackendKind kind);

/// Whether `kind` was compiled in AND the running CPU supports it.
bool backend_available(BackendKind kind) noexcept;

/// Every available backend, widest last (kScalar is always present).
std::vector<BackendKind> available_backends();

const char* backend_name(BackendKind kind) noexcept;

/// "scalar" | "avx2" | "avx512" -> kind; anything else throws
/// std::invalid_argument naming the valid spellings.
BackendKind parse_backend(std::string_view name);

/// RAII backend override for tests: set on construction, restore the
/// previously active table on destruction.
class ScopedBackend {
 public:
  explicit ScopedBackend(BackendKind kind)
      : previous_(active_backend().kind) {
    set_backend(kind);
  }
  ~ScopedBackend() { set_backend(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  BackendKind previous_;
};

}  // namespace ppg::nn
