// Backend resolution: which KernelBackend table the process dispatches
// through (see backend.h for the contract that makes the choice
// output-invariant in fp32 and int8 alike).
#include "nn/backend.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "common/logging.h"
#include "nn/kernels_impl.h"

namespace ppg::nn {

namespace {

namespace kd = kernels_detail;

constexpr KernelBackend kScalarTable = {
    BackendKind::kScalar,   "scalar",
    kd::scalar::gemm_nn,    kd::scalar::gemm_nt,
    kd::scalar::gemm_tn,    kd::scalar::affine,
    kd::scalar::packed_affine,
    kd::scalar::layernorm_rows, kd::scalar::softmax_rows,
    kd::scalar::quantize_rows,  kd::scalar::qaffine,
};

#if defined(PPG_X86_BACKENDS)
constexpr KernelBackend kAvx2Table = {
    BackendKind::kAvx2,   "avx2",
    kd::avx2::gemm_nn,    kd::avx2::gemm_nt,
    kd::avx2::gemm_tn,    kd::avx2::affine,
    kd::avx2::packed_affine,
    kd::avx2::layernorm_rows, kd::avx2::softmax_rows,
    kd::scalar::quantize_rows, kd::avx2::qaffine,
};

// gemm_nt / layernorm / softmax are reduction kernels: the AVX-512 table
// borrows their AVX2 implementations so the canonical 8-lane geometry
// never changes (kernels_impl.h).
constexpr KernelBackend kAvx512Table = {
    BackendKind::kAvx512, "avx512",
    kd::avx512::gemm_nn,  kd::avx2::gemm_nt,
    kd::avx512::gemm_tn,  kd::avx512::affine,
    kd::avx512::packed_affine,
    kd::avx2::layernorm_rows, kd::avx2::softmax_rows,
    kd::scalar::quantize_rows, kd::avx512::qaffine,
};
#endif

bool cpu_supports(BackendKind kind) noexcept {
#if defined(PPG_X86_BACKENDS)
  switch (kind) {
    case BackendKind::kScalar:
      return true;
    case BackendKind::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case BackendKind::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw");
  }
  return false;
#else
  return kind == BackendKind::kScalar;
#endif
}

const KernelBackend* table_for(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kScalar:
      return &kScalarTable;
#if defined(PPG_X86_BACKENDS)
    case BackendKind::kAvx2:
      return &kAvx2Table;
    case BackendKind::kAvx512:
      return &kAvx512Table;
#endif
    default:
      return nullptr;
  }
}

std::atomic<const KernelBackend*> g_active{nullptr};

/// First-use resolution: PPG_NN_BACKEND wins, else the widest table the
/// CPU supports. Throws on a bad env value — better a loud failure at
/// the first kernel call than silently serving from the wrong backend.
const KernelBackend& resolve() {
  const char* env = std::getenv("PPG_NN_BACKEND");
  BackendKind kind;
  if (env != nullptr && env[0] != '\0') {
    kind = parse_backend(env);
    if (!backend_available(kind))
      throw std::invalid_argument(
          std::string("PPG_NN_BACKEND=") + env +
          ": backend not available on this CPU/build");
  } else {
    kind = BackendKind::kScalar;
    if (backend_available(BackendKind::kAvx2)) kind = BackendKind::kAvx2;
    if (backend_available(BackendKind::kAvx512)) kind = BackendKind::kAvx512;
  }
  const KernelBackend* table = table_for(kind);
  const KernelBackend* expected = nullptr;
  // One racing winner; all candidates resolve to the same table, so a
  // lost race only wastes the cpuid probe.
  if (g_active.compare_exchange_strong(expected, table,
                                       std::memory_order_acq_rel))
    log_debug("nn: kernel backend %s (%s)", table->name,
              env != nullptr && env[0] != '\0' ? "PPG_NN_BACKEND" : "cpuid");
  return *g_active.load(std::memory_order_acquire);
}

}  // namespace

const KernelBackend& active_backend() {
  const KernelBackend* t = g_active.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  return resolve();
}

void set_backend(BackendKind kind) {
  if (!backend_available(kind))
    throw std::invalid_argument(
        std::string("set_backend: backend '") + backend_name(kind) +
        "' not available on this CPU/build");
  g_active.store(table_for(kind), std::memory_order_release);
}

bool backend_available(BackendKind kind) noexcept {
  return table_for(kind) != nullptr && cpu_supports(kind);
}

std::vector<BackendKind> available_backends() {
  std::vector<BackendKind> out;
  for (const BackendKind k :
       {BackendKind::kScalar, BackendKind::kAvx2, BackendKind::kAvx512})
    if (backend_available(k)) out.push_back(k);
  return out;
}

const char* backend_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kScalar:
      return "scalar";
    case BackendKind::kAvx2:
      return "avx2";
    case BackendKind::kAvx512:
      return "avx512";
  }
  return "?";
}

BackendKind parse_backend(std::string_view name) {
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "avx2") return BackendKind::kAvx2;
  if (name == "avx512") return BackendKind::kAvx512;
  throw std::invalid_argument("unknown kernel backend '" + std::string(name) +
                              "' (scalar|avx2|avx512)");
}

}  // namespace ppg::nn
