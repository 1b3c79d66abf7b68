// The benchmark's workloads. Each sets up, measures for Args::seconds,
// checks its outputs and returns what it measured. With Args::trace off a
// run measures the end-to-end metrics; with it on, the per-layer ones.
#pragma once

#include <string>

#include "gpt/model.h"
#include "harness.h"

namespace perfbench {

/// `trawl` (sampled leaves) and `ordered` (best-first leaves): D&C-GEN on
/// the pinned small PagPassGPT.
Result run_offline(const Args& args, bool ordered);

/// `serve`: open-loop Poisson arrivals into an in-process GuessService.
Result run_serve(const Args& args);

/// Trains the pinned model and saves it (and its `.patterns`) at `path`.
int prepare_model(const std::string& path);

/// GEMM FLOPs of one decoded token (one row of one step): qkv, proj, fc1
/// and fc2 in every block plus the LM head. Computed from the config shape,
/// not measured; attention scores are left out because they grow with the
/// position.
inline double gemm_flop_per_token(const ppg::gpt::Config& c) {
  const double d = double(c.d_model), ff = double(c.d_ff());
  return double(c.n_layers) * 2.0 * (4.0 * d * d + 2.0 * d * ff) +
         2.0 * d * double(c.vocab);
}

}  // namespace perfbench
