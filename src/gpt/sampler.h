// Batched autoregressive password sampling on top of InferenceSession.
//
// One decode loop serves every sampled path in the repo: sample_rows()
// draws each session row's tokens until it finishes and retires it at
// once, and its callers only say where rows start (InferenceSession::
// prefill) and what to do with a finished row. The schemes it covers:
//  * PagPassGPT pattern-guided: prefix = <BOS> pattern <SEP>, no mask;
//  * PagPassGPT free-running:   prefix = <BOS>, no mask (the model emits
//    pattern, <SEP>, password, <EOS> on its own — paper §IV-D);
//  * PassGPT guided filtering:  prefix = <BOS>, mask = pattern filter that
//    zeroes tokens violating the target pattern at each step (§I-A1);
//  * D&C-GEN leaf tasks:        prefix = task prefix, mask = pattern filter
//    from the task's pattern suffix;
//  * served requests:           one row per requested guess, each with its
//    own prefix, mask and RNG stream (src/serve).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpt/infer.h"

namespace ppg::gpt {

/// Sampling knobs.
struct SampleOptions {
  float temperature = 1.0f;
  /// Keep only the k most likely tokens (0 = disabled).
  int top_k = 0;
  /// Nucleus sampling mass (1.0 = disabled).
  double top_p = 1.0;
  /// Sequences decoded per InferenceSession batch (sample_passwords).
  Index batch_size = 64;
  /// Give up after count*max_attempt_factor sequences when the model keeps
  /// producing undecodable output (unfinished / malformed rules).
  int max_attempt_factor = 4;
  /// Numeric substrate for the decoding session: kFp32 (reference) or
  /// kInt8 (quantized projections — faster, bounded logits error; see
  /// infer.h). Sampled guesses differ between the two, so the precision
  /// participates in D&C-GEN's journal fingerprint.
  Precision precision = Precision::kFp32;
};

/// Diagnostics of one sampling run.
struct SampleStats {
  std::size_t sequences_run = 0;  ///< total sequences started
  std::size_t invalid = 0;        ///< undecodable or unterminated
  /// Prefix positions fed through step() while priming batches.
  std::size_t prefill_tokens = 0;
  /// Prefix positions skipped by resuming from a cached KvState.
  std::size_t prefill_saved = 0;
};

/// Hook applied to each active sequence's raw logits before sampling;
/// `step` counts tokens generated after the prefix (0-based). Set a logit
/// to a very negative value (e.g. -1e30f) to forbid a token.
using LogitMask = std::function<void(Index step, std::span<float> logits)>;

/// How sample_rows() draws one row's tokens.
struct SampleRow {
  const LogitMask* mask = nullptr;  ///< null or empty: unmasked
  Rng* rng = nullptr;  ///< may be shared: rows draw in index order per step
};

/// Called once per row as it finishes, with the tokens it generated (ending
/// in <EOS> when it drew one). The span is valid only during the call.
using RowDone = std::function<void(std::size_t row, std::span<const int>)>;

/// The decode loop: samples every session row from its current logits
/// (e.g. after InferenceSession::prefill) until it draws <EOS>, has every
/// token masked out, or fills the context window. Each step visits the
/// unfinished rows in index order — mask with the row's step count, draw —
/// then feeds the drawn tokens in one session step, so rows sharing one Rng
/// draw from it step by step, rows by index. A finished row is handed to
/// `done` at once and sits out every later step.
void sample_rows(InferenceSession& session, std::span<const SampleRow> rows,
                 const SampleOptions& opts, const RowDone& done);

/// Generates `count` decoded passwords continuing `prefix`. Returned
/// strings may repeat — deduplication is the caller's concern (that is the
/// paper's repeat-rate phenomenon). Undecodable sequences are replaced by
/// fresh draws until `count` is reached or the attempt budget is exhausted.
///
/// When `resume` covers a leading part of `prefix` (resume->len <=
/// prefix.size()), every batch restores those positions from the snapshot
/// and primes only the remainder — bitwise identical to priming the whole
/// prefix (see kv_cache.h), just cheaper. A deeper snapshot throws
/// std::invalid_argument. The snapshot must stay alive (e.g. a pinned
/// KvTrieCache::Handle) for the duration of the call.
std::vector<std::string> sample_passwords(const GptModel& model,
                                          std::span<const int> prefix,
                                          std::size_t count, Rng& rng,
                                          const SampleOptions& opts = {},
                                          const LogitMask& mask = nullptr,
                                          SampleStats* stats = nullptr,
                                          const KvState* resume = nullptr);

/// Samples a token id from raw logits under the given options.
int sample_from_logits(std::span<const float> logits, Rng& rng,
                       const SampleOptions& opts);

}  // namespace ppg::gpt
