// Batched autoregressive password sampling on top of InferenceSession.
//
// One decode loop serves every sampled path in the repo: sample_rows()
// draws each session row's tokens until it finishes and retires it at
// once, and its callers only say where rows start (InferenceSession::
// prefill) and which tokens each row may draw at each step (AllowedTokens).
// The schemes it covers:
//  * PagPassGPT pattern-guided: prefix = <BOS> pattern <SEP>, no table;
//  * PagPassGPT free-running:   prefix = <BOS>, no table (the model emits
//    pattern, <SEP>, password, <EOS> on its own — paper §IV-D);
//  * PassGPT guided filtering:  prefix = <BOS>, table = the target
//    pattern's character class at each step (§I-A1);
//  * D&C-GEN leaf tasks:        prefix = task prefix, table = the classes of
//    the task's pattern suffix;
//  * served requests:           one row per requested guess, each with its
//    own prefix, table and RNG stream (src/serve).
// Every draw follows the model's softmax over the allowed ids as it is,
// the paper's generation rule.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpt/infer.h"

namespace ppg::gpt {

/// Options of sample_passwords, which decodes on an fp32 session.
struct SampleOptions {
  /// Sequences decoded per InferenceSession batch (sample_passwords).
  Index batch_size = 64;
};

/// Diagnostics of one sampling run.
struct SampleStats {
  std::size_t sequences_run = 0;  ///< total sequences started
  std::size_t invalid = 0;        ///< undecodable or unterminated
  /// Prefix positions, summed over rows, a snapshot did not restore (model
  /// work is infer.tokens: a batch's identical rows step once).
  std::size_t prefill_tokens = 0;
  /// Prefix positions skipped by resuming from a cached KvState.
  std::size_t prefill_saved = 0;
};

/// Pattern conformance as data: the token ids a sequence may take at each
/// step after its prefix (step 0 is the first generated token). Each entry
/// is an ascending list, in practice a span into one of the shared
/// per-class lists of core/masks.h, and the last entry also covers every
/// later step. An empty table allows every token at every step. Sampling,
/// ordered search and D&C-GEN division consider only the listed ids, in
/// order.
struct AllowedTokens {
  std::vector<std::span<const int>> steps;

  /// Every id of the tokenizer's vocabulary, ascending: the list of an
  /// unrestricted step.
  static std::span<const int> every();

  /// The ids allowed at `step` (every() for an empty table).
  std::span<const int> at(Index step) const {
    if (steps.empty()) return every();
    return steps[std::min(static_cast<std::size_t>(step), steps.size() - 1)];
  }
};

/// How sample_rows() draws one row's tokens.
struct SampleRow {
  /// Null, like an empty table, allows every token. Must outlive the call.
  const AllowedTokens* allowed = nullptr;
  Rng* rng = nullptr;  ///< may be shared: rows draw in index order per step
};

/// Called once per row as it finishes, with the tokens it generated (ending
/// in <EOS> when it drew one). The span is valid only during the call.
using RowDone = std::function<void(std::size_t row, std::span<const int>)>;

/// The decode loop: samples every session row from its current logits
/// (e.g. after InferenceSession::prefill) until it draws <EOS>, is allowed
/// no token, or fills the context window. Each step visits the unfinished
/// rows in index order — draw among the ids its table allows at the row's
/// step count — then feeds the drawn tokens in one session step, so rows
/// sharing one Rng draw from it step by step, rows by index. A finished row
/// is handed to `done` at once and sits out every later step.
void sample_rows(InferenceSession& session, std::span<const SampleRow> rows,
                 const RowDone& done);

/// Generates `count` decoded passwords continuing `prefix`. Returned
/// strings may repeat — deduplication is the caller's concern (that is the
/// paper's repeat-rate phenomenon). Undecodable sequences are replaced by
/// fresh draws until `count` is reached or 4·count sequences have run.
///
/// When `resume` covers a leading part of `prefix` (resume->len() <=
/// prefix.size()), every batch restores those positions from the snapshot
/// and primes only the remainder — bitwise identical to priming the whole
/// prefix (see kv_cache.h), just cheaper. A deeper snapshot throws
/// std::invalid_argument. The snapshot must stay alive (e.g. a pinned
/// KvTrieCache::Handle) for the duration of the call.
std::vector<std::string> sample_passwords(const GptModel& model,
                                          std::span<const int> prefix,
                                          std::size_t count, Rng& rng,
                                          const SampleOptions& opts = {},
                                          const AllowedTokens& allowed = {},
                                          SampleStats* stats = nullptr,
                                          const KvState* resume = nullptr);

/// Samples a token id among the `allowed` ids (ascending) of a raw logit
/// row, with probability proportional to exp(logit); -1 when the list is
/// empty. Other logits are never read.
int sample_from_logits(std::span<const float> logits,
                       std::span<const int> allowed, Rng& rng);

/// Log-softmax of a raw logit row renormalised over the `allowed` ids
/// (ascending): out[k] = log P(allowed[k] | allowed), max-subtracted and
/// summed in double, so an unlisted id is never scored. An empty list
/// leaves `out` empty. Ordered search scores children with it, its
/// brute-force oracle re-scores them bitwise, and sequence_log_prob uses it
/// over AllowedTokens::every().
void masked_log_probs(std::span<const float> logits,
                      std::span<const int> allowed, std::vector<double>& out);

}  // namespace ppg::gpt
