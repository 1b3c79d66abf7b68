// D&C-GEN: divide-and-conquer password generation (paper §III-C, Alg. 1).
//
// The guessing task of N passwords is split by the training-set pattern
// distribution into per-pattern tasks (N_Pi = N · Pr(Pi)); any task bigger
// than the threshold T is recursively divided by the model's next-token
// distribution — filtered to the candidate tokens the pattern permits at
// that position (52 letters / 10 digits / 32 specials) — into subtasks with
// one-character-longer prefixes. Tasks at or below T are executed as leaf
// generations. Because sibling prefixes differ and an ancestor is never
// also a leaf, leaf prefixes are prefix-free, so (with conformance masking)
// no two distinct tasks can emit the same password — duplicates only arise
// inside a single leaf (§III-C2); tests/dcgen_test.cpp asserts this.
//
// All three §III-C3 optimisations are implemented:
//  1. T sized to the generation batch the backend executes in parallel;
//  2. per-task counts capped by the remaining pattern capacity
//     (52^letters · 10^digits · 32^specials of the unfilled suffix);
//  3. divisions are batched: up to 64 tasks of one prefix length per model
//     call, shortest first, each row resuming from its own deepest cached
//     ancestor (one InferenceSession::prefill); and prefixes stay in token
//     form end-to-end (no re-encoding).
//
// Fixed rules rather than knobs: every pattern of the distribution is
// divided; a subtask expecting fewer than one password is deleted
// ("generation number less than 1", Fig. 7); every leaf generates under
// its pattern's conformance mask; and the whole run decodes in fp32.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpt/model.h"
#include "gpt/sampler.h"
#include "pcfg/pcfg_model.h"

namespace ppg::core {

/// How a leaf task turns its guess quota into passwords.
enum class LeafMode {
  /// Autoregressive sampling (paper §III-C): i.i.d. draws, may repeat.
  kSampled,
  /// Best-first ordered enumeration (src/search): the leaf's quota is
  /// filled with its top-n most likely passwords, descending, no
  /// duplicates. Deterministic — the run seed does not affect leaf output.
  kOrdered,
};

/// D&C-GEN knobs.
struct DcGenConfig {
  /// N: total number of guesses to apportion.
  double total = 100000;
  /// T: division threshold (paper used 4000 = one GPU batch; our CPU
  /// default matches the sampler batch). Degenerate boundary: with T at or
  /// below 1, a divided task's children (mass ~n/52 each) almost all fall
  /// below one expected password and are deleted per the paper's rule, so
  /// the run terminates quickly emitting mostly forced outputs.
  double threshold = 64;
  /// Leaf-generation sampling options.
  gpt::SampleOptions sample;
  /// Leaf strategy. kOrdered routes every leaf through an
  /// OrderedEnumerator capped at the leaf's quota; output order within a
  /// leaf becomes descending model probability.
  LeafMode leaf_mode = LeafMode::kSampled;
  /// Per-leaf expansion budget (0 = unlimited). Best-first search under a
  /// near-uniform model can sweep nearly the whole pattern tree before
  /// surfacing a leaf's quota; the cap bounds each leaf's forward passes
  /// deterministically (a deadline would not be reproducible). Capped
  /// leaves emit fewer guesses than their quota — an exact prefix of the
  /// leaf's ideal ranking — so the cap is part of the journal fingerprint.
  std::size_t ordered_max_expansions = std::size_t(1) << 14;
  /// Worker threads for leaf execution (§III-C3 optimisation 3: "tasks in
  /// the list can be executed concurrently"). Results are identical for
  /// any thread count: each leaf draws from its own seeded RNG and outputs
  /// are concatenated in task order.
  int threads = 1;
  /// Byte budget of the per-run prefix-trie KV cache (src/gpt/kv_cache.h;
  /// 0 = no cache): division batches and leaf generations resume from the
  /// deepest cached ancestor prefix instead of re-priming from <BOS>. LRU
  /// eviction of unpinned nodes; a tiny budget degrades hit depth, never
  /// correctness. Guess output is bitwise identical for any budget and any
  /// thread count (tests/kv_cache_test.cpp); only the prefill work changes.
  std::size_t kv_cache_bytes = std::size_t(256) << 20;
  /// Directory for the resumable job journal (empty = off). With a journal,
  /// the run saves its division plan once (the division phase is
  /// deterministic) and appends a fsynced ledger record per completed leaf.
  /// A killed run relaunched with the same journal_dir skips the division,
  /// skips completed leaves, re-runs only unfinished ones (each leaf has an
  /// independent RNG), and returns byte-identical output — no guess is ever
  /// duplicated or dropped. A journal whose config/model fingerprint does
  /// not match the current run is discarded, never trusted.
  std::string journal_dir;
};

/// Run diagnostics.
struct DcGenStats {
  std::size_t divisions = 0;    ///< tasks expanded into children
  std::size_t model_calls = 0;  ///< batched division prefills
  std::size_t leaves = 0;       ///< executed leaf tasks
  std::size_t dropped = 0;      ///< subtasks below one expected password
  std::size_t forced = 0;       ///< fully-determined prefixes emitted directly
  double capacity_capped = 0;   ///< guesses saved by the capacity cap
  /// Prefix positions, summed over rows, that division priming and leaf
  /// prefill did not restore from a snapshot (what the KV cache exists to
  /// avoid; model work is infer.tokens, where a leaf's rows step once).
  std::size_t prefill_tokens = 0;
  /// Prefix positions restored from cached KV states instead of computed.
  std::size_t prefill_saved = 0;
  /// Leaves restored from the journal ledger instead of regenerated.
  std::size_t resumed_leaves = 0;
  /// True when the division phase was skipped via a journaled plan.
  bool resumed_plan = false;
  /// Passwords in the returned vector (forced + all leaf outputs).
  std::size_t emitted = 0;
  /// Distinct passwords among them. Sampled leaves repeat (the paper's
  /// repeat-rate phenomenon), so unique_emitted < emitted is normal there;
  /// ordered leaves emit no duplicates by construction, making this the
  /// honest denominator for hit-rate-per-guess comparisons.
  std::size_t unique_emitted = 0;
};

/// Generates ~cfg.total passwords with the divide-and-conquer scheme.
/// Deterministic in (model, patterns, cfg, seed). The result may contain
/// duplicates only within a single leaf's output.
std::vector<std::string> dc_generate(const gpt::GptModel& model,
                                     const pcfg::PatternDistribution& patterns,
                                     const DcGenConfig& cfg,
                                     std::uint64_t seed,
                                     DcGenStats* stats = nullptr);

}  // namespace ppg::core
