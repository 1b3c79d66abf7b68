// Best-first ordered password enumeration (SOPG-style search decoding).
//
// Sampling draws guesses i.i.d. from the model, so the k-th guess is only
// as good as sampling luck and duplicate draws allow. This engine instead
// *searches* the model's distribution: a frontier of partial token
// sequences keyed by cumulative log-probability, expanded best-first.
// Because extending a sequence can only lower its log-probability
// (log-probs are <= 0), the frontier key is an admissible bound on every
// completion below a node — so when an <EOS>-terminated node is the best
// in the frontier it is *provably* the most likely remaining guess, and
// the enumerator emits guesses in exactly descending model probability
// with no duplicates.
//
// Anytime contract: advance() yields complete guesses one at a time,
// best-first. Stopping early (by count, by expansion budget, by deadline)
// always leaves a prefix of the ideal descending-probability ranking;
// truncation caused by the frontier budget is recorded as an admissible
// lower bound (stats().truncated_log_prob) — guesses with log-prob at or
// below that bound may be missing, anything above it is guaranteed
// complete.
//
// Step-driven: the enumerator owns no InferenceSession. Between guesses,
// advance() hands back the one expansion the search needs next — a session
// row to bring to the end of the parent's sequence (a gpt::PrefillRow
// holding the parent's tokens and pinned state) and the token to step on
// it — and complete() takes that row back, snapshots it and pushes the
// children scored on its logits. An Expander runs the pending
// expansions of many enumerators as one InferenceSession::prefill and one
// step. No row's floats depend on which rows share its step (kv_cache.h),
// so an enumerator's guesses, log-prob bits and stats are the same stepped
// alone or beside others; next(session) steps one enumerator alone.
//
// KV-cache integration: every expanded node keeps one parent record — its
// token sequence and one pin (KvTrieCache::Handle) on its snapshot — that
// all of its frontier children share, so expanding a child costs one
// resume + one step and no prefix re-prime, and pushing a child costs no
// trie lookup and no allocation. A child's snapshot is stored under its
// parent's pinned node, one trie walk whose insert returns the child's
// pin. Snapshots carry no logits: an expansion resumes its parent only to
// step a token, and the root's logits are read at once. Frontier overflow
// is resolved by dropping the *lowest-priority* nodes; a record's pin is
// released when its last child leaves the frontier, which lets the trie's
// LRU eviction reclaim bytes.
//
// Determinism: no RNG. Ties in cumulative log-prob are broken by
// lexicographically smaller token sequence, making the emission order a
// strict total order — bitwise reproducible across runs and independent of
// any caller thread count or of which enumerators share a step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gpt/infer.h"
#include "gpt/kv_cache.h"
#include "gpt/sampler.h"

namespace ppg::search {

using gpt::Index;

/// Search budgets and stop conditions. D&C-GEN leaves and served requests
/// keep the default frontier cap; tests shrink max_nodes and cache_bytes to
/// reach frontier overflow and re-priming at unit scale.
struct OrderedOptions {
  /// Frontier cap: when the heap exceeds this, lowest-priority nodes are
  /// dropped (recorded in stats as truncation).
  std::size_t max_nodes = 1u << 16;
  /// Byte budget for the enumerator's internal KV trie. Every insert evicts
  /// unpinned states (the new one included) until the trie fits, so the
  /// budget is never exceeded and never drops a frontier node; an evicted
  /// parent is re-primed from its deepest cached ancestor, which costs
  /// prefill work and changes no guess.
  std::size_t cache_bytes = 64ull << 20;
  /// Stop after this many emitted guesses (0 = unlimited).
  std::size_t max_guesses = 0;
  /// Stop after this many node expansions (0 = unlimited). A weakly
  /// trained (near-uniform) model can force best-first search to sweep
  /// nearly its whole tree before surfacing the k-th guess; this cap
  /// bounds that work *deterministically*, where a wall-clock deadline
  /// would not be reproducible. Emitted guesses stay an exact prefix of
  /// the ideal ranking; the stop is recorded like a truncation
  /// (stats().expansion_capped, truncated_log_prob).
  std::size_t max_expansions = 0;
  /// Wall-clock budget measured from the first advance() call (0 = none).
  double deadline_ms = 0.0;
};

/// Diagnostics of one enumeration. Monotone over the run; read any time.
struct OrderedStats {
  std::size_t nodes_expanded = 0;  ///< forward steps (one per expansion)
  std::size_t emitted = 0;         ///< complete guesses yielded
  std::size_t invalid = 0;         ///< <EOS> sequences that failed decode
  std::size_t heap_peak = 0;       ///< largest frontier seen
  std::size_t truncated = 0;       ///< frontier nodes dropped by budgets
  /// Admissible bound: the best log-prob ever dropped. Guesses scoring
  /// <= this may be missing from the output; above it the ranking is
  /// complete. -inf when no truncation happened.
  double truncated_log_prob = -std::numeric_limits<double>::infinity();
  bool exhausted = false;     ///< frontier emptied
  bool deadline_hit = false;  ///< stopped by deadline_ms
  bool expansion_capped = false;  ///< stopped by max_expansions
  /// Prefix positions the caller's prefill recomputes: root priming plus
  /// re-priming after budget evictions. Excludes each expansion's single
  /// scoring step, which is paid regardless of caching.
  std::size_t prefill_tokens = 0;
  /// Prefix positions restored from KV snapshots instead of recomputed.
  std::size_t prefill_saved = 0;
};

/// One emitted guess with its exact model score: log P(sequence after the
/// request prefix), renormalised over the allowed tokens at every position
/// (gpt::masked_log_probs).
struct ScoredGuess {
  std::string password;
  double log_prob = 0.0;
};

/// The work one expansion needs from its caller: bring a session row to the
/// end of `row` (InferenceSession::prefill), step `token` on it unless it
/// is kIdle (the root, whose row is the whole prefix), then hand the row to
/// OrderedEnumerator::complete(). `row` points into the enumerator and its
/// trie, and stays valid until then.
struct Expansion {
  gpt::PrefillRow row;
  int token = gpt::InferenceSession::kIdle;
};

/// What OrderedEnumerator::advance() found.
struct Advance {
  enum class Kind {
    kGuess,   ///< `guess` is the next-best complete guess
    kExpand,  ///< run `expansion`, then complete() it
    kDone,    ///< enumeration is over (see stats())
  };
  Kind kind = Kind::kDone;
  ScoredGuess guess;
  Expansion expansion;
};

/// Best-first enumerator over one request prefix. Yields complete guesses
/// one at a time in strictly descending (log_prob, lexicographic) order.
///
/// `prefix` is the full token prefix (e.g. <BOS> pattern <SEP> or a
/// D&C-GEN task prefix) and must be non-empty and within the model
/// context. `allowed` lists the tokens each step may take (step counts
/// tokens generated after the prefix; empty: every token), and an
/// expansion scores only those. When `resume` covers a leading part
/// of the prefix (resume->len() <= prefix.size()), the root expansion
/// restores those positions instead of re-priming them; a deeper snapshot,
/// or one covering the whole prefix without logits, makes the first
/// advance() throw std::invalid_argument. The snapshot must stay alive
/// until the root expansion is complete()d.
///
/// The model must outlive the enumerator. Not thread-safe: one thread
/// drives an enumerator, and a session steps the rows of one thread.
class OrderedEnumerator {
 public:
  OrderedEnumerator(const gpt::GptModel& model, std::vector<int> prefix,
                    OrderedOptions opts = {}, gpt::AllowedTokens allowed = {},
                    const gpt::KvState* resume = nullptr);

  /// The next-best complete guess, the end of the enumeration (budget stop,
  /// deadline, or frontier exhausted — see stats()), or the expansion the
  /// search needs before it can tell. After kExpand, complete() must run
  /// before the next advance(). Once it returns kDone it always will.
  Advance advance();

  /// Finishes the expansion the last advance() returned. Row `row` of
  /// `session` must hold the expansion's row prefilled and its token
  /// stepped: it is snapshotted into the trie, and its logits score the
  /// children pushed onto the frontier.
  void complete(const gpt::InferenceSession& session, gpt::Index row);

  /// Drives this enumerator alone, one expansion per prefill and step on
  /// `session`: the next-best complete guess, or std::nullopt once
  /// enumeration is over. Once it returns nullopt it always will.
  std::optional<ScoredGuess> next(gpt::InferenceSession& session);

  const OrderedStats& stats() const noexcept { return stats_; }

  /// The internal KV trie (pin/byte accounting for tests).
  const gpt::KvTrieCache& cache() const noexcept { return cache_; }

 private:
  /// A frontier entry: cumulative log-prob of the tokens after the prefix,
  /// the last token, and the parent record holding everything before it.
  /// Full sequences are built only when a node is popped.
  struct Node {
    double logp = 0.0;
    std::uint32_t parent = 0;  ///< index into parents_
    int token = 0;
  };

  /// One expanded node, shared by all of its children in the frontier:
  /// its full token sequence and a pin on the cached snapshot after it
  /// (empty when the budget evicted the snapshot as it was stored —
  /// expansion then falls back to find_longest + re-prime, bitwise
  /// identical by the kv_cache determinism contract). Freed, pin released,
  /// when its last child leaves the frontier.
  struct Parent {
    std::vector<int> seq;
    gpt::KvTrieCache::Handle pin;
    /// Frontier nodes referencing it (the node being expanded included),
    /// plus one while push_children runs.
    std::uint32_t children = 0;
  };

  /// Which expansion the caller holds between advance() and complete().
  enum class Pending { kNone, kRoot, kNode };

  /// Strict-weak "worse-than" order for the frontier: lower logp is worse;
  /// equal logp breaks toward the lexicographically smaller full sequence.
  /// No two frontier nodes share a sequence, so this is a total order and
  /// the pop order is deterministic.
  bool worse(const Node& a, const Node& b) const noexcept;
  /// worse() as a heap comparator.
  auto by_worse() const noexcept {
    return [this](const Node& a, const Node& b) { return worse(a, b); };
  }
  /// Full sequence of a < full sequence of b, lexicographically, compared
  /// through the parent records without building either.
  bool sequence_less(const Node& a, const Node& b) const noexcept;

  /// Hands out the expansion of `row` (then `token`), and adds the
  /// positions its prefill will restore or recompute to the ledger.
  Advance expansion(Pending kind, std::span<const int> row,
                    const gpt::KvState* state, int token);
  /// Scores the allowed tokens after `parent`'s sequence on `logits`,
  /// pushes every surviving child, then enforces the frontier budget.
  void push_children(std::uint32_t parent, double logp,
                     std::span<const float> logits);
  void enforce_budgets();
  void push_node(Node n);
  Node pop_node();
  /// A record holding `seq`, reusing a freed one when there is one.
  std::uint32_t new_parent(std::span<const int> seq);
  /// Drops one reference to record `id`; the last one releases its pin
  /// and frees it for reuse.
  void release_parent(std::uint32_t id);

  const gpt::GptModel* model_;
  std::vector<int> prefix_;
  OrderedOptions opts_;
  gpt::AllowedTokens allowed_;
  const gpt::KvState* resume_;  ///< cleared when the root completes

  // Declared before parents_ and hit_ so outstanding pins release first:
  // the trie asserts no live handles at destruction.
  gpt::KvTrieCache cache_;
  std::vector<Parent> parents_;
  std::vector<std::uint32_t> free_parents_;  ///< reusable parents_ slots
  std::vector<Node> frontier_;  ///< min-max heap ordered by worse()
  std::vector<double> log_probs_;  ///< scores of the current allowed ids
  std::vector<int> seq_;  ///< full sequence of the node being expanded
  OrderedStats stats_;
  Pending pending_ = Pending::kNone;
  Node expanding_;  ///< the popped node a kNode expansion is for
  /// Pins the deepest cached ancestor a kNode expansion resumes from when
  /// its parent's snapshot was evicted; released at complete().
  gpt::KvTrieCache::Handle hit_;
  bool primed_ = false;
  bool done_ = false;
  /// Absolute, set at the first advance(); 0 = none.
  std::int64_t deadline_us_ = 0;
};

/// Runs the expansions of many enumerators together: each run() is one
/// InferenceSession::prefill over every queued row — restoring each
/// parent's state and re-priming any that was evicted — and one step
/// feeding every row its token, after which each enumerator completes on
/// its own row. Keeps its buffers across rounds.
class Expander {
 public:
  /// Queues the expansion `x` that `e.advance()` just returned.
  void add(OrderedEnumerator& e, const Expansion& x);
  /// Runs the queued expansions on `session`, which it resets to one row
  /// per expansion, and empties the queue.
  void run(gpt::InferenceSession& session);
  bool empty() const noexcept { return enumerators_.empty(); }

 private:
  std::vector<OrderedEnumerator*> enumerators_;
  std::vector<gpt::PrefillRow> rows_;
  std::vector<int> tokens_;
};

}  // namespace ppg::search
