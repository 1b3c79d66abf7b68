// Prefix-trie KV cache: reuse attention states across prefix-related
// forward passes.
//
// Every consumer of InferenceSession — D&C-GEN's divider, its leaf
// generations, and the serve layer's request batches — primes sessions
// with token prefixes that are *extensions of prefixes already primed*:
// a division task's prefix is its parent's plus one token, a leaf's prefix
// is its parent division's plus one token, and repeated serve requests
// share their whole `<BOS> pattern <SEP>` prefix. Re-stepping the full
// prefix recomputes K/V an ancestor already produced. This store memoises
// them:
//
//  * KvState is one sequence's K/V blocks (KvBlock, attention.h) for
//    positions [0, len()) plus the logits after token len()-1 — everything
//    a session row needs to continue decoding as if it had stepped the
//    prefix itself (InferenceSession::resume, which prefill() applies to
//    each row at its own depth). Blocks are immutable once their step has
//    written them, so rows and states share them by reference and a child
//    state holds its parent's blocks plus one.
//  * KvTrieCache is a trie over token ids whose nodes own KvStates,
//    ref-counted by RAII Handles (a pinned node is never evicted) with
//    LRU eviction of unpinned nodes under a byte budget.
//
// Determinism contract: resuming from a cached KvState is bitwise
// identical to re-priming the same prefix, because per-sequence float op
// order is invariant to batch geometry (the decode projections,
// kernels.h packed_affine or int8's per-row quantize and qaffine, compute
// each output element in the same order whatever the row count;
// layernorm, attention and GELU are per-row). That holds for which rows
// share a step, their positions, and rows sitting a step out, so ragged
// batches decode each row exactly as it would run alone, and prefill()
// may step one of several identical rows and share its blocks with the
// rest. A cache hit therefore changes *where* the floats come from, never
// their values — the differential suite in tests/kv_cache_test.cpp locks this
// down across thread counts and eviction-forcing budgets, and
// tests/decode_golden_test.cpp pins the sampled outputs themselves.
//
// Thread safety: all member functions are safe to call concurrently; the
// store takes one mutex per operation (trivial next to a model forward).
// KvStates are immutable after insert and blocks after their step, so
// pinned readers and rows sharing blocks across threads need no lock (a
// block's reference count is atomic).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_annotations.h"
#include "gpt/attention.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

namespace ppg::gpt {

using nn::Index;

/// One sequence's KV snapshot: the blocks of positions [0, len()), shared
/// with the session row and any other state that holds them, plus the
/// next-token logits after token len()-1. Immutable once inside the cache.
struct KvState {
  std::vector<KvBlock> blocks;  ///< one per position, in order
  /// Floats per block, 2·n_layers·d_model of the model that wrote them.
  Index block_floats = 0;
  std::vector<float> logits;  ///< vocab, after token len()-1

  /// Positions covered.
  Index len() const noexcept { return static_cast<Index>(blocks.size()); }

  /// Payload size, the eviction budget's unit: every block the state holds
  /// plus its logits. States share blocks, so summed over the cache this
  /// is an upper bound on the resident bytes, not their count.
  std::size_t bytes() const noexcept;
};

/// Trie-of-token-ids store of KvStates with pin refcounts and LRU
/// eviction under a byte budget.
class KvTrieCache {
 public:
  /// `max_bytes` caps the resident payload: an insert evicts unpinned
  /// states, least recently used first and the new one included, until the
  /// total fits. Pinned nodes are never evicted, but a pin only holds a
  /// state that is already resident, so the total never exceeds the budget.
  explicit KvTrieCache(std::size_t max_bytes);
  ~KvTrieCache();

  KvTrieCache(const KvTrieCache&) = delete;
  KvTrieCache& operator=(const KvTrieCache&) = delete;

  class Handle;

  /// Exact-prefix lookup. An empty handle on miss.
  Handle find(std::span<const int> prefix);

  /// Deepest cached ancestor of `prefix` (including `prefix` itself).
  /// An empty handle when no prefix of it is cached.
  Handle find_longest(std::span<const int> prefix);

  /// Stores `state` under `prefix` (state.len() need not equal
  /// prefix.size(); D&C-GEN and serve always insert state.len() ==
  /// prefix.size()). First insert wins: re-inserting an existing prefix
  /// keeps the resident state (cached and recomputed states are bitwise
  /// equal by the determinism contract, so which copy survives is
  /// unobservable). May trigger eviction of other, unpinned nodes.
  void insert(std::span<const int> prefix, KvState state);

  /// Unpinned + pinned resident payload bytes.
  std::size_t bytes() const;
  /// Nodes currently holding a state.
  std::size_t nodes() const;
  /// Nodes currently pinned by live handles.
  std::size_t pinned_nodes() const;

  const std::size_t max_bytes;

  /// RAII pin on one cached node. While a handle is live its state is
  /// immutable and cannot be evicted; destruction (or release()) unpins
  /// and may trigger deferred eviction.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& o) noexcept : cache_(o.cache_), node_(o.node_) {
      o.cache_ = nullptr;
      o.node_ = nullptr;
    }
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        release();
        cache_ = o.cache_;
        node_ = o.node_;
        o.cache_ = nullptr;
        o.node_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { release(); }

    /// Drops the pin early. Idempotent.
    void release();

    explicit operator bool() const noexcept { return node_ != nullptr; }
    /// The pinned state; nullptr for an empty handle.
    const KvState* state() const noexcept;
    /// Positions the pinned state covers (0 for an empty handle).
    Index len() const noexcept;

   private:
    friend class KvTrieCache;
    Handle(KvTrieCache* cache, void* node) : cache_(cache), node_(node) {}
    KvTrieCache* cache_ = nullptr;
    void* node_ = nullptr;
  };

 private:
  struct Node;
  Node* walk_locked(std::span<const int> prefix, bool create) PPG_REQUIRES(mu_);
  Handle pin_locked(Node* n) PPG_REQUIRES(mu_);
  void lru_push_back_locked(Node* n) PPG_REQUIRES(mu_);
  void lru_detach_locked(Node* n) PPG_REQUIRES(mu_);
  void evict_over_budget_locked() PPG_REQUIRES(mu_);
  void evict_node_locked(Node* n) PPG_REQUIRES(mu_);

  mutable Mutex mu_;
  std::unique_ptr<Node> root_ PPG_GUARDED_BY(mu_);
  // Intrusive doubly linked LRU of the unpinned state-bearing nodes,
  // linked through Node::lru_prev/lru_next: the front is the eviction
  // victim, the back the most recently used.
  Node* lru_front_ PPG_GUARDED_BY(mu_) = nullptr;
  Node* lru_back_ PPG_GUARDED_BY(mu_) = nullptr;
  std::size_t bytes_ PPG_GUARDED_BY(mu_) = 0;
  std::size_t nodes_ PPG_GUARDED_BY(mu_) = 0;
  std::size_t pinned_ PPG_GUARDED_BY(mu_) = 0;
};

/// Process-wide KV-cache metrics ("kv_cache.*" in the global registry):
/// hit/miss/insert/eviction counters, resident- and evicted-bytes, and the
/// prefill ledger (the positions InferenceSession::prefill's rows did not
/// and did restore from snapshots) that bench_kv_cache reports. Registered
/// once; updates are the registry's lock-free fast path.
struct KvCacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& inserts;
  obs::Counter& evictions;
  obs::Counter& evicted_bytes;
  obs::Gauge& bytes;
  /// Prefill positions, summed over rows, a snapshot did not restore.
  /// Model work is infer.tokens: prefill() steps identical rows once.
  obs::Counter& prefill_tokens;
  /// Prefill positions prefill() restored from snapshots instead.
  obs::Counter& prefill_saved;
};
KvCacheMetrics& kv_cache_metrics();

}  // namespace ppg::gpt
