#include "gpt/kv_cache.h"

#include <utility>

#include "common/check.h"

namespace ppg::gpt {

KvCacheMetrics& kv_cache_metrics() {
  auto& r = obs::Registry::global();
  static KvCacheMetrics m{r.counter("kv_cache.hits"),
                          r.counter("kv_cache.misses"),
                          r.counter("kv_cache.inserts"),
                          r.counter("kv_cache.evictions"),
                          r.counter("kv_cache.evicted_bytes"),
                          r.gauge("kv_cache.bytes"),
                          r.counter("kv_cache.prefill_tokens"),
                          r.counter("kv_cache.prefill_saved")};
  return m;
}

std::size_t KvState::bytes() const noexcept {
  return (blocks.size() * static_cast<std::size_t>(block_floats) +
          logits.size()) *
         sizeof(float);
}

/// One trie node: an edge token from its parent, children by token id, and
/// (for inserted prefixes) the owned KvState. Interior nodes created only
/// as path scaffolding carry no state and are pruned when their subtree
/// empties.
struct KvTrieCache::Node {
  Node* parent = nullptr;
  int token = -1;
  std::map<int, std::unique_ptr<Node>> children;
  std::unique_ptr<KvState> state;
  int pins = 0;  ///< live Handles; > 0 exempts the node from eviction
  /// LRU neighbours. A node is on the LRU list exactly while it holds a
  /// state and no pin.
  Node* lru_prev = nullptr;
  Node* lru_next = nullptr;
};

KvTrieCache::KvTrieCache(std::size_t budget)
    : max_bytes(budget), root_(std::make_unique<Node>()) {}

KvTrieCache::~KvTrieCache() {
  // A Handle outliving its cache would unpin into freed memory; make that
  // programming error loud at the source. Taken under the lock: destruction
  // racing a live Handle is already UB, but the lock keeps the check itself
  // well-defined (and visible to the thread-safety analysis) when the last
  // release() is still in flight on another thread.
  MutexLock lock(mu_);
  PPG_CHECK(pinned_ == 0, "KvTrieCache destroyed with %zu pinned nodes",
            pinned_);
}

KvTrieCache::Node* KvTrieCache::walk_locked(Node* from,
                                            std::span<const int> prefix,
                                            bool create) {
  Node* n = from;
  for (const int tok : prefix) {
    auto it = n->children.find(tok);
    if (it == n->children.end()) {
      if (!create) return nullptr;
      auto child = std::make_unique<Node>();
      child->parent = n;
      child->token = tok;
      it = n->children.emplace(tok, std::move(child)).first;
    }
    n = it->second.get();
  }
  return n;
}

KvTrieCache::Handle KvTrieCache::pin_locked(Node* n) {
  if (n->pins++ == 0) {
    ++pinned_;
    lru_detach_locked(n);
  }
  return Handle(this, n);
}

void KvTrieCache::lru_push_back_locked(Node* n) {
  n->lru_prev = lru_back_;
  n->lru_next = nullptr;
  if (lru_back_ != nullptr)
    lru_back_->lru_next = n;
  else
    lru_front_ = n;
  lru_back_ = n;
}

void KvTrieCache::lru_detach_locked(Node* n) {
  PPG_DCHECK(n->lru_prev != nullptr || lru_front_ == n,
             "kv cache: detaching a node that is not on the LRU list");
  if (n->lru_prev != nullptr)
    n->lru_prev->lru_next = n->lru_next;
  else
    lru_front_ = n->lru_next;
  if (n->lru_next != nullptr)
    n->lru_next->lru_prev = n->lru_prev;
  else
    lru_back_ = n->lru_prev;
  n->lru_prev = nullptr;
  n->lru_next = nullptr;
}

KvTrieCache::Handle KvTrieCache::find(std::span<const int> prefix) {
  MutexLock lock(mu_);
  Node* n = walk_locked(root_.get(), prefix, /*create=*/false);
  if (n == nullptr || !n->state) {
    kv_cache_metrics().misses.inc();
    return {};
  }
  kv_cache_metrics().hits.inc();
  return pin_locked(n);
}

KvTrieCache::Handle KvTrieCache::find_longest(std::span<const int> prefix) {
  MutexLock lock(mu_);
  Node* n = root_.get();
  Node* deepest = nullptr;
  for (const int tok : prefix) {
    const auto it = n->children.find(tok);
    if (it == n->children.end()) break;
    n = it->second.get();
    if (n->state) deepest = n;
  }
  if (deepest == nullptr) {
    kv_cache_metrics().misses.inc();
    return {};
  }
  kv_cache_metrics().hits.inc();
  return pin_locked(deepest);
}

void KvTrieCache::insert(std::span<const int> prefix, KvState state) {
  MutexLock lock(mu_);
  store_locked(walk_locked(root_.get(), prefix, /*create=*/true),
               std::move(state));
}

KvTrieCache::Handle KvTrieCache::insert(Handle at, std::span<const int> suffix,
                                        KvState state) {
  PPG_CHECK(at.cache_ == nullptr || at.cache_ == this,
            "kv cache: inserting under another cache's handle");
  MutexLock lock(mu_);
  Node* const parent = at ? static_cast<Node*>(at.node_) : root_.get();
  // The walk runs while `at` still pins its node; afterwards the node has
  // the child below it, so dropping the pin cannot prune it.
  Node* n = walk_locked(parent, suffix, /*create=*/true);
  if (at) {
    at.cache_ = nullptr;
    at.node_ = nullptr;
    unpin_locked(parent);
  }
  if (n->state) return pin_locked(n);  // first insert wins
  store_locked(n, std::move(state));
  // Eviction takes the LRU front first, so it reaches the new state, the
  // most recently used, only after every other unpinned state: it survived
  // exactly when the list is not empty, and then it is the list's back.
  if (lru_back_ == nullptr) return {};
  return pin_locked(lru_back_);
}

void KvTrieCache::store_locked(Node* n, KvState state) {
  if (n->state) return;  // first insert wins; the copies are bitwise equal
  n->state = std::make_unique<KvState>(std::move(state));
  bytes_ += n->state->bytes();
  ++nodes_;
  kv_cache_metrics().inserts.inc();
  lru_push_back_locked(n);  // unpinned at birth, most recently used
  evict_over_budget_locked();
}

void KvTrieCache::evict_over_budget_locked() {
  while (bytes_ > max_bytes && lru_front_ != nullptr) {
    Node* victim = lru_front_;
    lru_detach_locked(victim);
    evict_node_locked(victim);
  }
  kv_cache_metrics().bytes.set(static_cast<double>(bytes_));
}

void KvTrieCache::evict_node_locked(Node* n) {
  PPG_CHECK(n->pins == 0, "kv cache: evicting a pinned node");
  PPG_CHECK(n->state != nullptr, "kv cache: evicting a stateless node");
  const std::size_t freed = n->state->bytes();
  bytes_ -= freed;
  --nodes_;
  KvCacheMetrics& m = kv_cache_metrics();
  m.evictions.inc();
  m.evicted_bytes.inc(freed);
  n->state.reset();
  // Prune now-dead scaffolding so the trie does not accrete token paths.
  while (n != root_.get() && !n->state && n->children.empty() &&
         n->pins == 0) {
    Node* parent = n->parent;
    parent->children.erase(n->token);  // destroys n
    n = parent;
  }
}

std::size_t KvTrieCache::bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

std::size_t KvTrieCache::nodes() const {
  MutexLock lock(mu_);
  return nodes_;
}

std::size_t KvTrieCache::pinned_nodes() const {
  MutexLock lock(mu_);
  return pinned_;
}

void KvTrieCache::unpin_locked(Node* n) {
  PPG_CHECK(n->pins > 0, "kv cache: pin refcount underflow");
  if (--n->pins == 0) {
    --pinned_;
    lru_push_back_locked(n);  // a released node re-enters LRU as MRU
    evict_over_budget_locked();
  }
}

void KvTrieCache::Handle::release() {
  if (node_ == nullptr) return;
  KvTrieCache* cache = cache_;
  Node* n = static_cast<Node*>(node_);
  cache_ = nullptr;
  node_ = nullptr;
  MutexLock lock(cache->mu_);
  cache->unpin_locked(n);
}

KvTrieCache::Handle KvTrieCache::Handle::share() const {
  if (node_ == nullptr) return {};
  MutexLock lock(cache_->mu_);
  return cache_->pin_locked(static_cast<Node*>(node_));
}

const KvState* KvTrieCache::Handle::state() const noexcept {
  return node_ == nullptr ? nullptr : static_cast<Node*>(node_)->state.get();
}

Index KvTrieCache::Handle::len() const noexcept {
  const KvState* s = state();
  return s == nullptr ? 0 : s->len();
}

}  // namespace ppg::gpt
