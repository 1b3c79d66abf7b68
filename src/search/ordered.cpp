#include "search/ordered.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/minmax_heap.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tokenizer/tokenizer.h"

namespace ppg::search {

namespace {

struct SearchMetrics {
  obs::Counter& nodes_expanded;
  obs::Counter& emitted;
  obs::Counter& truncated;
  obs::Gauge& heap_peak;
};

SearchMetrics& search_metrics() {
  auto& r = obs::Registry::global();
  static SearchMetrics m{r.counter("search.nodes_expanded"),
                         r.counter("search.emitted"),
                         r.counter("search.truncated"),
                         r.gauge("search.heap_peak")};
  return m;
}

}  // namespace

OrderedEnumerator::OrderedEnumerator(const gpt::GptModel& model,
                                     std::vector<int> prefix,
                                     OrderedOptions opts,
                                     gpt::AllowedTokens allowed,
                                     const gpt::KvState* resume)
    : model_(&model),
      prefix_(std::move(prefix)),
      opts_(opts),
      allowed_(std::move(allowed)),
      resume_(resume),
      cache_(opts.cache_bytes),
      session_(model) {
  PPG_CHECK(!prefix_.empty(), "ordered enumeration needs a non-empty prefix");
  PPG_CHECK(static_cast<Index>(prefix_.size()) < model.config().context,
            "prefix length %zu leaves no room in context %d", prefix_.size(),
            static_cast<int>(model.config().context));
  if (opts_.max_nodes == 0) opts_.max_nodes = 1;
}

bool OrderedEnumerator::worse(const Node& a, const Node& b) const noexcept {
  if (a.logp != b.logp) return a.logp < b.logp;
  return sequence_less(b, a);
}

bool OrderedEnumerator::sequence_less(const Node& a,
                                      const Node& b) const noexcept {
  if (a.parent == b.parent) return a.token < b.token;
  const std::vector<int>& as = parents_[a.parent].seq;
  const std::vector<int>& bs = parents_[b.parent].seq;
  const auto [ai, bi] = std::mismatch(as.begin(), as.end(), bs.begin(),
                                      bs.end());
  // The full sequences' tokens at the first position where the parent
  // sequences differ or one of them ends.
  const int at = ai == as.end() ? a.token : *ai;
  const int bt = bi == bs.end() ? b.token : *bi;
  if (at != bt) return at < bt;
  // Equal there, so one full sequence is a prefix of the other.
  return as.size() < bs.size();
}

std::uint32_t OrderedEnumerator::new_parent(std::span<const int> seq) {
  std::uint32_t id;
  if (free_parents_.empty()) {
    id = static_cast<std::uint32_t>(parents_.size());
    parents_.emplace_back();
  } else {
    id = free_parents_.back();
    free_parents_.pop_back();
  }
  parents_[id].seq.assign(seq.begin(), seq.end());
  return id;
}

void OrderedEnumerator::release_parent(std::uint32_t id) {
  Parent& p = parents_[id];
  if (--p.children > 0) return;
  // No frontier node needs the snapshot any more: unpinned, it rejoins the
  // trie's LRU and may be evicted from here on.
  p.pin.release();
  free_parents_.push_back(id);
}

void OrderedEnumerator::push_node(Node n) {
  // push_children() batch-enforces budgets after each expansion, so the
  // frontier overfills by at most one vocabulary of children between
  // enforcements; the inline trim is a hard backstop should a future push
  // site forget that contract (never fires today: kMaxOverfill > vocab).
  constexpr std::size_t kMaxOverfill = 256;
  ++parents_[n.parent].children;
  frontier_.push_back(n);
  push_minmax_heap(frontier_.begin(), frontier_.end(), by_worse());
  if (frontier_.size() > opts_.max_nodes + kMaxOverfill) enforce_budgets();
}

OrderedEnumerator::Node OrderedEnumerator::pop_node() {
  pop_minmax_heap_max(frontier_.begin(), frontier_.end(), by_worse());
  const Node n = frontier_.back();
  frontier_.pop_back();
  return n;
}

void OrderedEnumerator::prefill(std::span<const int> tokens,
                                const gpt::KvState* state) {
  const gpt::PrefillRow row{tokens, state};
  const gpt::PrefillCounts n = session_.prefill({&row, 1});
  stats_.prefill_tokens += n.tokens;
  stats_.prefill_saved += n.saved;
}

void OrderedEnumerator::expand_root() {
  prefill(prefix_, resume_);
  resume_ = nullptr;  // never needed again
  gpt::KvState root = session_.snapshot(0);
  std::span<const float> logits = session_.logits_row(0);
  cache_.insert(prefix_, std::move(root));
  push_children(new_parent(prefix_), 0.0, logits);
}

void OrderedEnumerator::expand(const Node& node) {
  obs::Span span("search/expand", "search");
  const std::span<const int> parent_seq(seq_.data(), seq_.size() - 1);
  // Resume from the parent's pinned snapshot. When it was evicted before
  // its record could pin it (tiny byte budgets), re-derive the parent from
  // its deepest surviving ancestor instead — bitwise identical by the
  // kv_cache contract.
  gpt::KvTrieCache::Handle hit;
  const gpt::KvState* state = parents_[node.parent].pin.state();
  if (state == nullptr) {
    hit = cache_.find_longest(parent_seq);
    state = hit.state();
  }
  prefill(parent_seq, state);
  // The scoring step every expansion pays regardless of caching; the
  // prefill ledger counts only the positions before it.
  const int last = seq_.back();
  session_.step(std::span<const int>(&last, 1));
  hit.release();
  release_parent(node.parent);
  ++stats_.nodes_expanded;
  search_metrics().nodes_expanded.inc();
  gpt::KvState state_after = session_.snapshot(0);
  std::span<const float> logits = session_.logits_row(0);
  cache_.insert(seq_, std::move(state_after));
  push_children(new_parent(seq_), node.logp, logits);
}

void OrderedEnumerator::push_children(std::uint32_t parent, double logp,
                                      std::span<const float> logits) {
  const std::size_t seq_len = parents_[parent].seq.size();
  const std::span<const int> ids =
      allowed_.at(static_cast<Index>(seq_len - prefix_.size()));
  gpt::masked_log_probs(logits, ids, log_probs_);
  const Index context = model_->config().context;
  const Index child_len = static_cast<Index>(seq_len) + 1;
  // The loop holds its own reference, so a backstop trim in push_node
  // cannot free the record under it.
  ++parents_[parent].children;
  bool pinned = false;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const double child_logp = logp + log_probs_[k];
    const bool terminal = ids[k] == tok::Tokenizer::kEos;
    // A non-terminal child at the context boundary can never be stepped
    // again nor emit <EOS>; a terminal child needs no further step.
    if (!terminal && child_len >= context) continue;
    if (!pinned) {
      // One pin per record, taken with the first surviving child; it
      // misses when the insert above was immediately evicted (budget
      // smaller than one state) — expand() falls back.
      parents_[parent].pin = cache_.find(parents_[parent].seq);
      pinned = true;
    }
    push_node(Node{child_logp, parent, ids[k]});
  }
  release_parent(parent);  // frees it here if no child survived
  stats_.heap_peak = std::max(stats_.heap_peak, frontier_.size());
  search_metrics().heap_peak.set(static_cast<double>(stats_.heap_peak));
  enforce_budgets();
}

void OrderedEnumerator::enforce_budgets() {
  // The trie keeps itself within cache_bytes (every insert evicts unpinned
  // states, the new one included, and a pin only holds a resident state),
  // so only the frontier cap drops nodes.
  PPG_DCHECK(cache_.bytes() <= opts_.cache_bytes,
             "KV trie holds %zu bytes over its %zu-byte budget", cache_.bytes(),
             opts_.cache_bytes);
  // Drop the worst nodes one at a time, each in O(log n). Releasing a
  // dropped node's record lets the trie's deferred LRU eviction reclaim
  // its parent state once no sibling still references it.
  while (frontier_.size() > opts_.max_nodes) {
    pop_minmax_heap_min(frontier_.begin(), frontier_.end(), by_worse());
    const Node dropped = frontier_.back();
    frontier_.pop_back();
    ++stats_.truncated;
    search_metrics().truncated.inc();
    stats_.truncated_log_prob =
        std::max(stats_.truncated_log_prob, dropped.logp);
    release_parent(dropped.parent);
  }
}

std::optional<ScoredGuess> OrderedEnumerator::next() {
  if (done_) return std::nullopt;
  if (opts_.max_guesses != 0 && stats_.emitted >= opts_.max_guesses) {
    done_ = true;
    return std::nullopt;
  }
  if (deadline_us_ == 0 && opts_.deadline_ms > 0.0)
    deadline_us_ = obs::now_us() +
                   static_cast<std::int64_t>(opts_.deadline_ms * 1000.0);
  if (!primed_) {
    primed_ = true;
    expand_root();
  }
  while (true) {
    if (deadline_us_ != 0 && obs::now_us() >= deadline_us_) {
      stats_.deadline_hit = true;
      done_ = true;
      return std::nullopt;
    }
    if (frontier_.empty()) {
      stats_.exhausted = true;
      done_ = true;
      return std::nullopt;
    }
    const Node best = pop_node();
    const std::vector<int>& parent_seq = parents_[best.parent].seq;
    seq_.assign(parent_seq.begin(), parent_seq.end());
    seq_.push_back(best.token);
    if (best.token == tok::Tokenizer::kEos) {
      release_parent(best.parent);
      auto pw = tok::Tokenizer::decode_password(seq_);
      if (!pw.has_value() || pw->empty()) {
        ++stats_.invalid;
        continue;
      }
      ++stats_.emitted;
      search_metrics().emitted.inc();
      return ScoredGuess{std::move(*pw), best.logp};
    }
    if (opts_.max_expansions != 0 &&
        stats_.nodes_expanded >= opts_.max_expansions) {
      // The best remaining node needs an expansion we no longer have the
      // budget for. Everything emitted so far is still an exact prefix of
      // the ideal ranking; record the admissible bound for what's missing.
      stats_.expansion_capped = true;
      stats_.truncated_log_prob =
          std::max(stats_.truncated_log_prob, best.logp);
      release_parent(best.parent);
      done_ = true;
      return std::nullopt;
    }
    expand(best);
  }
}

}  // namespace ppg::search
