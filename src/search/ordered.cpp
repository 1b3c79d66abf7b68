#include "search/ordered.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/minmax_heap.h"
#include "obs/clock.h"
#include "obs/metrics.h"
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
      cache_(opts.cache_bytes) {
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
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const double child_logp = logp + log_probs_[k];
    const bool terminal = ids[k] == tok::Tokenizer::kEos;
    // A non-terminal child at the context boundary can never be stepped
    // again nor emit <EOS>; a terminal child needs no further step.
    if (!terminal && child_len >= context) continue;
    push_node(Node{child_logp, parent, ids[k]});
  }
  release_parent(parent);  // frees it here if no child survived
  if (frontier_.size() > stats_.heap_peak) {
    stats_.heap_peak = frontier_.size();
    search_metrics().heap_peak.set_max(static_cast<double>(stats_.heap_peak));
  }
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

Advance OrderedEnumerator::expansion(Pending kind, std::span<const int> row,
                                     const gpt::KvState* state, int token) {
  // The ledger InferenceSession::prefill keeps for this row.
  const std::size_t saved =
      state != nullptr ? static_cast<std::size_t>(state->len()) : 0;
  stats_.prefill_saved += saved;
  stats_.prefill_tokens += row.size() - saved;
  pending_ = kind;
  Advance a;
  a.kind = Advance::Kind::kExpand;
  a.expansion = {gpt::PrefillRow{row, state}, token};
  return a;
}

Advance OrderedEnumerator::advance() {
  PPG_CHECK(pending_ == Pending::kNone,
            "advance() before the last expansion was complete()d");
  if (done_) return {};
  if (opts_.max_guesses != 0 && stats_.emitted >= opts_.max_guesses) {
    done_ = true;
    return {};
  }
  if (deadline_us_ == 0 && opts_.deadline_ms > 0.0)
    deadline_us_ = obs::now_us() +
                   static_cast<std::int64_t>(opts_.deadline_ms * 1000.0);
  if (!primed_) {
    primed_ = true;
    // Checked here rather than by the prefill, whose batch other
    // enumerators' rows share.
    if (resume_ != nullptr &&
        (resume_->len() > static_cast<Index>(prefix_.size()) ||
         (resume_->len() == static_cast<Index>(prefix_.size()) &&
          static_cast<Index>(resume_->logits.size()) !=
              model_->config().vocab)))
      throw std::invalid_argument(
          "OrderedEnumerator: resume state deeper than the prefix, or "
          "covering it without logits");
    return expansion(Pending::kRoot, prefix_, resume_,
                     gpt::InferenceSession::kIdle);
  }
  while (true) {
    if (deadline_us_ != 0 && obs::now_us() >= deadline_us_) {
      stats_.deadline_hit = true;
      done_ = true;
      return {};
    }
    if (frontier_.empty()) {
      stats_.exhausted = true;
      done_ = true;
      return {};
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
      Advance a;
      a.kind = Advance::Kind::kGuess;
      a.guess = ScoredGuess{std::move(*pw), best.logp};
      return a;
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
      return {};
    }
    // Resume from the parent's pinned snapshot. When the budget evicted it
    // as it was stored (tiny budgets), re-derive the parent from its
    // deepest surviving ancestor instead — bitwise identical by the
    // kv_cache contract. The popped node keeps its reference to the record
    // until complete(), so the row's tokens and state stay alive.
    expanding_ = best;
    const std::span<const int> parent_row(seq_.data(), seq_.size() - 1);
    const gpt::KvState* state = parents_[best.parent].pin.state();
    if (state == nullptr) {
      hit_ = cache_.find_longest(parent_row);
      state = hit_.state();
    }
    return expansion(Pending::kNode, parent_row, state, best.token);
  }
}

void OrderedEnumerator::complete(const gpt::InferenceSession& session,
                                 gpt::Index row) {
  PPG_CHECK(pending_ != Pending::kNone,
            "complete() without an expansion from advance()");
  const bool root = pending_ == Pending::kRoot;
  const std::span<const int> seq =
      root ? std::span<const int>(prefix_) : std::span<const int>(seq_);
  PPG_CHECK(session.position(row) == static_cast<Index>(seq.size()),
            "complete(): row %d sits at position %d, the expansion at %zu",
            static_cast<int>(row), static_cast<int>(session.position(row)),
            seq.size());
  pending_ = Pending::kNone;
  const std::span<const float> logits = session.logits_row(row);
  gpt::KvState state = session.snapshot(row, /*logits=*/false);
  // The node the insert walks on from; the root's when empty.
  gpt::KvTrieCache::Handle at;
  double logp = 0.0;
  if (root) {
    resume_ = nullptr;  // never needed again
  } else {
    hit_.release();
    // Drop the expanded node's reference to its parent record before the
    // child's state is stored, as the record's last child leaving the
    // frontier would: the insert walks on from the parent's node and then
    // releases this pin — the record's own when the node was its last
    // child.
    Parent& parent = parents_[expanding_.parent];
    if (--parent.children > 0) {
      at = parent.pin.share();
    } else {
      at = std::move(parent.pin);
      free_parents_.push_back(expanding_.parent);
    }
    ++stats_.nodes_expanded;
    search_metrics().nodes_expanded.inc();
    logp = expanding_.logp;
  }
  const std::size_t walked = at ? seq.size() - 1 : 0;
  gpt::KvTrieCache::Handle pin =
      cache_.insert(std::move(at), seq.subspan(walked), std::move(state));
  const std::uint32_t id = new_parent(seq);
  parents_[id].pin = std::move(pin);
  push_children(id, logp, logits);
}

std::optional<ScoredGuess> OrderedEnumerator::next(
    gpt::InferenceSession& session) {
  Expander alone;
  while (true) {
    Advance a = advance();
    switch (a.kind) {
      case Advance::Kind::kGuess:
        return std::move(a.guess);
      case Advance::Kind::kDone:
        return std::nullopt;
      case Advance::Kind::kExpand:
        alone.add(*this, a.expansion);
        alone.run(session);
        break;
    }
  }
}

void Expander::add(OrderedEnumerator& e, const Expansion& x) {
  enumerators_.push_back(&e);
  rows_.push_back(x.row);
  tokens_.push_back(x.token);
}

void Expander::run(gpt::InferenceSession& session) {
  if (enumerators_.empty()) return;
  session.prefill(rows_);
  // Root rows feed kIdle and keep the logits prefill left them.
  session.step(tokens_);
  for (std::size_t i = 0; i < enumerators_.size(); ++i)
    enumerators_[i]->complete(session, static_cast<gpt::Index>(i));
  enumerators_.clear();
  rows_.clear();
  tokens_.clear();
}

}  // namespace ppg::search
