#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "core/masks.h"
#include "gpt/infer.h"
#include "gpt/sampler.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pcfg/pattern.h"
#include "search/ordered.h"
#include "tokenizer/tokenizer.h"

namespace ppg::serve {

namespace {

using tok::Tokenizer;

/// Process-wide serving metrics (registered once, lock-free updates).
struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& admitted;
  obs::Counter& rejected;
  obs::Counter& timeouts;
  obs::Counter& completed;
  obs::Counter& batches;
  obs::Counter& rows;
  obs::Counter& guesses;
  obs::Counter& invalid;
  obs::Gauge& queue_depth;
  obs::Histogram& batch_rows;
  obs::Histogram& request_ms;
  static ServeMetrics& get() {
    auto& r = obs::Registry::global();
    static ServeMetrics m{r.counter("serve.submitted"),
                          r.counter("serve.admitted"),
                          r.counter("serve.rejected"),
                          r.counter("serve.timeouts"),
                          r.counter("serve.completed"),
                          r.counter("serve.batches"),
                          r.counter("serve.rows"),
                          r.counter("serve.guesses"),
                          r.counter("serve.invalid"),
                          r.gauge("serve.queue_depth"),
                          r.histogram("serve.batch_rows"),
                          r.histogram("serve.request_ms")};
    return m;
  }
};

/// Budgets of each ordered enumeration (see search::OrderedOptions). The
/// expansion cap keeps one ordered request from monopolising a worker when
/// the model is near-uniform over a large pattern space; a capped request
/// completes kOk with the best-first prefix found within budget.
constexpr std::size_t kOrderedMaxExpansions = std::size_t(1) << 16;
constexpr std::size_t kOrderedCacheBytes = std::size_t(32) << 20;

ServiceConfig normalized(ServiceConfig cfg) {
  cfg.workers = std::max<std::size_t>(cfg.workers, 1);
  cfg.max_queue = std::max<std::size_t>(cfg.max_queue, 1);
  cfg.max_batch = std::max<std::size_t>(cfg.max_batch, 1);
  cfg.max_count = std::max<std::size_t>(cfg.max_count, 1);
  cfg.max_attempt_factor = std::max(cfg.max_attempt_factor, 1);
  return cfg;
}

}  // namespace

const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kTimeout: return "timeout";
  }
  return "unknown";
}

const char* reject_name(Reject r) noexcept {
  switch (r) {
    case Reject::kNone: return "";
    case Reject::kQueueFull: return "queue_full";
    case Reject::kShuttingDown: return "shutting_down";
    case Reject::kBadRequest: return "bad_request";
  }
  return "unknown";
}

/// One admitted request's full lifecycle state. Owned jointly by the
/// queue and by the batch rows currently in flight for it.
struct GuessService::Pending {
  std::uint64_t id = 0;
  std::vector<int> prefix;  ///< token prefix shared by every row
  gpt::AllowedTokens allowed;  ///< conformance table (empty: every token)
  std::size_t target = 0;
  std::size_t unassigned = 0;    ///< rows not yet scheduled into a batch
  std::size_t inflight = 0;      ///< rows currently inside a batch
  std::size_t retries_left = 0;  ///< invalid rows that may still be retried
  std::size_t next_row = 0;      ///< next rng-stream index
  std::uint64_t seed = 0;
  bool ordered = false;            ///< kOrdered: one best-first enumeration
  double search_deadline_ms = 0.0; ///< kOrdered: anytime search budget
  std::int64_t enqueue_us = 0;
  std::int64_t first_schedule_us = -1;
  std::int64_t deadline_us = -1;  ///< obs timeline; -1 = none
  bool in_queue = false;
  bool done = false;
  Response resp;
  std::promise<Response> promise;
};

GuessService::GuessService(const gpt::GptModel& model,
                           const pcfg::PatternDistribution& patterns,
                           ServiceConfig cfg)
    : model_(model), patterns_(patterns), cfg_(normalized(cfg)) {
  if (cfg_.prefix_cache_bytes > 0)
    prefix_cache_ =
        std::make_unique<gpt::KvTrieCache>(cfg_.prefix_cache_bytes);
  workers_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

GuessService::~GuessService() { shutdown(); }

std::future<Response> GuessService::reject(Request&&, Reject why,
                                           std::string detail) {
  ServeMetrics::get().rejected.inc();
  std::promise<Response> promise;
  std::future<Response> fut = promise.get_future();
  Response resp;
  resp.status = Status::kRejected;
  resp.reject = why;
  resp.error = std::move(detail);
  promise.set_value(std::move(resp));
  return fut;
}

std::future<Response> GuessService::submit(Request req) {
  ServeMetrics& m = ServeMetrics::get();
  m.submitted.inc();

  const bool ordered = req.kind == RequestKind::kOrdered;
  if (ordered) {
    // Mirrors the count/timeout validation below: bad asks are named at
    // admission, never silently clamped mid-flight.
    if (req.top_k == 0)
      return reject(std::move(req), Reject::kBadRequest,
                    "ordered request needs top_k > 0");
    if (req.top_k > cfg_.max_ordered_top_k)
      return reject(std::move(req), Reject::kBadRequest,
                    "top_k " + std::to_string(req.top_k) +
                        " exceeds max_ordered_top_k " +
                        std::to_string(cfg_.max_ordered_top_k));
    if (req.deadline_ms < 0.0)
      return reject(std::move(req), Reject::kBadRequest,
                    "deadline_ms must be >= 0 (got " +
                        std::to_string(req.deadline_ms) + ")");
  } else {
    if (req.count == 0)
      return reject(std::move(req), Reject::kBadRequest, "count must be > 0");
    if (req.count > cfg_.max_count)
      return reject(std::move(req), Reject::kBadRequest,
                    "count " + std::to_string(req.count) +
                        " exceeds max_count " +
                        std::to_string(cfg_.max_count));
  }
  if (req.timeout_ms < 0.0)
    return reject(std::move(req), Reject::kBadRequest,
                  "timeout_ms must be >= 0 (got " +
                      std::to_string(req.timeout_ms) + ")");

  auto p = std::make_shared<Pending>();
  p->prefix.push_back(Tokenizer::kBos);
  if (req.kind != RequestKind::kFree) {
    std::string pattern_str = req.pattern;
    if (pattern_str.empty()) {
      if (req.kind == RequestKind::kPrefix || patterns_.distinct() == 0)
        return reject(std::move(req), Reject::kBadRequest,
                      "request needs a pattern");
      Rng rng(req.seed, "serve.pattern");
      try {
        pattern_str = patterns_.sample(rng);
      } catch (const std::exception& e) {
        return reject(std::move(req), Reject::kBadRequest,
                      std::string("pattern distribution unusable: ") +
                          e.what());
      }
    }
    auto parsed = pcfg::parse_pattern(pattern_str);
    if (!parsed)
      return reject(std::move(req), Reject::kBadRequest,
                    "unparseable pattern '" + pattern_str + "'");
    for (const auto& seg : *parsed)
      if (seg.len > Tokenizer::kMaxSegmentLen)
        return reject(std::move(req), Reject::kBadRequest,
                      "pattern segment longer than " +
                          std::to_string(Tokenizer::kMaxSegmentLen));
    p->prefix = Tokenizer::encode_generation_prefix(*parsed);
    int offset = 0;
    if (req.kind == RequestKind::kPrefix) {
      if (req.prefix.empty())
        return reject(std::move(req), Reject::kBadRequest,
                      "prefix request needs a non-empty prefix");
      if (req.prefix.size() >
          static_cast<std::size_t>(pcfg::pattern_length(*parsed)))
        return reject(std::move(req), Reject::kBadRequest,
                      "prefix longer than its pattern");
      for (std::size_t i = 0; i < req.prefix.size(); ++i) {
        const char ch = req.prefix[i];
        const int tok_id = Tokenizer::char_token(ch);
        if (tok_id == Tokenizer::kUnk)
          return reject(std::move(req), Reject::kBadRequest,
                        "prefix contains an out-of-universe character");
        const auto cls = pcfg::class_at(*parsed, static_cast<int>(i));
        if (!cls || pcfg::classify(ch) != *cls)
          return reject(std::move(req), Reject::kBadRequest,
                        "prefix does not conform to the pattern");
        p->prefix.push_back(tok_id);
      }
      offset = static_cast<int>(req.prefix.size());
    }
    if (req.strict) p->allowed = core::make_pattern_mask(*parsed, offset);
  }
  if (static_cast<gpt::Index>(p->prefix.size()) >= model_.config().context)
    return reject(std::move(req), Reject::kBadRequest,
                  "prefix fills the whole context window");

  if (ordered) {
    // One unit of schedulable work: the enumeration itself. target keeps
    // the top_k for the executor; there are no retries (an ordered run
    // never produces a row to redraw).
    p->ordered = true;
    p->search_deadline_ms = req.deadline_ms;
    p->target = req.top_k;
    p->unassigned = 1;
    p->retries_left = 0;
  } else {
    p->target = req.count;
    p->unassigned = req.count;
    p->retries_left =
        req.count * static_cast<std::size_t>(cfg_.max_attempt_factor - 1);
  }
  p->seed = req.seed;
  p->enqueue_us = obs::now_us();
  if (req.timeout_ms > 0)
    p->deadline_us =
        p->enqueue_us + static_cast<std::int64_t>(
                            std::llround(req.timeout_ms * 1000.0));

  std::future<Response> fut = p->promise.get_future();
  {
    MutexLock lock(mu_);
    if (!accepting_) {
      m.rejected.inc();
      p->resp.status = Status::kRejected;
      p->resp.reject = Reject::kShuttingDown;
      p->resp.error = "service is shutting down";
      p->promise.set_value(std::move(p->resp));
      return fut;
    }
    if (queue_.size() >= cfg_.max_queue) {
      m.rejected.inc();
      p->resp.status = Status::kRejected;
      p->resp.reject = Reject::kQueueFull;
      p->resp.error = "admission queue is full (" +
                      std::to_string(cfg_.max_queue) + " requests)";
      p->promise.set_value(std::move(p->resp));
      return fut;
    }
    p->id = next_id_++;
    queue_.push_back(p);
    p->in_queue = true;
    m.admitted.inc();
    m.queue_depth.set(static_cast<double>(queue_.size()));
  }
  work_cv_.notify_one();
  return fut;
}

void GuessService::complete_locked(Pending& p, Status s) {
  // Completing twice would set the promise twice (UB-adjacent throw) and
  // double-count metrics; `done` is only ever flipped here, under mu_.
  PPG_CHECK(!p.done, "request %llu completed twice",
            static_cast<unsigned long long>(p.id));
  ServeMetrics& m = ServeMetrics::get();
  p.done = true;
  p.resp.status = s;
  const std::int64_t now = obs::now_us();
  p.resp.total_ms = static_cast<double>(now - p.enqueue_us) / 1000.0;
  p.resp.queue_ms =
      static_cast<double>(
          (p.first_schedule_us < 0 ? now : p.first_schedule_us) -
          p.enqueue_us) /
      1000.0;
  if (s == Status::kTimeout)
    m.timeouts.inc();
  else if (s == Status::kRejected)
    m.rejected.inc();
  else
    m.completed.inc();
  m.guesses.inc(p.resp.passwords.size());
  m.invalid.inc(p.resp.invalid);
  if (obs::timing_enabled()) m.request_ms.observe(p.resp.total_ms);
  obs::trace_emit_complete("serve/request", "serve", p.enqueue_us,
                           now - p.enqueue_us);
  p.promise.set_value(std::move(p.resp));
}

void GuessService::assemble_batch_locked(std::vector<RowRef>& rows) {
  const std::int64_t now = obs::now_us();
  // Expire or discard requests until the front is runnable.
  while (!queue_.empty()) {
    auto& front = queue_.front();
    if (front->done) {
      front->in_queue = false;
      queue_.pop_front();
      continue;
    }
    if (front->deadline_us >= 0 && now >= front->deadline_us) {
      complete_locked(*front, Status::kTimeout);
      front->in_queue = false;
      queue_.pop_front();
      continue;
    }
    break;
  }
  if (queue_.empty()) {
    ServeMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
    return;
  }

  const auto take = [&](const std::shared_ptr<Pending>& p) {
    PPG_DCHECK(p->unassigned > 0, "scheduling a request with no rows left");
    const std::size_t k =
        std::min(cfg_.max_batch - rows.size(), p->unassigned);
    for (std::size_t i = 0; i < k; ++i) rows.push_back({p, p->next_row++});
    p->unassigned -= k;
    p->inflight += k;
    // Attempt accounting: rows ever scheduled never exceed the admission
    // budget of count * max_attempt_factor.
    PPG_DCHECK(p->next_row <= p->target * static_cast<std::size_t>(
                                              cfg_.max_attempt_factor),
               "request %llu scheduled %zu rows, budget %zu",
               static_cast<unsigned long long>(p->id), p->next_row,
               p->target * static_cast<std::size_t>(cfg_.max_attempt_factor));
    if (p->first_schedule_us < 0) p->first_schedule_us = now;
  };

  // The front request opens the batch.
  auto it = queue_.begin();
  const bool ordered = (*it)->ordered;
  take(*it);
  it = (*it)->unassigned == 0 ? ((*it)->in_queue = false, queue_.erase(it))
                              : std::next(it);
  if (cfg_.batching && !ordered) {
    // Any further sampled request joins until the batch is full: rows keep
    // their own positions, so prefix lengths need not match. An ordered
    // enumeration owns its worker outright and never shares a batch.
    while (it != queue_.end() && rows.size() < cfg_.max_batch) {
      auto& p = *it;
      if (p->done) {
        p->in_queue = false;
        it = queue_.erase(it);
        continue;
      }
      if (p->deadline_us >= 0 && now >= p->deadline_us) {
        complete_locked(*p, Status::kTimeout);
        p->in_queue = false;
        it = queue_.erase(it);
        continue;
      }
      if (p->ordered) {
        ++it;
        continue;
      }
      take(p);
      if (p->unassigned == 0) {
        p->in_queue = false;
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  ServeMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
}

void GuessService::execute_ordered(gpt::InferenceSession& session,
                                   const RowRef& row) {
  obs::Span span("serve/ordered", "serve");
  ServeMetrics& m = ServeMetrics::get();
  m.batches.inc();
  m.rows.inc(1);
  if (obs::timing_enabled()) m.batch_rows.observe(1.0);
  Pending& p = *row.req;

  search::OrderedOptions sopts;
  sopts.cache_bytes = kOrderedCacheBytes;
  sopts.max_expansions = kOrderedMaxExpansions;
  sopts.max_guesses = p.target;  // top_k
  sopts.deadline_ms = p.search_deadline_ms;
  // The shared prefix cache seeds the enumeration root (its pin outlives
  // the root expansion, which is all the resume contract asks); expansion
  // states live in the enumerator's own trie. When the service samples in
  // int8 the cached states were produced by quantized forwards, which the
  // enumerator's fp32 exactness guarantee cannot resume from — the
  // enumeration then primes from scratch instead.
  gpt::KvTrieCache::Handle hit;
  if (prefix_cache_ && cfg_.precision == gpt::Precision::kFp32)
    hit = prefix_cache_->find_longest(p.prefix);
  search::OrderedEnumerator enumerator(model_, p.prefix, sopts, p.allowed,
                                       hit ? hit.state() : nullptr);
  std::vector<std::string> passwords;
  std::vector<double> log_probs;
  passwords.reserve(p.target);
  log_probs.reserve(p.target);
  while (auto g = enumerator.next(session)) {
    passwords.push_back(std::move(g->password));
    log_probs.push_back(g->log_prob);
  }

  {
    MutexLock lock(mu_);
    PPG_DCHECK(p.inflight == 1, "ordered request with %zu rows in flight",
               p.inflight);
    --p.inflight;
    if (!p.done) {
      p.resp.passwords = std::move(passwords);
      p.resp.log_probs = std::move(log_probs);
      p.resp.invalid = enumerator.stats().invalid;
      // Anytime contract: a deadline-capped enumeration still completes
      // kOk with the provably best guesses found so far.
      complete_locked(p, Status::kOk);
    }
  }
}

void GuessService::execute_batch(gpt::InferenceSession& session,
                                 const std::vector<RowRef>& rows) {
  obs::Span span("serve/batch", "serve");
  ServeMetrics& m = ServeMetrics::get();
  m.batches.inc();
  m.rows.inc(rows.size());
  if (obs::timing_enabled())
    m.batch_rows.observe(static_cast<double>(rows.size()));

  // Prefill, every row from its own request's deepest cached prefix (rows
  // of one request are adjacent, so one lookup per request covers its
  // run); an exact full-prefix hit skips that row's prefill entirely. The
  // handles pin the states until the inserts below are done.
  std::vector<std::size_t> firsts;  ///< each distinct request's first row
  std::vector<gpt::KvTrieCache::Handle> handles;  ///< parallel to firsts
  std::vector<gpt::PrefillRow> starts(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Pending& p = *rows[i].req;
    if (i == 0 || rows[i - 1].req != rows[i].req) {
      firsts.push_back(i);
      if (prefix_cache_)
        handles.push_back(prefix_cache_->find_longest(p.prefix));
    }
    starts[i] = {p.prefix, handles.empty() ? nullptr : handles.back().state()};
  }
  session.prefill(starts);
  // Memoise each request's post-prefix state unless it resumed from exactly
  // that state, so future requests with the same prefix skip prefill.
  for (std::size_t k = 0; k < handles.size(); ++k) {
    const std::vector<int>& prefix = rows[firsts[k]].req->prefix;
    if (handles[k].len() < static_cast<gpt::Index>(prefix.size()))
      prefix_cache_->insert(
          prefix, session.snapshot(static_cast<gpt::Index>(firsts[k])));
  }
  handles.clear();

  // Per-row deterministic RNG streams: independent of batch composition,
  // worker count, and batching mode.
  std::vector<Rng> rngs;
  rngs.reserve(rows.size());
  std::vector<gpt::SampleRow> draws(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rngs.emplace_back(rows[i].req->seed,
                      "serve.row/" + std::to_string(rows[i].row_index));
    draws[i] = {&rows[i].req->allowed, &rngs[i]};
  }
  gpt::sample_rows(session, draws,
                   [&](std::size_t i, std::span<const int> generated) {
                     deliver(rows[i], generated);
                   });
}

void GuessService::deliver(const RowRef& row, std::span<const int> generated) {
  Pending& p = *row.req;
  std::vector<int> full = p.prefix;
  full.insert(full.end(), generated.begin(), generated.end());
  auto pw = Tokenizer::decode_password(full);
  bool new_work = false;
  {
    MutexLock lock(mu_);
    PPG_DCHECK(p.inflight > 0, "delivering a row the scheduler never issued");
    --p.inflight;
    if (p.done) return;
    if (pw.has_value() && !pw->empty()) {
      p.resp.passwords.push_back(std::move(*pw));
    } else {
      ++p.resp.invalid;
      if (p.retries_left > 0 && !stopping_) {
        --p.retries_left;
        ++p.unassigned;
        if (!p.in_queue) {
          queue_.push_back(row.req);
          p.in_queue = true;
          new_work = true;
        }
      }
    }
    if (p.unassigned == 0 && p.inflight == 0) complete_locked(p, Status::kOk);
  }
  if (new_work) work_cv_.notify_one();
}

void GuessService::worker_loop(std::size_t index) {
  obs::trace_set_thread_name(
      ("serve-worker-" + std::to_string(index)).c_str());
  // Sampled generation runs on the configured precision. Ordered requests
  // run fp32 — best-first bounds require the reference substrate — on this
  // session when it is fp32, else on a second one made for the first.
  gpt::InferenceSession session(model_, cfg_.precision);
  std::optional<gpt::InferenceSession> fp32;
  for (;;) {
    std::vector<RowRef> rows;
    {
      MutexLock lock(mu_);
      for (;;) {
        assemble_batch_locked(rows);
        if (!rows.empty()) break;
        if (draining_ && queue_.empty()) return;
        work_cv_.wait(lock);
      }
    }
    PPG_DCHECK(rows.size() <= cfg_.max_batch, "batch of %zu exceeds max %zu",
               rows.size(), cfg_.max_batch);
    if (!rows[0].req->ordered) {
      execute_batch(session, rows);
    } else if (cfg_.precision == gpt::Precision::kFp32) {
      execute_ordered(session, rows[0]);
    } else {
      if (!fp32) fp32.emplace(model_);
      execute_ordered(*fp32, rows[0]);
    }
  }
}

void GuessService::shutdown() {
  MutexLock shutdown_lock(shutdown_mu_);
  {
    MutexLock lock(mu_);
    accepting_ = false;
    draining_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

void GuessService::stop() {
  MutexLock shutdown_lock(shutdown_mu_);
  {
    MutexLock lock(mu_);
    accepting_ = false;
    draining_ = true;
    stopping_ = true;
    // Every queued request gets a terminal status *now* instead of being
    // served through the drain. Three cases, none of which drops work:
    //  * never scheduled  -> kRejected/kShuttingDown (the reject race this
    //    exists to close: a submit that won admission just before stop()
    //    must hear "no", not silence and not a surprise response);
    //  * scheduled, nothing in flight (re-queued for retries) -> complete
    //    kOk with the passwords it already has;
    //  * rows in flight -> leave it to the delivering worker, which
    //    completes it because unassigned drops to 0 and retries are off.
    for (auto& p : queue_) {
      p->in_queue = false;
      if (p->done) continue;
      if (p->first_schedule_us < 0) {
        p->unassigned = 0;
        p->retries_left = 0;
        p->resp.reject = Reject::kShuttingDown;
        p->resp.error = "service stopped before the request was scheduled";
        complete_locked(*p, Status::kRejected);
      } else if (p->inflight == 0) {
        p->unassigned = 0;
        p->retries_left = 0;
        complete_locked(*p, Status::kOk);
      } else {
        p->unassigned = 0;
        p->retries_left = 0;
      }
    }
    queue_.clear();
    ServeMetrics::get().queue_depth.set(0.0);
  }
  work_cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

std::size_t GuessService::queued() const {
  MutexLock lock(mu_);
  return queue_.size();
}

}  // namespace ppg::serve
