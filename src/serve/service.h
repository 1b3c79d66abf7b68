// GuessService: the password-guess serving layer.
//
// Wraps one trained GptModel + PatternDistribution behind a submit/await
// API sized for many small concurrent guess requests:
//
//  * bounded admission queue with explicit backpressure — submit() never
//    blocks and never grows without bound; a full queue (or a draining
//    service) rejects immediately with a reason;
//  * dynamic batching — a free worker takes every queued sampled request
//    (up to max_batch rows) into one InferenceSession batch, whatever their
//    prefix lengths: each row keeps its own position, so sixteen count-1
//    requests cost one model call per step, not sixteen. There is no
//    formation window — requests that queue while the workers are busy
//    coalesce at the next batch — and each request completes as soon as
//    its own rows finish, not when the batch does;
//  * per-worker sessions — each worker owns one InferenceSession whose
//    buffers persist across batches (reset() reuse keeps shrinking tail
//    batches allocation-free), at the configured precision (fp32, or int8
//    for sampled rows);
//  * deadline enforcement — a request whose deadline passed while queued
//    completes with Status::kTimeout instead of occupying batch slots;
//  * graceful shutdown — shutdown() stops admission (late submits are
//    rejected with Reject::kShuttingDown), drains every admitted request,
//    and joins the workers; every submitted request resolves its future
//    exactly once;
//  * cross-request prefix caching — a shared KvTrieCache keyed on the
//    request's token prefix (pattern / pattern+chars). Each row resumes
//    from its request's deepest cached ancestor instead of re-priming, at
//    its own depth; an exact full-prefix hit skips that row's prefill
//    entirely. Responses are bitwise identical to a cold-cache run (see
//    kv_cache.h).
//
// Sampled rows draw from the model's plain softmax over their allowed ids
// (gpt/sampler.h); ordered requests run best-first search with fixed
// budgets of 2^16 frontier nodes and expansions and a 32 MiB KV trie.
//
// Results are deterministic in (model, request): row r of a request draws
// from Rng(seed, "serve.row/r"), so the same request returns the same
// passwords whatever the batch composition, worker count, or batching
// mode. Password *order* within a response follows row completion order
// and is only deterministic with a single worker.
//
// Observability: queue-depth gauge, admit/reject/timeout/complete
// counters, batch-occupancy and request-latency histograms in the global
// obs registry ("serve.*"), plus one "serve/request" trace span per
// completed request and a "serve/batch" span per model call.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "gpt/infer.h"
#include "gpt/kv_cache.h"
#include "gpt/model.h"
#include "pcfg/pcfg_model.h"

namespace ppg::serve {

/// What the request conditions generation on.
enum class RequestKind {
  kPattern,  ///< <BOS> pattern <SEP>; empty pattern = sample one from the
             ///< service's PatternDistribution (seeded by the request)
  kPrefix,   ///< <BOS> pattern <SEP> chars: continue a fixed password prefix
  kFree,     ///< bare <BOS>: the model emits pattern, <SEP>, password itself
  kOrdered,  ///< <BOS> pattern <SEP>, best-first enumerated: the top_k most
             ///< likely passwords in descending probability (src/search),
             ///< no duplicates, log-probs returned alongside
};

/// One guess request.
struct Request {
  RequestKind kind = RequestKind::kPattern;
  std::string pattern;  ///< PCFG pattern string, e.g. "L6N2"
  std::string prefix;   ///< fixed password prefix (kPrefix only)
  std::size_t count = 1;
  std::uint64_t seed = 0;
  double timeout_ms = 0.0;  ///< 0 = no deadline
  bool strict = true;       ///< conformance mask (pattern kinds)
  /// kOrdered only: how many top guesses to enumerate. Must be > 0 and at
  /// most ServiceConfig::max_ordered_top_k; `count` is ignored.
  std::size_t top_k = 0;
  /// kOrdered only: wall-clock search budget. The anytime contract makes
  /// this a *soft* stop: the response completes kOk with the best guesses
  /// found so far (possibly fewer than top_k). 0 = no budget. Distinct
  /// from timeout_ms, which expires requests still waiting in the queue.
  double deadline_ms = 0.0;
};

/// Terminal request status. Every submitted request gets exactly one.
enum class Status {
  kOk,        ///< completed (passwords may be < count if attempts ran out)
  kRejected,  ///< never admitted; see Response::reject
  kTimeout,   ///< deadline passed while queued; partial passwords returned
};

/// Why a request was rejected at admission.
enum class Reject {
  kNone,
  kQueueFull,      ///< backpressure: admission queue at capacity
  kShuttingDown,   ///< service is draining
  kBadRequest,     ///< unparseable pattern/prefix, zero or over-limit count
};

const char* status_name(Status s) noexcept;
const char* reject_name(Reject r) noexcept;

/// One guess response.
struct Response {
  Status status = Status::kOk;
  Reject reject = Reject::kNone;
  std::string error;  ///< human-readable detail for kRejected
  std::vector<std::string> passwords;
  /// kOrdered responses: log P(passwords[i]) under the model, parallel to
  /// `passwords`, monotone non-increasing. Empty for sampled kinds.
  std::vector<double> log_probs;
  std::size_t invalid = 0;  ///< attempts that decoded to no password
  double queue_ms = 0.0;    ///< admission -> first row scheduled
  double total_ms = 0.0;    ///< admission -> terminal status
};

/// Service knobs.
struct ServiceConfig {
  std::size_t workers = 1;
  std::size_t max_queue = 256;  ///< admitted-but-unfinished request cap
  std::size_t max_count = 4096; ///< per-request count cap
  std::size_t max_batch = 64;   ///< rows per model call
  /// When false every model call serves exactly one request (the
  /// comparison baseline for bench_serve_throughput).
  bool batching = true;
  /// Give up on a request after count*max_attempt_factor generation rows.
  int max_attempt_factor = 4;
  /// Numeric substrate of the worker sessions that sample: kInt8 serves
  /// sampled guesses through the quantized GEMM path (bounded logits
  /// error, faster at few rows a step); ordered requests always run fp32
  /// and skip the prefix cache when the sampled side is quantized.
  gpt::Precision precision = gpt::Precision::kFp32;
  /// Byte budget of the cross-request prefix KV cache (0 disables it).
  /// Hits skip re-priming repeated pattern prefixes; responses are
  /// bitwise identical either way.
  std::size_t prefix_cache_bytes = std::size_t(32) << 20;
  /// Cap on Request::top_k for kOrdered requests; larger asks are rejected
  /// at submit with a reason (ordered search holds a worker for the whole
  /// enumeration, so the cap is the operator's cost-control knob).
  std::size_t max_ordered_top_k = 512;
};

/// The serving engine. The model and pattern distribution must outlive it.
class GuessService {
 public:
  GuessService(const gpt::GptModel& model,
               const pcfg::PatternDistribution& patterns, ServiceConfig cfg);
  ~GuessService();  ///< calls shutdown()

  GuessService(const GuessService&) = delete;
  GuessService& operator=(const GuessService&) = delete;

  /// Admits (or rejects) a request. Never blocks: on rejection the
  /// returned future is already satisfied with Status::kRejected.
  std::future<Response> submit(Request req);

  /// Convenience: submit and block for the response.
  Response submit_and_wait(Request req) { return submit(std::move(req)).get(); }

  /// Stops admission, drains every admitted request, joins the workers.
  /// Idempotent; safe to call concurrently with submitters.
  void shutdown();

  /// Fast shutdown: stops admission and *rejects* (Reject::kShuttingDown)
  /// every admitted request that was never scheduled, instead of serving
  /// it. Requests with rows already in flight complete with whatever they
  /// have (kOk, possibly fewer than count); nothing new is scheduled and
  /// invalid rows are not retried. Every submitted future still resolves
  /// exactly once — a stop() never silently drops work, it names it.
  /// Idempotent, safe concurrently with submitters and with shutdown().
  void stop();

  /// Requests admitted and not yet scheduled to their last batch.
  std::size_t queued() const;

  const ServiceConfig& config() const noexcept { return cfg_; }
  /// The model and pattern distribution this service serves (for wire-level
  /// ops — e.g. a D&C-GEN shard job — that need more than submit()).
  const gpt::GptModel& model() const noexcept { return model_; }
  const pcfg::PatternDistribution& patterns() const noexcept {
    return patterns_;
  }

 private:
  struct Pending;
  struct RowRef {
    std::shared_ptr<Pending> req;
    std::size_t row_index;  ///< rng-stream index of this row
  };

  std::future<Response> reject(Request&& req, Reject why, std::string detail);
  void worker_loop(std::size_t worker_id);
  /// Pops expired/finished requests and appends runnable rows to the empty
  /// `rows`: the front request's, then (batching on, front not ordered)
  /// any other sampled request's, up to max_batch. Caller holds mu_.
  void assemble_batch_locked(std::vector<RowRef>& rows) PPG_REQUIRES(mu_);
  /// Completes `p` with `s` now. Caller holds mu_.
  void complete_locked(Pending& p, Status s) PPG_REQUIRES(mu_);
  /// Runs one assembled batch on `session`, delivering each row as it
  /// finishes.
  void execute_batch(gpt::InferenceSession& session,
                     const std::vector<RowRef>& rows);
  /// Hands one finished row's generated tokens to its request: a password,
  /// or an invalid attempt that may be retried; completes the request when
  /// it was its last row. Takes mu_.
  void deliver(const RowRef& row, std::span<const int> generated);
  /// Runs one kOrdered request to completion on the worker's fp32
  /// `session` (always a single-row batch; ordered requests never share a
  /// batch with sampled rows).
  void execute_ordered(gpt::InferenceSession& session, const RowRef& row);

  const gpt::GptModel& model_;
  const pcfg::PatternDistribution& patterns_;
  const ServiceConfig cfg_;
  /// Cross-request prefix KV cache shared by all workers (null when
  /// disabled). Mutex-guarded internally; pinned states are immutable;
  /// the pointer itself is set once in the constructor.
  std::unique_ptr<gpt::KvTrieCache> prefix_cache_;  // ppg-lint: allow(unannotated-mutex-sibling)

  mutable Mutex mu_;
  Mutex shutdown_mu_;  ///< serialises concurrent shutdown() calls
  CondVar work_cv_;
  // Pending objects reachable from queue_ follow a convention the analyzer
  // cannot express across objects: their mutable fields are only touched
  // with mu_ held (see the Pending definition in service.cpp).
  std::list<std::shared_ptr<Pending>> queue_ PPG_GUARDED_BY(mu_);
  std::uint64_t next_id_ PPG_GUARDED_BY(mu_) = 1;
  bool accepting_ PPG_GUARDED_BY(mu_) = true;
  bool draining_ PPG_GUARDED_BY(mu_) = false;
  bool stopping_ PPG_GUARDED_BY(mu_) = false;  ///< stop(): no retries either
  // Workers own per-thread InferenceSessions and a drain-then-join
  // lifecycle that a generic pool cannot express; the vector is filled in
  // the constructor and joined under shutdown_mu_, never touched by the
  // workers.
  std::vector<std::thread> workers_;  // ppg-lint: allow(naked-thread, unannotated-mutex-sibling)
};

}  // namespace ppg::serve
