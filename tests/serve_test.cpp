// GuessService + wire-protocol tests: admission/backpressure, dynamic
// batching determinism, deadline enforcement, and the graceful-shutdown
// acceptance property (every request gets exactly one terminal status).
#include "serve/service.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pcfg/pattern.h"
#include "serve/wire.h"

namespace ppg {
namespace {

using serve::GuessService;
using serve::Reject;
using serve::Request;
using serve::RequestKind;
using serve::Response;
using serve::ServiceConfig;
using serve::Status;

/// Shared tiny model/patterns fixture; random-init weights are fine because
/// strict masks force conformance and decodability.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new gpt::GptModel(gpt::Config::tiny(), 21);
    patterns_ = new pcfg::PatternDistribution();
    patterns_->add("L6N2", 3);
    patterns_->add("L4N4", 2);
    patterns_->add("N6", 1);
    patterns_->finalize();
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete patterns_;
    patterns_ = nullptr;
  }

  static Request pattern_req(std::string pattern, std::size_t count,
                             std::uint64_t seed) {
    Request r;
    r.kind = RequestKind::kPattern;
    r.pattern = std::move(pattern);
    r.count = count;
    r.seed = seed;
    return r;
  }

  static gpt::GptModel* model_;
  static pcfg::PatternDistribution* patterns_;
};

gpt::GptModel* ServeTest::model_ = nullptr;
pcfg::PatternDistribution* ServeTest::patterns_ = nullptr;

TEST_F(ServeTest, PatternRequestsConform) {
  GuessService svc(*model_, *patterns_, {});
  const Response r = svc.submit_and_wait(pattern_req("L4N2S1", 8, 42));
  ASSERT_EQ(r.status, Status::kOk);
  ASSERT_EQ(r.passwords.size(), 8u);
  const auto segs = *pcfg::parse_pattern("L4N2S1");
  for (const auto& pw : r.passwords)
    EXPECT_TRUE(pcfg::matches_pattern(pw, segs)) << pw;
  EXPECT_GE(r.total_ms, r.queue_ms);
}

TEST_F(ServeTest, EmptyPatternSamplesFromDistribution) {
  GuessService svc(*model_, *patterns_, {});
  const Response r = svc.submit_and_wait(pattern_req("", 4, 7));
  ASSERT_EQ(r.status, Status::kOk);
  ASSERT_EQ(r.passwords.size(), 4u);
  // All rows share the request's (sampled) pattern.
  const auto segs = pcfg::segment(r.passwords[0]);
  ASSERT_FALSE(segs.empty());
  for (const auto& pw : r.passwords)
    EXPECT_TRUE(pcfg::matches_pattern(pw, segs)) << pw;
}

TEST_F(ServeTest, PrefixRequestContinuesPrefix) {
  GuessService svc(*model_, *patterns_, {});
  Request r;
  r.kind = RequestKind::kPrefix;
  r.pattern = "L4N2";
  r.prefix = "Ab";
  r.count = 5;
  r.seed = 3;
  const Response resp = svc.submit_and_wait(std::move(r));
  ASSERT_EQ(resp.status, Status::kOk);
  ASSERT_EQ(resp.passwords.size(), 5u);
  const auto segs = *pcfg::parse_pattern("L4N2");
  for (const auto& pw : resp.passwords) {
    EXPECT_EQ(pw.substr(0, 2), "Ab") << pw;
    EXPECT_TRUE(pcfg::matches_pattern(pw, segs)) << pw;
  }
}

TEST_F(ServeTest, ResultsIndependentOfBatchGeometry) {
  // The same requests must yield identical responses whatever the batch
  // size or batching mode: row r draws from Rng(seed, "serve.row/r").
  // Requests of different prefix lengths and kinds share batches, each row
  // at its own position.
  const auto run = [&](std::size_t max_batch, bool batching) {
    ServiceConfig cfg;
    cfg.max_batch = max_batch;
    cfg.batching = batching;
    GuessService svc(*model_, *patterns_, cfg);
    std::vector<std::future<Response>> futs;
    for (int i = 0; i < 6; ++i)
      futs.push_back(svc.submit(pattern_req("L6N2", 7, 100 + i)));
    futs.push_back(svc.submit(pattern_req("L4", 5, 110)));
    futs.push_back(svc.submit(pattern_req("N6", 4, 111)));
    Request prefix;
    prefix.kind = RequestKind::kPrefix;
    prefix.pattern = "L4N2";
    prefix.prefix = "Ab";
    prefix.count = 3;
    prefix.seed = 112;
    futs.push_back(svc.submit(prefix));
    Request free;
    free.kind = RequestKind::kFree;
    free.count = 4;
    free.seed = 113;
    futs.push_back(svc.submit(free));
    std::vector<std::vector<std::string>> out;
    for (auto& f : futs) {
      Response r = f.get();
      EXPECT_EQ(r.status, Status::kOk);
      out.push_back(std::move(r.passwords));
    }
    return out;
  };
  const auto small_batched = run(4, true);
  const auto large_batched = run(64, true);
  const auto unbatched = run(64, false);
  // Fixed-length L6N2 rows finish together, in row order.
  const auto first6 = [](const std::vector<std::vector<std::string>>& v) {
    return std::vector<std::vector<std::string>>(v.begin(), v.begin() + 6);
  };
  EXPECT_EQ(first6(small_batched), first6(large_batched));
  EXPECT_EQ(first6(small_batched), first6(unbatched));
  // Other rows finish when they draw <EOS>, so order within a response may
  // differ; the passwords may not.
  const auto sorted = [](std::vector<std::vector<std::string>> v) {
    for (auto& pws : v) std::sort(pws.begin(), pws.end());
    return v;
  };
  EXPECT_EQ(sorted(small_batched), sorted(large_batched));
  EXPECT_EQ(sorted(small_batched), sorted(unbatched));
}

TEST_F(ServeTest, BadRequestsRejectImmediately) {
  GuessService svc(*model_, *patterns_, {});
  const auto expect_bad = [&](Request r) {
    const Response resp = svc.submit_and_wait(std::move(r));
    EXPECT_EQ(resp.status, Status::kRejected);
    EXPECT_EQ(resp.reject, Reject::kBadRequest);
    EXPECT_FALSE(resp.error.empty());
  };
  expect_bad(pattern_req("L4", 0, 1));          // zero count
  expect_bad(pattern_req("Z9", 1, 1));          // unknown class tag
  expect_bad(pattern_req("L99", 1, 1));         // segment > 12
  expect_bad(pattern_req("L4", 1 << 20, 1));    // over max_count
  Request p;
  p.kind = RequestKind::kPrefix;
  p.pattern = "L4";
  p.prefix = "a1";  // digit where the pattern wants a letter
  expect_bad(std::move(p));
  Request q;
  q.kind = RequestKind::kPrefix;
  q.pattern = "L4";
  q.prefix = "";  // prefix kind without a prefix
  expect_bad(std::move(q));
}

TEST_F(ServeTest, QueueFullBackpressure) {
  ServiceConfig cfg;
  cfg.max_queue = 2;
  GuessService svc(*model_, *patterns_, cfg);
  // Saturate: the first request may be picked up instantly, but the queue
  // holds at most 2, so among many instant submits some must bounce.
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 16; ++i)
    futs.push_back(svc.submit(pattern_req("L6N2", 32, i)));
  std::size_t ok = 0, queue_full = 0;
  for (auto& f : futs) {
    const Response r = f.get();
    if (r.status == Status::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(r.status, Status::kRejected);
      EXPECT_EQ(r.reject, Reject::kQueueFull);
      ++queue_full;
    }
  }
  EXPECT_GT(queue_full, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(ok + queue_full, 16u);
}

TEST_F(ServeTest, NegativeTimeoutRejectsAtSubmit) {
  GuessService svc(*model_, *patterns_, {});
  Request r = pattern_req("L6N2", 4, 1);
  r.timeout_ms = -5.0;
  const Response resp = svc.submit_and_wait(std::move(r));
  EXPECT_EQ(resp.status, Status::kRejected);
  EXPECT_EQ(resp.reject, Reject::kBadRequest);
  EXPECT_NE(resp.error.find("timeout_ms"), std::string::npos) << resp.error;
}

TEST_F(ServeTest, MidFlightDeadlineExpiresDuringCoalesce) {
  // Exercises the coalesce-loop deadline check: the heavy request's count
  // exceeds max_batch, so after the first batch it stays at the front of
  // the queue with unassigned rows. When the worker forms the next batch it
  // takes the heavy request's rows first, then scans forward and finds the
  // doomed request already past its deadline — mid-flight, not at the head.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  GuessService svc(*model_, *patterns_, cfg);
  auto heavy_fut = svc.submit(pattern_req("L6N2", 64, 1));
  Request doomed = pattern_req("L6N2", 4, 2);
  doomed.timeout_ms = 1e-6;  // expired by any later clock read
  const Response r = svc.submit_and_wait(std::move(doomed));
  EXPECT_EQ(r.status, Status::kTimeout);
  EXPECT_TRUE(r.passwords.empty());
  EXPECT_EQ(heavy_fut.get().status, Status::kOk);
}

TEST_F(ServeTest, ExpiredDeadlineTimesOutInQueue) {
  GuessService svc(*model_, *patterns_, {});
  Request heavy = pattern_req("L6N2", 64, 1);  // keeps the worker busy
  auto heavy_fut = svc.submit(std::move(heavy));
  Request doomed = pattern_req("L6N2", 4, 2);
  doomed.timeout_ms = 1e-6;  // sub-µs: expired by any later clock read
  const Response r = svc.submit_and_wait(std::move(doomed));
  EXPECT_EQ(r.status, Status::kTimeout);
  EXPECT_TRUE(r.passwords.empty());
  EXPECT_EQ(heavy_fut.get().status, Status::kOk);
}

TEST_F(ServeTest, SubmitAfterShutdownRejects) {
  GuessService svc(*model_, *patterns_, {});
  svc.shutdown();
  const Response r = svc.submit_and_wait(pattern_req("L4", 1, 1));
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_EQ(r.reject, Reject::kShuttingDown);
  svc.shutdown();  // idempotent
}

// Acceptance test: under concurrent submitters, shutdown() drains every
// admitted request, rejects late ones, and no request is ever lost or
// double-resolved — every future resolves with exactly one terminal status.
TEST_F(ServeTest, ShutdownDrainsAndRejectsLate) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_queue = 64;
  GuessService svc(*model_, *patterns_, cfg);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::future<Response>> futs[kThreads];
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i)
        futs[t].push_back(
            svc.submit(pattern_req("L6N2", 2, 1000 * t + i)));
    });
  go.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  svc.shutdown();  // concurrent with submitters
  for (auto& t : submitters) t.join();

  std::size_t ok = 0, rejected = 0;
  for (auto& per_thread : futs)
    for (auto& f : per_thread) {
      ASSERT_TRUE(f.valid());
      const Response r = f.get();  // resolves exactly once, no deadlock
      switch (r.status) {
        case Status::kOk:
          EXPECT_EQ(r.passwords.size(), 2u);
          ++ok;
          break;
        case Status::kRejected:
          EXPECT_TRUE(r.reject == Reject::kShuttingDown ||
                      r.reject == Reject::kQueueFull)
              << static_cast<int>(r.reject);
          ++rejected;
          break;
        case Status::kTimeout:
          ADD_FAILURE() << "no deadlines were set";
          break;
      }
    }
  EXPECT_EQ(ok + rejected, std::size_t(kThreads * kPerThread));
  // Everything admitted must have drained: nothing is left queued.
  EXPECT_EQ(svc.queued(), 0u);
}

TEST_F(ServeTest, PartialResultsWhenAttemptsExhausted) {
  // Free-running on a random-init model rarely decodes; with a tight
  // attempt budget the request still completes (kOk, partial passwords).
  ServiceConfig cfg;
  cfg.max_attempt_factor = 1;  // no retries at all
  GuessService svc(*model_, *patterns_, cfg);
  Request r;
  r.kind = RequestKind::kFree;
  r.count = 4;
  r.seed = 5;
  const Response resp = svc.submit_and_wait(std::move(r));
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.passwords.size() + resp.invalid, 4u);
}

// --- Prefix cache -----------------------------------------------------------

TEST_F(ServeTest, RepeatedPatternRequestsHitPrefixCache) {
  auto& m = gpt::kv_cache_metrics();
  GuessService svc(*model_, *patterns_, {});  // default: cache enabled
  const Response a = svc.submit_and_wait(pattern_req("L6N2", 4, 11));
  ASSERT_EQ(a.status, Status::kOk);
  const auto hits_before = m.hits.value();
  // Same pattern again: the <BOS> pattern <SEP> prefix is now cached, so
  // this request's batch must register cache hits — and still return the
  // exact same passwords (per-row RNG + bitwise-identical resume).
  const Response b = svc.submit_and_wait(pattern_req("L6N2", 4, 11));
  ASSERT_EQ(b.status, Status::kOk);
  EXPECT_EQ(a.passwords, b.passwords);
  EXPECT_GT(m.hits.value(), hits_before);
}

TEST_F(ServeTest, CachedResponsesMatchColdCacheRun) {
  ServiceConfig cold_cfg;
  cold_cfg.prefix_cache_bytes = 0;  // caching off: re-prime every batch
  GuessService cold(*model_, *patterns_, cold_cfg);
  GuessService warm(*model_, *patterns_, {});  // default budget
  ServiceConfig tiny_cfg;
  tiny_cfg.prefix_cache_bytes = 1;  // evicts on every insert
  GuessService tiny(*model_, *patterns_, tiny_cfg);
  // Several rounds so the warm service serves rounds >= 2 from cache and
  // the tiny one churns through insert-evict cycles; all three must agree
  // byte-for-byte (the kv_cache.h determinism contract, end to end).
  for (int round = 0; round < 3; ++round) {
    for (const char* pat : {"L6N2", "L4N4", "N6"}) {
      const Response rc = cold.submit_and_wait(pattern_req(pat, 3, 21));
      const Response rw = warm.submit_and_wait(pattern_req(pat, 3, 21));
      const Response rt = tiny.submit_and_wait(pattern_req(pat, 3, 21));
      ASSERT_EQ(rc.status, Status::kOk);
      ASSERT_EQ(rw.status, Status::kOk);
      ASSERT_EQ(rt.status, Status::kOk);
      EXPECT_EQ(rc.passwords, rw.passwords) << pat << " round " << round;
      EXPECT_EQ(rc.passwords, rt.passwords) << pat << " round " << round;
    }
  }
}

// --- Ordered requests -------------------------------------------------------

TEST_F(ServeTest, OrderedRequestYieldsDescendingUniqueGuesses) {
  // N2 keeps the search space small (100 strings): a random-init model is
  // near-uniform, and best-first expands most of the tree before emitting.
  GuessService svc(*model_, *patterns_, {});
  Request r;
  r.kind = RequestKind::kOrdered;
  r.pattern = "N2";
  r.top_k = 30;
  const Response resp = svc.submit_and_wait(std::move(r));
  ASSERT_EQ(resp.status, Status::kOk);
  ASSERT_EQ(resp.passwords.size(), 30u);
  ASSERT_EQ(resp.log_probs.size(), resp.passwords.size());
  const auto segs = *pcfg::parse_pattern("N2");
  std::set<std::string> seen;
  for (std::size_t i = 0; i < resp.passwords.size(); ++i) {
    EXPECT_TRUE(pcfg::matches_pattern(resp.passwords[i], segs))
        << resp.passwords[i];
    EXPECT_TRUE(seen.insert(resp.passwords[i]).second)
        << "duplicate guess " << resp.passwords[i];
    EXPECT_LE(resp.log_probs[i], 0.0);
    if (i > 0) {
      EXPECT_LE(resp.log_probs[i], resp.log_probs[i - 1]);
    }
  }
}

TEST_F(ServeTest, OrderedIsDeterministicAndSeedFree) {
  // Best-first search has no RNG: the seed field and the worker count must
  // not change the emitted ranking.
  ServiceConfig multi;
  multi.workers = 2;
  GuessService a(*model_, *patterns_, {});
  GuessService b(*model_, *patterns_, multi);
  Request r1;
  r1.kind = RequestKind::kOrdered;
  r1.pattern = "N4";
  r1.top_k = 12;
  r1.seed = 1;
  Request r2 = r1;
  r2.seed = 999;
  const Response ra = a.submit_and_wait(std::move(r1));
  const Response rb = b.submit_and_wait(std::move(r2));
  ASSERT_EQ(ra.status, Status::kOk);
  ASSERT_EQ(rb.status, Status::kOk);
  EXPECT_EQ(ra.passwords, rb.passwords);
  EXPECT_EQ(ra.log_probs, rb.log_probs);
}

TEST_F(ServeTest, OrderedValidatesAtAdmission) {
  ServiceConfig cfg;
  cfg.max_ordered_top_k = 16;
  GuessService svc(*model_, *patterns_, cfg);

  Request zero;
  zero.kind = RequestKind::kOrdered;
  zero.pattern = "N2";
  zero.top_k = 0;
  Response r = svc.submit_and_wait(std::move(zero));
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_EQ(r.reject, Reject::kBadRequest);
  EXPECT_NE(r.error.find("top_k"), std::string::npos) << r.error;

  Request big;
  big.kind = RequestKind::kOrdered;
  big.pattern = "N2";
  big.top_k = 17;
  r = svc.submit_and_wait(std::move(big));
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_EQ(r.reject, Reject::kBadRequest);
  EXPECT_NE(r.error.find("max_ordered_top_k"), std::string::npos) << r.error;

  Request neg;
  neg.kind = RequestKind::kOrdered;
  neg.pattern = "N2";
  neg.top_k = 4;
  neg.deadline_ms = -1.0;
  r = svc.submit_and_wait(std::move(neg));
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_EQ(r.reject, Reject::kBadRequest);
  EXPECT_NE(r.error.find("deadline_ms"), std::string::npos) << r.error;

  // Exactly at the cap is admitted and served.
  Request ok;
  ok.kind = RequestKind::kOrdered;
  ok.pattern = "N2";
  ok.top_k = 16;
  r = svc.submit_and_wait(std::move(ok));
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.passwords.size(), 16u);
}

TEST_F(ServeTest, OrderedDeadlineIsAnytime) {
  // A search deadline is a soft stop, not a failure: the request completes
  // kOk with however many best-first guesses were emitted in time.
  GuessService svc(*model_, *patterns_, {});
  Request r;
  r.kind = RequestKind::kOrdered;
  r.pattern = "L6N2";
  r.top_k = 400;
  r.deadline_ms = 0.001;
  const Response resp = svc.submit_and_wait(std::move(r));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_LE(resp.passwords.size(), 400u);
  EXPECT_EQ(resp.log_probs.size(), resp.passwords.size());
  for (std::size_t i = 1; i < resp.log_probs.size(); ++i)
    EXPECT_LE(resp.log_probs[i], resp.log_probs[i - 1]);
}

// --- Wire protocol ----------------------------------------------------------

TEST(ServeWire, ParsesFullGuessRequest) {
  std::string err;
  const auto req = serve::parse_request_line(
      R"({"op":"guess","id":"r1","kind":"prefix","pattern":"L4N2",)"
      R"("prefix":"Ab","count":10,"seed":42,"timeout_ms":250.5,"strict":false})",
      &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->op, serve::WireRequest::Op::kGuess);
  EXPECT_EQ(req->id, "r1");
  EXPECT_EQ(req->guess.kind, RequestKind::kPrefix);
  EXPECT_EQ(req->guess.pattern, "L4N2");
  EXPECT_EQ(req->guess.prefix, "Ab");
  EXPECT_EQ(req->guess.count, 10u);
  EXPECT_EQ(req->guess.seed, 42u);
  EXPECT_DOUBLE_EQ(req->guess.timeout_ms, 250.5);
  EXPECT_FALSE(req->guess.strict);
}

TEST(ServeWire, ParsesOrderedRequest) {
  std::string err;
  const auto req = serve::parse_request_line(
      R"({"op":"guess","id":"r2","kind":"ordered","pattern":"L6N2",)"
      R"("top_k":50,"deadline_ms":200})",
      &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->op, serve::WireRequest::Op::kGuess);
  EXPECT_EQ(req->id, "r2");
  EXPECT_EQ(req->guess.kind, RequestKind::kOrdered);
  EXPECT_EQ(req->guess.pattern, "L6N2");
  EXPECT_EQ(req->guess.top_k, 50u);
  EXPECT_DOUBLE_EQ(req->guess.deadline_ms, 200.0);
  // Unset fields keep their defaults.
  const auto bare = serve::parse_request_line(R"({"kind":"ordered"})");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->guess.top_k, 0u);
  EXPECT_DOUBLE_EQ(bare->guess.deadline_ms, 0.0);
}

TEST(ServeWire, DefaultsAndOtherOps) {
  auto req = serve::parse_request_line(R"({"pattern":"L8"})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->op, serve::WireRequest::Op::kGuess);
  EXPECT_EQ(req->guess.kind, RequestKind::kPattern);
  EXPECT_EQ(req->guess.count, 1u);
  EXPECT_TRUE(req->guess.strict);
  req = serve::parse_request_line(R"({"op":"stats","id":"s"})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->op, serve::WireRequest::Op::kStats);
  req = serve::parse_request_line(R"({"op":"shutdown"})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->op, serve::WireRequest::Op::kShutdown);
}

TEST(ServeWire, RejectsMalformedLines) {
  const char* bad[] = {
      "not json",
      "[1,2,3]",                               // not an object
      R"({"op":"frobnicate"})",                // unknown op
      R"({"kind":"sideways"})",                // unknown kind
      R"({"count":-3})",                       // negative count
      R"({"count":1.5})",                      // fractional count
      R"({"count":"many"})",                   // mistyped count
      R"({"timeout_ms":-1})",                  // negative deadline
      R"({"strict":"yes"})",                   // mistyped bool
      R"({"pattern":7})",                      // mistyped string
      R"({"kind":"ordered","top_k":-1})",      // negative top_k
      R"({"top_k":2.5})",                      // fractional top_k
      R"({"deadline_ms":-10})",                // negative search deadline
  };
  for (const char* line : bad) {
    std::string err;
    EXPECT_FALSE(serve::parse_request_line(line, &err).has_value()) << line;
    EXPECT_FALSE(err.empty()) << line;
  }
}

TEST(ServeWire, FormatsResponses) {
  Response ok;
  ok.status = Status::kOk;
  ok.passwords = {"abc1", "x\"y\\z"};
  ok.invalid = 1;
  ok.queue_ms = 0.5;
  ok.total_ms = 2.0;
  const std::string line = serve::format_response("r9", ok);
  EXPECT_NE(line.find("\"id\":\"r9\""), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(line.find("x\\\"y\\\\z"), std::string::npos);

  Response rej;
  rej.status = Status::kRejected;
  rej.reject = Reject::kQueueFull;
  rej.error = "admission queue is full";
  const std::string rline = serve::format_response("r2", rej);
  EXPECT_NE(rline.find("\"reject\":\"queue_full\""), std::string::npos);
  EXPECT_NE(rline.find("admission queue is full"), std::string::npos);
}

TEST(ServeWire, FormatsOrderedLogProbs) {
  Response ok;
  ok.status = Status::kOk;
  ok.passwords = {"aaaa11", "aaab12"};
  ok.log_probs = {-3.5, -4.25};
  const std::string line = serve::format_response("o1", ok);
  EXPECT_NE(line.find("\"log_probs\":[-3.5,-4.25]"), std::string::npos)
      << line;

  // Sampled responses carry no log_probs field at all.
  Response sampled;
  sampled.status = Status::kOk;
  sampled.passwords = {"aaaa11"};
  EXPECT_EQ(serve::format_response("s1", sampled).find("log_probs"),
            std::string::npos);
}

TEST(ServeWire, StreamLoopAnswersEveryLineInOrder) {
  gpt::GptModel model(gpt::Config::tiny(), 31);
  pcfg::PatternDistribution patterns;
  patterns.add("L4N2");
  patterns.finalize();
  GuessService svc(model, patterns, {});
  std::istringstream in(
      "{\"op\":\"guess\",\"id\":\"a\",\"pattern\":\"L4N2\",\"count\":2}\n"
      "garbage\n"
      "{\"op\":\"stats\",\"id\":\"b\"}\n"
      "{\"op\":\"shutdown\",\"id\":\"c\"}\n"
      "{\"op\":\"guess\",\"id\":\"never-read\"}\n");
  std::ostringstream out;
  EXPECT_TRUE(serve::serve_stream(svc, in, out));
  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // shutdown stops the reader
  EXPECT_NE(lines[0].find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("bad_request"), std::string::npos);
  EXPECT_NE(lines[2].find("\"op\":\"stats\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"op\":\"shutdown\""), std::string::npos);
}

}  // namespace
}  // namespace ppg
