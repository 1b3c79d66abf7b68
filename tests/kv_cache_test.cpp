// KV-cache test suite (DESIGN.md §10): trie-store properties (refcounts,
// LRU eviction, byte budget), snapshot/resume bitwise equivalence against
// prefill()/step(), shared K/V blocks (rows and states alias one another's
// blocks, outlive their writers, and resume() rejects foreign or broken
// states), and the differential determinism suite — dc_generate
// with the cache enabled must be byte-identical to the cache disabled for
// any seed, thread count, and byte budget (including budgets tiny enough
// to evict on every insert).
#include "gpt/kv_cache.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dcgen.h"
#include "gpt/infer.h"
#include "gpt/model.h"
#include "obs/metrics.h"
#include "pcfg/pattern.h"
#include "pcfg/pcfg_model.h"
#include "test_util.h"
#include "tokenizer/tokenizer.h"

namespace ppg::gpt {
namespace {

/// A small synthetic KvState with recognisable contents: layer l's K
/// floats are base + l and its V floats base - l at every position.
KvState make_state(Index len, int layers, Index d, Index vocab, float base) {
  KvState s;
  s.block_floats = 2 * layers * d;
  for (Index pos = 0; pos < len; ++pos) {
    auto block = std::make_shared_for_overwrite<float[]>(
        static_cast<std::size_t>(s.block_floats));
    for (int l = 0; l < layers; ++l)
      for (Index i = 0; i < d; ++i) {
        block[2 * l * d + i] = base + float(l);
        block[2 * l * d + d + i] = base - float(l);
      }
    s.blocks.push_back(std::move(block));
  }
  s.logits.assign(static_cast<std::size_t>(vocab), base * 2.f);
  return s;
}

/// Layer 0's first K float of `s` at position 0.
float first_k(const KvState& s) { return s.blocks[0][0]; }

TEST(KvTrieCache, InsertFindRoundTrip) {
  KvTrieCache cache(std::size_t(1) << 20);
  const std::vector<int> p = {3, 7, 11};
  EXPECT_FALSE(cache.find(p));
  cache.insert(p, make_state(3, 2, 4, 8, 1.f));
  auto h = cache.find(p);
  ASSERT_TRUE(h);
  EXPECT_EQ(h.len(), 3);
  ASSERT_NE(h.state(), nullptr);
  EXPECT_EQ(first_k(*h.state()), 1.f);
  EXPECT_EQ(h.state()->blocks[0][2 * 4 + 4], 0.f);  // layer 1's first V
  EXPECT_EQ(cache.nodes(), 1u);
  EXPECT_EQ(cache.bytes(), h.state()->bytes());
}

TEST(KvTrieCache, FindLongestReturnsDeepestAncestor) {
  KvTrieCache cache(std::size_t(1) << 20);
  cache.insert(std::vector<int>{1}, make_state(1, 1, 2, 4, 1.f));
  cache.insert(std::vector<int>{1, 2, 3}, make_state(3, 1, 2, 4, 3.f));
  const std::vector<int> query = {1, 2, 3, 4, 5};
  auto h = cache.find_longest(query);
  ASSERT_TRUE(h);
  EXPECT_EQ(h.len(), 3);
  EXPECT_EQ(first_k(*h.state()), 3.f);
  // A query sharing only the first token resolves to the depth-1 state.
  auto h1 = cache.find_longest(std::vector<int>{1, 9});
  ASSERT_TRUE(h1);
  EXPECT_EQ(h1.len(), 1);
  // No shared prefix at all: empty handle.
  EXPECT_FALSE(cache.find_longest(std::vector<int>{2, 3}));
}

TEST(KvTrieCache, FirstInsertWins) {
  KvTrieCache cache(std::size_t(1) << 20);
  const std::vector<int> p = {5, 6};
  cache.insert(p, make_state(2, 1, 2, 4, 1.f));
  const std::size_t bytes = cache.bytes();
  cache.insert(p, make_state(2, 1, 2, 4, 99.f));
  EXPECT_EQ(cache.nodes(), 1u);
  EXPECT_EQ(cache.bytes(), bytes);
  auto h = cache.find(p);
  ASSERT_TRUE(h);
  EXPECT_EQ(first_k(*h.state()), 1.f);  // the original survived
}

TEST(KvTrieCache, BudgetRespectedWhenUnpinned) {
  const std::size_t unit = make_state(2, 1, 4, 8, 0.f).bytes();
  KvTrieCache cache(2 * unit + unit / 2);
  for (int i = 0; i < 10; ++i)
    cache.insert(std::vector<int>{i}, make_state(2, 1, 4, 8, float(i)));
  EXPECT_LE(cache.bytes(), cache.max_bytes);
  EXPECT_LE(cache.nodes(), 2u);
  EXPECT_GE(cache.nodes(), 1u);
}

TEST(KvTrieCache, ZeroBudgetDegradesToNoCaching) {
  KvTrieCache cache(0);
  cache.insert(std::vector<int>{1, 2}, make_state(2, 1, 2, 4, 1.f));
  EXPECT_EQ(cache.nodes(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.find(std::vector<int>{1, 2}));
}

TEST(KvTrieCache, EvictionNeverFreesPinnedNode) {
  const std::size_t unit = make_state(2, 1, 4, 8, 0.f).bytes();
  KvTrieCache cache(unit);  // room for exactly one unpinned state
  cache.insert(std::vector<int>{1}, make_state(2, 1, 4, 8, 7.f));
  auto pin = cache.find(std::vector<int>{1});
  ASSERT_TRUE(pin);
  EXPECT_EQ(cache.pinned_nodes(), 1u);
  // Flood with inserts: each new unpinned state is itself evicted to meet
  // the budget, but the pinned node must survive untouched.
  for (int i = 10; i < 20; ++i)
    cache.insert(std::vector<int>{i}, make_state(2, 1, 4, 8, float(i)));
  ASSERT_NE(pin.state(), nullptr);
  EXPECT_EQ(first_k(*pin.state()), 7.f);
  EXPECT_EQ(pin.state()->logits[0], 14.f);
  auto again = cache.find(std::vector<int>{1});
  EXPECT_TRUE(again);
  again.release();
  // Once released, the node is evictable again: the next insert that
  // overflows the budget may push it out.
  pin.release();
  EXPECT_EQ(cache.pinned_nodes(), 0u);
  cache.insert(std::vector<int>{99}, make_state(2, 1, 4, 8, 99.f));
  EXPECT_LE(cache.bytes(), cache.max_bytes);
}

TEST(KvTrieCache, LruEvictsLeastRecentlyUsed) {
  const std::size_t unit = make_state(1, 1, 4, 8, 0.f).bytes();
  KvTrieCache cache(2 * unit);
  cache.insert(std::vector<int>{1}, make_state(1, 1, 4, 8, 1.f));
  cache.insert(std::vector<int>{2}, make_state(1, 1, 4, 8, 2.f));
  cache.find(std::vector<int>{1}).release();  // touch 1 -> MRU
  cache.insert(std::vector<int>{3}, make_state(1, 1, 4, 8, 3.f));
  EXPECT_TRUE(cache.find(std::vector<int>{1}));
  EXPECT_FALSE(cache.find(std::vector<int>{2}));  // the LRU victim
  EXPECT_TRUE(cache.find(std::vector<int>{3}));
}

TEST(KvTrieCache, ReleasedPinReentersAsMostRecentlyUsed) {
  // A pin taken from the middle of the LRU order and held across inserts
  // re-enters at the back when released: it outlives every node inserted
  // before its release, and the rest go in insertion order.
  const std::size_t unit = make_state(1, 1, 4, 8, 0.f).bytes();
  KvTrieCache cache(4 * unit);
  for (int i = 1; i <= 3; ++i)
    cache.insert(std::vector<int>{i}, make_state(1, 1, 4, 8, float(i)));
  auto pin = cache.find(std::vector<int>{2});
  ASSERT_TRUE(pin);
  cache.insert(std::vector<int>{4}, make_state(1, 1, 4, 8, 4.f));
  pin.release();  // LRU order now 1, 3, 4, 2
  for (int i = 5; i <= 7; ++i)  // each evicts the front: 1, then 3, then 4
    cache.insert(std::vector<int>{i}, make_state(1, 1, 4, 8, float(i)));
  for (const int gone : {1, 3, 4})
    EXPECT_FALSE(cache.find(std::vector<int>{gone})) << gone;
  for (const int kept : {2, 5, 6, 7})
    EXPECT_TRUE(cache.find(std::vector<int>{kept})) << kept;
}

TEST(KvTrieCache, ReleaseIsIdempotent) {
  KvTrieCache cache(std::size_t(1) << 20);
  cache.insert(std::vector<int>{4}, make_state(1, 1, 2, 4, 4.f));
  auto h = cache.find(std::vector<int>{4});
  ASSERT_TRUE(h);
  EXPECT_EQ(cache.pinned_nodes(), 1u);
  h.release();
  EXPECT_EQ(cache.pinned_nodes(), 0u);
  h.release();  // second release must be a no-op, not an underflow
  EXPECT_EQ(cache.pinned_nodes(), 0u);
  EXPECT_FALSE(h);
}

TEST(KvTrieCache, InsertUnderPinWalksOnAndReturnsTheChildsPin) {
  KvTrieCache cache(std::size_t(1) << 20);
  auto& m = kv_cache_metrics();
  const auto lookups0 = m.hits.value() + m.misses.value();
  auto parent = cache.insert({}, std::vector<int>{5, 6},
                             make_state(2, 1, 4, 8, 1.f));
  ASSERT_TRUE(parent);
  // A second pin on the parent is consumed; the parent's own stays.
  auto child = cache.insert(parent.share(), std::vector<int>{7},
                            make_state(3, 1, 4, 8, 2.f));
  ASSERT_TRUE(child);
  EXPECT_EQ(first_k(*child.state()), 2.f);
  EXPECT_EQ(cache.pinned_nodes(), 2u);
  // First insert wins: storing the same prefix again pins the resident
  // state.
  auto again = cache.insert(parent.share(), std::vector<int>{7},
                            make_state(3, 1, 4, 8, 9.f));
  EXPECT_EQ(again.state(), child.state());
  again.release();
  // Neither insert looked anything up.
  EXPECT_EQ(m.hits.value() + m.misses.value(), lookups0);
  // The child sits under the parent's prefix.
  child.release();
  auto found = cache.find(std::vector<int>{5, 6, 7});
  ASSERT_TRUE(found);
  EXPECT_EQ(first_k(*found.state()), 2.f);
  found.release();
  // Consuming the parent's last pin leaves nothing pinned but the new
  // child.
  auto grandchild = cache.insert(std::move(parent), std::vector<int>{8},
                                 make_state(3, 1, 4, 8, 3.f));
  EXPECT_FALSE(parent);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(grandchild);
  EXPECT_EQ(cache.pinned_nodes(), 1u);
  EXPECT_EQ(cache.nodes(), 3u);
}

TEST(KvTrieCache, InsertUnderPinReleasesTheParentBeforeStoring) {
  // A budget of one state: the parent, released by the insert before the
  // child is stored, is the LRU victim, and the child stays, pinned.
  const std::size_t unit = make_state(1, 1, 4, 8, 0.f).bytes();
  KvTrieCache cache(unit);
  auto parent = cache.insert({}, std::vector<int>{1},
                             make_state(1, 1, 4, 8, 1.f));
  ASSERT_TRUE(parent);
  auto child = cache.insert(std::move(parent), std::vector<int>{2},
                            make_state(1, 1, 4, 8, 2.f));
  ASSERT_TRUE(child);
  EXPECT_EQ(first_k(*child.state()), 2.f);
  EXPECT_EQ(cache.nodes(), 1u);
  // While another pin holds the parent, the child is the one evicted, at
  // once: the insert returns no pin.
  auto held = cache.find(std::vector<int>{1, 2});
  ASSERT_TRUE(held);
  child.release();
  auto grandchild = cache.insert(held.share(), std::vector<int>{3},
                                 make_state(1, 1, 4, 8, 3.f));
  EXPECT_FALSE(grandchild);
  EXPECT_TRUE(held);
  EXPECT_EQ(cache.nodes(), 1u);
  EXPECT_EQ(cache.pinned_nodes(), 1u);
}

TEST(KvTrieCache, MetricsTrackHitsMissesEvictions) {
  auto& m = kv_cache_metrics();
  const auto hits0 = m.hits.value();
  const auto misses0 = m.misses.value();
  const auto evicted0 = m.evictions.value();
  const std::size_t unit = make_state(1, 1, 4, 8, 0.f).bytes();
  KvTrieCache cache(unit);
  cache.find(std::vector<int>{1}).release();  // miss
  cache.insert(std::vector<int>{1}, make_state(1, 1, 4, 8, 1.f));
  cache.find(std::vector<int>{1}).release();  // hit
  cache.insert(std::vector<int>{2}, make_state(1, 1, 4, 8, 2.f));  // evicts
  EXPECT_GE(m.hits.value(), hits0 + 1);
  EXPECT_GE(m.misses.value(), misses0 + 1);
  EXPECT_GE(m.evictions.value(), evicted0 + 1);
}

// Concurrency smoke for the TSan job (`sanitize` label): threads hammer a
// budget-constrained cache with overlapping prefixes, reading pinned state
// contents while other threads force eviction around them.
TEST(KvTrieCache, ConcurrentInsertFindEvictStress) {
  const std::size_t unit = make_state(2, 2, 8, 16, 0.f).bytes();
  KvTrieCache cache(6 * unit);
  std::vector<std::thread> threads;  // test-only; prod code uses ThreadPool
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 300; ++i) {
        const std::vector<int> prefix = {i % 7, (i + t) % 5};
        if (i % 3 == 0) {
          cache.insert(prefix, make_state(2, 2, 8, 16, float(i % 7)));
        } else {
          auto h = cache.find_longest(prefix);
          if (h) {
            // Read through the pin; eviction must never free this.
            volatile float sink = first_k(*h.state());
            (void)sink;
            EXPECT_LE(h.len(), 2);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.pinned_nodes(), 0u);
  EXPECT_LE(cache.bytes(), cache.max_bytes);
}

/// Shared random-init tiny model (weights don't matter for bitwise
/// equivalence properties; strict masks keep dcgen outputs decodable).
const GptModel& test_model() {
  static const GptModel model(Config::tiny(), 33);
  return model;
}

std::vector<int> test_prefix() {
  const auto segs = *pcfg::parse_pattern("L4N2");
  return tok::Tokenizer::encode_generation_prefix(segs);
}

TEST(KvSessionResume, FullDepthResumeRestoresLogitsBitwise) {
  const auto& model = test_model();
  const auto prefix = test_prefix();
  InferenceSession ref(model);
  const auto ref_logits = testing::prefill_one(ref, prefix);
  const KvState snap = ref.snapshot(0);
  EXPECT_EQ(snap.len(), static_cast<Index>(prefix.size()));

  InferenceSession resumed(model);
  resumed.reset(3);  // fan one snapshot out to a 3-row batch
  for (Index r = 0; r < 3; ++r) resumed.resume(r, snap);
  for (Index r = 0; r < 3; ++r) {
    const auto got = resumed.logits_row(r);
    EXPECT_TRUE(std::equal(ref_logits.begin(), ref_logits.end(), got.begin()))
        << "row " << r;
  }
}

TEST(KvSessionResume, ResumedStepMatchesPrimedStepBitwise) {
  const auto& model = test_model();
  const auto prefix = test_prefix();
  InferenceSession ref(model);
  ref.prefill(std::vector<PrefillRow>(2, PrefillRow{prefix}));
  KvState snap = ref.snapshot(1);

  InferenceSession resumed(model);
  resumed.reset(2);
  for (Index r = 0; r < 2; ++r) resumed.resume(r, snap);
  // Continue decoding the same token on both sessions: the KV restored
  // from the snapshot must behave exactly like the KV the session built.
  const std::vector<int> next = {prefix.back(), prefix.back()};
  ref.step(next);
  resumed.step(next);
  for (Index r = 0; r < 2; ++r) {
    const auto a = ref.logits_row(r);
    const auto b = resumed.logits_row(r);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "row " << r;
  }
}

TEST(KvSessionResume, PartialDepthResumePlusPrimeMatchesFullPrime) {
  const auto& model = test_model();
  const auto prefix = test_prefix();
  ASSERT_GE(prefix.size(), 3u);
  const std::size_t cut = prefix.size() / 2;

  InferenceSession ref(model);
  const auto want = testing::prefill_one(ref, prefix);

  InferenceSession half(model);
  testing::prefill_one(half, std::span<const int>(prefix).subspan(0, cut));
  const KvState snap = half.snapshot(0);

  InferenceSession resumed(model);
  const auto got = testing::prefill_one(resumed, prefix, &snap);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
}

TEST(KvSessionResume, ResumeRowsMixedStatesMatchPerRowReference) {
  const auto& model = test_model();
  const auto pa = test_prefix();
  auto pb = pa;
  pb.back() = pa.front();  // a second, different prefix of equal length

  InferenceSession sa(model);
  testing::prefill_one(sa, pa);
  const KvState snap_a = sa.snapshot(0);
  InferenceSession sb(model);
  testing::prefill_one(sb, pb);
  const KvState snap_b = sb.snapshot(0);
  // A shallower state: pa without its last two tokens.
  const std::size_t cut = pa.size() - 2;
  InferenceSession sc(model);
  testing::prefill_one(sc, std::span<const int>(pa).first(cut));
  const KvState snap_c = sc.snapshot(0);

  const std::vector<const KvState*> states = {&snap_a, &snap_b, &snap_a};
  InferenceSession mixed(model);
  mixed.reset(static_cast<Index>(states.size()));
  for (std::size_t r = 0; r < states.size(); ++r)
    mixed.resume(static_cast<Index>(r), *states[r]);
  const std::vector<int> next = {pa.back(), pb.back(), pa.back()};
  mixed.step(next);
  sa.step(std::vector<int>{pa.back()});
  sb.step(std::vector<int>{pb.back()});
  const auto wa = sa.logits_row(0);
  const auto wb = sb.logits_row(0);
  EXPECT_TRUE(std::equal(wa.begin(), wa.end(), mixed.logits_row(0).begin()));
  EXPECT_TRUE(std::equal(wb.begin(), wb.end(), mixed.logits_row(1).begin()));
  EXPECT_TRUE(std::equal(wa.begin(), wa.end(), mixed.logits_row(2).begin()));

  // Rows resumed at different depths in one batch: row 0 from the full pa
  // state, row 1 from the shallower one, row 2 fresh. One prefill brings
  // each to the end of pa at its own position, and every row's logits
  // match a cold single-row prefill of pa bitwise.
  InferenceSession cold(model);
  const auto want = testing::prefill_one(cold, pa);
  const std::vector<PrefillRow> starts = {
      {pa, &snap_a}, {pa, &snap_c}, {pa, nullptr}};
  InferenceSession ragged(model);
  const PrefillCounts n = ragged.prefill(starts);
  EXPECT_EQ(n.saved, pa.size() + cut);
  EXPECT_EQ(n.tokens, (pa.size() - cut) + pa.size());
  for (Index r = 0; r < 3; ++r) {
    EXPECT_EQ(ragged.position(r), static_cast<Index>(pa.size()));
    const auto got = ragged.logits_row(r);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
        << "row " << r;
  }
  // A state deeper than the row's tokens is rejected, not half-used.
  const std::vector<PrefillRow> too_deep = {
      {std::span<const int>(pa).first(cut), &snap_a}};
  EXPECT_THROW(ragged.prefill(too_deep), std::invalid_argument);
}

TEST(KvSessionResume, IdenticalPrefillRowsStepOnceAndMatchSoloRuns) {
  // A D&C-GEN leaf's rows share one prefix span and one state. prefill()
  // steps the first row of such a run and shares its blocks and logits
  // with the others, so the model steps one row's remaining
  // positions instead of four; every row still reads as if it ran alone,
  // and the returned ledger still counts every row.
  const auto& model = test_model();
  const auto pa = test_prefix();
  auto pb = pa;
  pb.back() = pa.front();
  const std::size_t cut = pa.size() - 2;
  InferenceSession half(model);
  testing::prefill_one(half, std::span<const int>(pa).first(cut));
  const KvState snap = half.snapshot(0);

  InferenceSession solo(model);
  const auto la = testing::prefill_one(solo, pa);
  const std::vector<float> want_a(la.begin(), la.end());
  const auto lb = testing::prefill_one(solo, pb);
  const std::vector<float> want_b(lb.begin(), lb.end());

  const std::vector<PrefillRow> rows = {
      {pa, &snap}, {pa, &snap}, {pa, &snap}, {pa, &snap}, {pb, nullptr}};
  obs::Counter& stepped = obs::Registry::global().counter("infer.tokens");
  InferenceSession s(model);
  const std::uint64_t before = stepped.value();
  const PrefillCounts n = s.prefill(rows);
  EXPECT_EQ(stepped.value() - before, (pa.size() - cut) + pb.size());
  EXPECT_EQ(n.saved, 4 * cut);
  EXPECT_EQ(n.tokens, 4 * (pa.size() - cut) + pb.size());
  for (Index r = 0; r < 5; ++r) {
    const std::vector<float>& want = r < 4 ? want_a : want_b;
    EXPECT_EQ(s.position(r), static_cast<Index>(r < 4 ? pa.size() : pb.size()));
    const auto got = s.logits_row(r);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
        << "row " << r;
  }
}

/// Whether `a` holds exactly `b`'s blocks for its first b.len() positions:
/// the same pointers, so no float was copied between them.
bool shares_blocks(const KvState& a, const KvState& b) {
  if (a.len() < b.len()) return false;
  for (Index p = 0; p < b.len(); ++p)
    if (a.blocks[static_cast<std::size_t>(p)] !=
        b.blocks[static_cast<std::size_t>(p)])
      return false;
  return true;
}

TEST(KvSharedBlocks, PrefillAndResumeShareBlocksWithTheirSource) {
  const auto& model = test_model();
  const auto prefix = test_prefix();
  const std::size_t cut = prefix.size() - 2;
  InferenceSession half(model);
  testing::prefill_one(half, std::span<const int>(prefix).first(cut));
  const KvState snap = half.snapshot(0);
  ASSERT_EQ(snap.len(), static_cast<Index>(cut));

  // Identical prefill rows: row 0 steps; rows 1 and 2 hold its blocks,
  // including the ones past the snapshot that row 0 wrote.
  InferenceSession s(model);
  s.prefill(std::vector<PrefillRow>(3, PrefillRow{prefix, &snap}));
  const KvState first = s.snapshot(0);
  EXPECT_EQ(first.len(), static_cast<Index>(prefix.size()));
  EXPECT_TRUE(shares_blocks(first, snap));
  for (Index r = 1; r < 3; ++r) {
    const KvState other = s.snapshot(r);
    EXPECT_EQ(other.len(), first.len());
    EXPECT_TRUE(shares_blocks(other, first)) << "row " << r;
  }

  // A resumed row holds the state's blocks; stepping it appends a block
  // to the row's list and leaves the state's list as it was.
  InferenceSession resumed(model);
  resumed.reset(1);
  resumed.resume(0, snap);
  EXPECT_TRUE(shares_blocks(resumed.snapshot(0), snap));
  resumed.step(std::vector<int>{prefix[cut]});
  const KvState stepped = resumed.snapshot(0);
  EXPECT_EQ(stepped.len(), snap.len() + 1);
  EXPECT_TRUE(shares_blocks(stepped, snap));
  EXPECT_EQ(snap.len(), static_cast<Index>(cut));
}

TEST(KvSharedBlocks, StateOutlivesItsSessionAndItsCacheEntry) {
  const auto& model = test_model();
  const auto prefix = test_prefix();
  const std::size_t cut = prefix.size() - 2;
  const std::span<const int> head = std::span<const int>(prefix).first(cut);
  InferenceSession solo(model);
  const auto full = testing::prefill_one(solo, prefix);
  const std::vector<float> want(full.begin(), full.end());

  // The session that wrote the blocks resets, then is destroyed.
  KvState snap;
  {
    InferenceSession writer(model);
    testing::prefill_one(writer, head);
    snap = writer.snapshot(0);
    writer.reset(2);
  }
  InferenceSession after(model);
  const auto got = testing::prefill_one(after, prefix, &snap);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));

  // The trie evicts the state while a row resumed from it still holds its
  // blocks: the row finishes the prefix as if nothing happened.
  KvTrieCache cache(snap.bytes());  // room for one state
  const std::vector<int> key(head.begin(), head.end());
  cache.insert(key, std::move(snap));
  InferenceSession row(model);
  row.reset(1);
  {
    auto pin = cache.find(key);
    ASSERT_TRUE(pin);
    row.resume(0, *pin.state());
  }
  const Config& c = model.config();
  cache.insert(std::vector<int>{99},
               make_state(static_cast<Index>(cut), static_cast<int>(c.n_layers),
                          c.d_model, c.vocab, 5.f));
  EXPECT_FALSE(cache.find(key));  // evicted
  for (std::size_t p = cut; p < prefix.size(); ++p)
    row.step(std::vector<int>{prefix[p]});
  const auto resumed = row.logits_row(0);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), resumed.begin()));
}

// For the TSan job: two threads resume one cached state at once, each on
// its own session, and step on from the same shared blocks.
TEST(KvSharedBlocks, ThreadsStepFromOneCachedStateConcurrently) {
  const auto& model = test_model();
  const auto prefix = test_prefix();
  const std::size_t cut = prefix.size() - 2;
  const std::span<const int> head = std::span<const int>(prefix).first(cut);
  InferenceSession solo(model);
  const auto full = testing::prefill_one(solo, prefix);
  const std::vector<float> want(full.begin(), full.end());

  KvTrieCache cache(std::size_t(1) << 20);
  {
    InferenceSession writer(model);
    testing::prefill_one(writer, head);
    cache.insert(head, writer.snapshot(0));
  }
  std::vector<std::vector<float>> got(2);
  std::vector<std::thread> threads;  // test-only; prod code uses ThreadPool
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      InferenceSession s(model);
      for (int round = 0; round < 20; ++round) {
        auto pin = cache.find(head);
        const auto logits = testing::prefill_one(s, prefix, pin.state());
        got[t].assign(logits.begin(), logits.end());
      }
    });
  for (auto& th : threads) th.join();
  for (const auto& g : got) EXPECT_EQ(g, want);
  EXPECT_EQ(cache.pinned_nodes(), 0u);
}

TEST(KvSharedBlocks, ResumeRejectsForeignShortOrLongStates) {
  const auto& model = test_model();
  const auto prefix = test_prefix();
  InferenceSession s(model);
  testing::prefill_one(s, prefix);
  const KvState snap = s.snapshot(0);
  InferenceSession target(model);
  target.reset(1);

  EXPECT_THROW(target.resume(1, snap), std::invalid_argument);  // no row 1

  // A state from a model of another width: its blocks have another size.
  const GptModel wider(Config::small(), 33);
  InferenceSession other(wider);
  testing::prefill_one(other, prefix);
  EXPECT_THROW(target.resume(0, other.snapshot(0)), std::invalid_argument);

  KvState holed = snap;
  holed.blocks[1] = nullptr;
  EXPECT_THROW(target.resume(0, holed), std::invalid_argument);

  KvState too_long = snap;
  too_long.blocks.resize(static_cast<std::size_t>(model.config().context) + 1,
                         snap.blocks[0]);
  EXPECT_THROW(target.resume(0, too_long), std::invalid_argument);

  // Each rejection leaves the row as it was.
  EXPECT_EQ(target.position(0), 0);
  target.resume(0, snap);
  EXPECT_EQ(target.position(0), snap.len());
}

/// Pattern mix exercising divisions at several depths and leaf sizes.
const pcfg::PatternDistribution& test_patterns() {
  static const pcfg::PatternDistribution* dist = [] {
    auto* d = new pcfg::PatternDistribution();
    d->add("L6N2", 4);
    d->add("L4N4", 3);
    d->add("N6", 2);
    d->add("L8", 1);
    d->finalize();
    return d;
  }();
  return *dist;
}

core::DcGenConfig diff_config() {
  core::DcGenConfig cfg;
  cfg.total = 1200;
  cfg.threshold = 25;
  cfg.sample.batch_size = 32;
  return cfg;
}

// The tentpole differential: for every seed × thread count × budget, the
// cached run must be byte-identical (same strings, same order) to the
// uncached single-threaded baseline. Budgets cover the unbounded case, a
// tiny budget that forces eviction mid-run, and one byte (evict-on-insert;
// a zero budget means no cache at all).
TEST(DcGenKvCacheDifferential, CachedMatchesUncachedBitwise) {
  const auto& model = test_model();
  const auto& patterns = test_patterns();
  for (const std::uint64_t seed : {1ull, 2ull}) {
    core::DcGenConfig base = diff_config();
    base.kv_cache_bytes = 0;
    base.threads = 1;
    core::DcGenStats base_stats;
    const auto want =
        core::dc_generate(model, patterns, base, seed, &base_stats);
    ASSERT_GT(want.size(), 400u) << "fixture generates too little";
    EXPECT_EQ(base_stats.prefill_saved, 0u);

    for (const int threads : {1, 4}) {
      for (const std::size_t budget :
           {std::size_t(1) << 30, std::size_t(4096), std::size_t(1)}) {
        core::DcGenConfig cfg = diff_config();
        cfg.kv_cache_bytes = budget;
        cfg.threads = threads;
        core::DcGenStats stats;
        const auto got = core::dc_generate(model, patterns, cfg, seed, &stats);
        EXPECT_EQ(got, want)
            << "seed=" << seed << " threads=" << threads
            << " budget=" << budget;
      }
    }
  }
}

TEST(DcGenKvCacheDifferential, CacheSavesPrefillWork) {
  const auto& model = test_model();
  const auto& patterns = test_patterns();
  core::DcGenConfig cfg = diff_config();
  cfg.kv_cache_bytes = 0;
  core::DcGenStats off;
  core::dc_generate(model, patterns, cfg, 7, &off);
  cfg.kv_cache_bytes = core::DcGenConfig{}.kv_cache_bytes;
  core::DcGenStats on;
  core::dc_generate(model, patterns, cfg, 7, &on);
  EXPECT_EQ(off.prefill_saved, 0u);
  EXPECT_GT(on.prefill_saved, 0u);
  EXPECT_LT(on.prefill_tokens, off.prefill_tokens);
  // The unbounded-cache run must skip a meaningful share of prefill.
  EXPECT_GE(double(on.prefill_saved),
            0.2 * double(off.prefill_tokens));
}

}  // namespace
}  // namespace ppg::gpt
