#include "core/dcgen.h"

#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/pagpassgpt.h"
#include "data/corpus.h"
#include "eval/metrics.h"
#include "obs/metrics.h"

namespace ppg::core {
namespace {

/// Shared tiny trained model (same shape as pagpassgpt_test's fixture but
/// an independent instance so the suites stay runnable in isolation).
const PagPassGPT& shared_model() {
  static const PagPassGPT* model = [] {
    auto* m = new PagPassGPT(gpt::Config::tiny(), 177);
    const auto cache = std::filesystem::temp_directory_path() /
                       "ppg_fixture_dcgentest_v1.ckpt";
    try {
      m->load(cache.string());
      return m;
    } catch (const std::exception&) {
    }
    data::SiteProfile profile;
    profile.name = "dcgentest";
    profile.unique_target = 1500;
    const auto corpus = data::clean(data::generate_site(profile, 17));
    const auto split = data::split_712(corpus.passwords, 17);
    gpt::TrainConfig cfg;
    cfg.epochs = 4;
    cfg.batch_size = 32;
    cfg.lr = 2e-3f;
    m->train(split.train, split.valid, cfg);
    m->save(cache.string());
    return m;
  }();
  return *model;
}

TEST(DcGen, ValidatesConfig) {
  const auto& m = shared_model();
  DcGenConfig cfg;
  cfg.total = 0;
  EXPECT_THROW(dc_generate(m.model(), m.patterns(), cfg, 1),
               std::invalid_argument);
  cfg.total = 100;
  cfg.threshold = 0;
  EXPECT_THROW(dc_generate(m.model(), m.patterns(), cfg, 1),
               std::invalid_argument);
}

TEST(DcGen, ProducesApproximatelyTotalGuesses) {
  const auto& m = shared_model();
  DcGenConfig cfg;
  cfg.total = 2000;
  cfg.threshold = 50;
  DcGenStats stats;
  const auto pws = dc_generate(m.model(), m.patterns(), cfg, 2, &stats);
  // Rounding, drops, and capacity caps lose a little mass but the bulk
  // must be generated.
  EXPECT_GT(pws.size(), 1200u);
  EXPECT_LT(pws.size(), 2600u);
  EXPECT_GT(stats.leaves, 0u);
}

TEST(DcGen, AllOutputsConformToTrainingPatterns) {
  const auto& m = shared_model();
  DcGenConfig cfg;
  cfg.total = 1000;
  cfg.threshold = 50;
  const auto pws = dc_generate(m.model(), m.patterns(), cfg, 3);
  for (const auto& pw : pws) {
    const std::string pat = pcfg::pattern_of(pw);
    EXPECT_GT(m.patterns().prob(pat), 0.0) << pw << " pattern " << pat;
  }
}

TEST(DcGen, DeterministicForSeed) {
  const auto& m = shared_model();
  DcGenConfig cfg;
  cfg.total = 600;
  cfg.threshold = 40;
  const auto a = dc_generate(m.model(), m.patterns(), cfg, 4);
  const auto b = dc_generate(m.model(), m.patterns(), cfg, 4);
  const auto c = dc_generate(m.model(), m.patterns(), cfg, 5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(DcGen, ReducesRepeatRateVersusFreeSampling) {
  // The paper's core claim for D&C-GEN (§III-C2, Fig. 10).
  const auto& m = shared_model();
  const std::size_t n = 3000;
  DcGenConfig cfg;
  cfg.total = double(n);
  cfg.threshold = 32;
  const auto dc = dc_generate(m.model(), m.patterns(), cfg, 6);
  Rng rng(6);
  const auto free = m.generate_free(n, rng);
  ASSERT_GT(dc.size(), n / 2);
  ASSERT_GT(free.size(), n / 2);
  EXPECT_LT(eval::repeat_rate(dc), eval::repeat_rate(free));
}

TEST(DcGen, SmallerThresholdFewerDuplicates) {
  const auto& m = shared_model();
  DcGenConfig coarse;
  coarse.total = 2000;
  coarse.threshold = 2000;  // single leaf per pattern
  DcGenConfig fine = coarse;
  fine.threshold = 25;
  const auto rough = dc_generate(m.model(), m.patterns(), coarse, 7);
  const auto split = dc_generate(m.model(), m.patterns(), fine, 7);
  EXPECT_LE(eval::repeat_rate(split), eval::repeat_rate(rough) + 0.005);
}

TEST(DcGen, CapacityCapLimitsSmallPatterns) {
  // A pattern distribution with a tiny space (N1: 10 possibilities) and a
  // huge request must not emit more than the space size for that pattern.
  const auto& m = shared_model();
  pcfg::PatternDistribution tiny;
  tiny.add("N1", 1);
  tiny.finalize();
  DcGenConfig cfg;
  cfg.total = 5000;  // way beyond N1's capacity of 10
  cfg.threshold = 64;
  DcGenStats stats;
  const auto pws = dc_generate(m.model(), tiny, cfg, 8, &stats);
  EXPECT_LE(pws.size(), 10u);
  EXPECT_GT(stats.capacity_capped, 4000.0);
  for (const auto& pw : pws) EXPECT_EQ(pcfg::pattern_of(pw), "N1");
}

TEST(DcGen, FullyDeterminedPrefixesEmittedOnce) {
  const auto& m = shared_model();
  pcfg::PatternDistribution tiny;
  tiny.add("S1", 1);  // 32 possible passwords
  tiny.finalize();
  DcGenConfig cfg;
  cfg.total = 32 * 40;  // forces division to full depth
  cfg.threshold = 4;
  DcGenStats stats;
  const auto pws = dc_generate(m.model(), tiny, cfg, 9, &stats);
  std::unordered_set<std::string> unique(pws.begin(), pws.end());
  EXPECT_EQ(unique.size(), pws.size());  // no duplicates at all
  EXPECT_LE(pws.size(), 32u);
  EXPECT_GT(stats.forced, 0u);
}

TEST(DcGen, CrossTaskOutputsNeverCollide) {
  // §III-C2 invariant: duplicates only arise inside a single leaf. With
  // threshold 1 every leaf emits exactly one password, so the whole output
  // must be duplicate-free.
  const auto& m = shared_model();
  DcGenConfig cfg;
  cfg.total = 400;
  cfg.threshold = 1;
  const auto pws = dc_generate(m.model(), m.patterns(), cfg, 10);
  std::unordered_set<std::string> unique(pws.begin(), pws.end());
  EXPECT_EQ(unique.size(), pws.size());
}

TEST(DcGen, ThreadCountDoesNotChangeOutput) {
  // §III-C3 optimisation 3: concurrent leaf execution must be
  // bit-identical to serial execution (per-leaf seeded RNGs).
  const auto& m = shared_model();
  DcGenConfig serial;
  serial.total = 1200;
  serial.threshold = 40;
  serial.threads = 1;
  DcGenConfig threaded = serial;
  threaded.threads = 4;
  const auto a = dc_generate(m.model(), m.patterns(), serial, 13);
  const auto b = dc_generate(m.model(), m.patterns(), threaded, 13);
  EXPECT_EQ(a, b);
}

TEST(DcGen, RegistryMetricsInvariantUnderThreadCount) {
  // The process-wide registry counters must be exact for any worker-thread
  // count: leaf counts and emitted totals from threads=4 have to equal the
  // serial run's, or a counter update raced.
  const auto& m = shared_model();
  auto& reg = obs::Registry::global();
  struct Snapshot {
    std::uint64_t leaves, emitted, divisions, dropped, forced, model_calls;
  };
  const auto snapshot = [&reg] {
    return Snapshot{reg.counter("dcgen.leaves").value(),
                    reg.counter("dcgen.emitted").value(),
                    reg.counter("dcgen.divisions").value(),
                    reg.counter("dcgen.dropped").value(),
                    reg.counter("dcgen.forced").value(),
                    reg.counter("dcgen.model_calls").value()};
  };
  const auto run = [&](int threads) {
    DcGenConfig cfg;
    cfg.total = 1500;
    cfg.threshold = 30;
    cfg.threads = threads;
    const Snapshot before = snapshot();
    const auto pws = dc_generate(m.model(), m.patterns(), cfg, 21);
    const Snapshot after = snapshot();
    EXPECT_EQ(after.emitted - before.emitted, pws.size());
    return Snapshot{after.leaves - before.leaves,
                    after.emitted - before.emitted,
                    after.divisions - before.divisions,
                    after.dropped - before.dropped,
                    after.forced - before.forced,
                    after.model_calls - before.model_calls};
  };
  const Snapshot serial = run(1);
  const Snapshot threaded = run(4);
  EXPECT_GT(serial.leaves, 0u);
  EXPECT_GT(serial.emitted, 0u);
  EXPECT_EQ(serial.leaves, threaded.leaves);
  EXPECT_EQ(serial.emitted, threaded.emitted);
  EXPECT_EQ(serial.divisions, threaded.divisions);
  EXPECT_EQ(serial.dropped, threaded.dropped);
  EXPECT_EQ(serial.forced, threaded.forced);
  EXPECT_EQ(serial.model_calls, threaded.model_calls);
}

// --- Boundary regressions ---------------------------------------------------

TEST(DcGen, ThresholdOneTerminatesWithFullMassAccounting) {
  // T = 1 is the degenerate boundary: a divided task spreads its mass over
  // ~dozens of candidate children, so every child falls below one expected
  // password and is deleted (the paper's "generation number less than 1"
  // rule). The run
  // must terminate — division depth is bounded by pattern length — with
  // all mass accounted for as dropped/forced rather than hanging or
  // emitting more than asked.
  const auto& m = shared_model();
  DcGenConfig cfg;
  cfg.total = 150;
  cfg.threshold = 1;
  DcGenStats stats;
  const auto pws = dc_generate(m.model(), m.patterns(), cfg, 8, &stats);
  EXPECT_GT(stats.divisions, 0u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_LE(pws.size(), 150u);
  EXPECT_GE(pws.size(), stats.forced);  // forced emissions are all included
}

TEST(DcGen, FractionalThresholdTerminates) {
  // T < 1 leaves no valid leaf size at all: every task divides until its
  // mass drops below one expected password or its prefix is fully
  // determined.
  // The run must still terminate (division depth is bounded by pattern
  // length) and emit only forced outputs.
  const auto& m = shared_model();
  DcGenConfig cfg;
  cfg.total = 80;
  cfg.threshold = 0.5;
  DcGenStats stats;
  const auto pws = dc_generate(m.model(), m.patterns(), cfg, 9, &stats);
  EXPECT_EQ(stats.leaves, 0u);
  EXPECT_EQ(pws.size(), stats.forced);
}

TEST(DcGen, StatsAreConsistent) {
  const auto& m = shared_model();
  DcGenConfig cfg;
  cfg.total = 1500;
  cfg.threshold = 30;
  DcGenStats stats;
  dc_generate(m.model(), m.patterns(), cfg, 12, &stats);
  EXPECT_GT(stats.divisions, 0u);
  EXPECT_GT(stats.model_calls, 0u);
  EXPECT_GE(stats.divisions, stats.model_calls);
  EXPECT_GT(stats.leaves, 0u);
}

TEST(DcGen, EmittedAccountingMatchesOutput) {
  const auto& m = shared_model();
  DcGenConfig cfg;
  cfg.total = 600;
  cfg.threshold = 40;
  DcGenStats stats;
  const auto pws = dc_generate(m.model(), m.patterns(), cfg, 5, &stats);
  EXPECT_EQ(stats.emitted, pws.size());
  const std::unordered_set<std::string> uniq(pws.begin(), pws.end());
  EXPECT_EQ(stats.unique_emitted, uniq.size());
  EXPECT_LE(stats.unique_emitted, stats.emitted);
}

/// Small-space pattern distribution for the ordered-leaf tests: with a
/// barely trained model, best-first search over deep patterns legitimately
/// needs thousands of expansions per emitted guess, so the end-to-end
/// tests enumerate spaces (N3/L2/N2) a leaf can exhaust in milliseconds.
pcfg::PatternDistribution small_space_patterns() {
  pcfg::PatternDistribution dist;
  dist.add("N3", 3);
  dist.add("L2", 2);
  dist.add("N2", 1);
  dist.finalize();
  return dist;
}

TEST(DcGen, OrderedLeavesSeedAndThreadInvariant) {
  // Ordered leaves are RNG-free best-first enumerations: neither the seed
  // nor the worker-thread count may change a single byte of the output.
  const auto& m = shared_model();
  const auto dist = small_space_patterns();
  DcGenConfig cfg;
  cfg.total = 240;
  cfg.threshold = 20;
  cfg.leaf_mode = LeafMode::kOrdered;
  cfg.threads = 1;
  const auto a = dc_generate(m.model(), dist, cfg, 13);
  DcGenConfig other = cfg;
  other.threads = 4;
  const auto b = dc_generate(m.model(), dist, other, 99);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(DcGen, OrderedLeavesEmitNoDuplicates) {
  // Per-leaf, best-first enumeration cannot repeat a sequence; leaves own
  // disjoint (pattern, prefix) regions and strict masks confine them to it,
  // so the whole ordered run is duplicate-free — unique_emitted == emitted.
  const auto& m = shared_model();
  const auto dist = small_space_patterns();
  DcGenConfig cfg;
  cfg.total = 240;
  cfg.threshold = 20;
  cfg.leaf_mode = LeafMode::kOrdered;
  DcGenStats stats;
  const auto pws = dc_generate(m.model(), dist, cfg, 7, &stats);
  EXPECT_GT(pws.size(), 0u);
  EXPECT_EQ(stats.emitted, pws.size());
  const std::unordered_set<std::string> uniq(pws.begin(), pws.end());
  EXPECT_EQ(stats.unique_emitted, uniq.size());
  EXPECT_EQ(stats.unique_emitted, stats.emitted);
}

TEST(DcGen, OrderedExpansionCapBoundsLeafWork) {
  // The per-leaf expansion cap must bound forward passes deterministically:
  // a capped run emits a (possibly empty) subset, identically across runs.
  const auto& m = shared_model();
  const auto dist = small_space_patterns();
  DcGenConfig cfg;
  cfg.total = 240;
  cfg.threshold = 20;
  cfg.leaf_mode = LeafMode::kOrdered;
  cfg.ordered_max_expansions = 8;
  DcGenStats stats_a, stats_b;
  const auto a = dc_generate(m.model(), dist, cfg, 7, &stats_a);
  const auto b = dc_generate(m.model(), dist, cfg, 7, &stats_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(stats_a.emitted, stats_b.emitted);
  // The cap really cut work: far fewer expansions than the uncapped run.
  DcGenConfig uncapped = cfg;
  uncapped.ordered_max_expansions = 0;
  DcGenStats stats_u;
  const auto u = dc_generate(m.model(), dist, uncapped, 7, &stats_u);
  EXPECT_LT(a.size(), u.size());
}

TEST(DcGen, OrderedBudgetsChangeJournalFingerprint) {
  // The ordered expansion budget shapes the emitted set (truncation), so a
  // journal written under one budget must not resume a run under another:
  // resuming regenerates from scratch instead of replaying mismatched
  // leaves.
  const auto& m = shared_model();
  const auto dist = small_space_patterns();
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "ppg_dcgen_ordered_journal";
  fs::remove_all(dir);
  fs::create_directories(dir);
  DcGenConfig cfg;
  cfg.total = 120;
  cfg.threshold = 20;
  cfg.leaf_mode = LeafMode::kOrdered;
  cfg.journal_dir = dir.string();
  const auto a = dc_generate(m.model(), dist, cfg, 3);
  DcGenConfig shrunk = cfg;
  shrunk.ordered_max_expansions = 8;  // different truncation behaviour
  DcGenStats stats;
  const auto b = dc_generate(m.model(), dist, shrunk, 3, &stats);
  EXPECT_FALSE(stats.resumed_plan);  // fingerprint mismatch forced a redo
  EXPECT_EQ(stats.resumed_leaves, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ppg::core
