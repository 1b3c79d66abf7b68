// Durability-layer coverage (DESIGN.md §11): failpoint mechanics, the
// atomic_save/checked_load corruption matrix, CheckpointManifest fallback
// and pruning, bitwise-identical trainer resume, and byte-identical D&C-GEN
// journal resume — all in-process via the `throw` failpoint action, so the
// same scenarios the forked ppg_crashtest harness exercises with real
// _exit() crashes also run under ASan/TSan (label: sanitize).
#include <unistd.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/durable_io.h"
#include "common/failpoint.h"
#include "common/serialize.h"
#include "core/dcgen.h"
#include "gpt/infer.h"
#include "gpt/model.h"
#include "gpt/trainer.h"
#include "pcfg/pcfg_model.h"
#include "pcfg/pattern.h"
#include "test_util.h"
#include "tokenizer/tokenizer.h"

namespace ppg {
namespace {

namespace fs = std::filesystem;
using gpt::Config;
using gpt::GptModel;
using gpt::TrainConfig;

// ---------------------------------------------------------------------------
// Failpoint mechanics

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::reset(); }
};

TEST_F(FailpointTest, InactiveSiteIsANoop) {
  failpoint::reset();
  EXPECT_FALSE(failpoint::any_active());
  PPG_FAILPOINT("fp.test.noop");  // must not throw, crash, or count
  EXPECT_EQ(failpoint::hits("fp.test.noop"), 0u);
}

TEST_F(FailpointTest, ThrowFiresOnNthHitOnly) {
  failpoint::activate("fp.test.nth", failpoint::Action::kThrow, 3);
  PPG_FAILPOINT("fp.test.nth");  // hit 1: passes
  PPG_FAILPOINT("fp.test.nth");  // hit 2: passes
  EXPECT_THROW(PPG_FAILPOINT("fp.test.nth"), failpoint::Injected);
  EXPECT_EQ(failpoint::hits("fp.test.nth"), 3u);
  // Hits after the nth pass through again (one-shot arming).
  PPG_FAILPOINT("fp.test.nth");
  EXPECT_EQ(failpoint::hits("fp.test.nth"), 4u);
}

TEST_F(FailpointTest, DeactivateDisarms) {
  failpoint::activate("fp.test.off", failpoint::Action::kThrow, 1);
  failpoint::deactivate("fp.test.off");
  PPG_FAILPOINT("fp.test.off");  // disarmed: must not throw
}

TEST_F(FailpointTest, SpecStringArmsAndRejectsMalformed) {
  EXPECT_TRUE(failpoint::activate_from_spec("fp.test.spec=throw@2"));
  PPG_FAILPOINT("fp.test.spec");
  EXPECT_THROW(PPG_FAILPOINT("fp.test.spec"), failpoint::Injected);
  EXPECT_FALSE(failpoint::activate_from_spec("fp.test.bad=explode"));
  EXPECT_FALSE(failpoint::activate_from_spec("no-equals-sign"));
}

TEST_F(FailpointTest, DelayActionContinues) {
  failpoint::activate("fp.test.delay", failpoint::Action::kDelay, 1, 1);
  PPG_FAILPOINT("fp.test.delay");  // sleeps ~1ms then returns
  EXPECT_EQ(failpoint::hits("fp.test.delay"), 1u);
}

// ---------------------------------------------------------------------------
// atomic_save / checked_load corruption matrix

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // gtest_discover_tests runs each case as its own ctest process, many in
    // parallel — the directory must be unique per process or concurrent
    // cases clobber each other's SetUp/TearDown.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("ppg_durability_" + std::to_string(::getpid()) + "_" +
            info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    failpoint::reset();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Saves a small deterministic payload durably and returns its path.
  std::string save_sample(const std::string& name) {
    const std::string p = path(name);
    durable::atomic_save(p, [](BinaryWriter& w) {
      w.write<std::uint32_t>(0xfeedbeef);
      w.write_string("payload");
      w.write_vector(std::vector<float>{1.0f, 2.5f, -3.0f});
    });
    return p;
  }

  /// Asserts checked_load fails and its message mentions `needle`.
  void expect_load_error(const std::string& p, const std::string& needle) {
    try {
      durable::checked_load(p, [](BinaryReader&) {});
      FAIL() << p << ": expected checked_load to throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  static void spew(const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(DurabilityTest, Crc32KnownAnswer) {
  // The canonical CRC-32 check vector.
  EXPECT_EQ(durable::crc32("123456789", 9), 0xCBF43926u);
  // Chaining via seed equals one-shot over the concatenation.
  const auto part = durable::crc32("12345", 5);
  EXPECT_EQ(durable::crc32("6789", 4, part), 0xCBF43926u);
}

TEST_F(DurabilityTest, AtomicSaveRoundTripsAndLeavesNoTemp) {
  const std::string p = save_sample("roundtrip.bin");
  EXPECT_TRUE(durable::verify_file(p));
  EXPECT_FALSE(fs::exists(p + ".tmp"));
  durable::checked_load(p, [](BinaryReader& r) {
    EXPECT_EQ(r.read<std::uint32_t>(), 0xfeedbeefu);
    EXPECT_EQ(r.read_string(), "payload");
    EXPECT_EQ(r.read_vector<float>(), (std::vector<float>{1.0f, 2.5f, -3.0f}));
  });
}

TEST_F(DurabilityTest, MissingAndEmptyFiles) {
  expect_load_error(path("nonexistent.bin"), "cannot open");
  EXPECT_FALSE(durable::verify_file(path("nonexistent.bin")));
  spew(path("empty.bin"), "");
  expect_load_error(path("empty.bin"), "missing CRC footer");
}

TEST_F(DurabilityTest, TruncationIsDetected) {
  const std::string p = save_sample("trunc.bin");
  std::string bytes = slurp(p);
  // Truncating into the payload shears the footer off entirely; what is
  // left ends in payload bytes, so the magic check fires.
  spew(p, bytes.substr(0, bytes.size() - durable::kFooterBytes - 2));
  expect_load_error(p, "footer");
  EXPECT_FALSE(durable::verify_file(p));
  // Truncating the payload but re-attaching the intact footer is a size
  // mismatch: the footer's recorded length no longer matches the file.
  const std::string footer = bytes.substr(bytes.size() - durable::kFooterBytes);
  spew(p, bytes.substr(0, bytes.size() / 2) + footer);
  expect_load_error(p, "size mismatch");
}

TEST_F(DurabilityTest, FlippedBitsAreDetected) {
  const std::string p = save_sample("flip.bin");
  const std::string good = slurp(p);
  // A flipped payload byte fails the CRC.
  std::string bad = good;
  bad[1] = static_cast<char>(bad[1] ^ 0x40);
  spew(p, bad);
  expect_load_error(p, "CRC mismatch");
  // A flipped byte inside the stored CRC itself also fails the CRC check.
  bad = good;
  bad[bad.size() - 6] = static_cast<char>(bad[bad.size() - 6] ^ 0x01);
  spew(p, bad);
  expect_load_error(p, "CRC mismatch");
  // A flipped byte in the footer magic is reported as such.
  bad = good;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0xff);
  spew(p, bad);
  expect_load_error(p, "bad footer magic");
}

TEST_F(DurabilityTest, LegacyFileWithoutFooterLoadsOnlyWhenOptedIn) {
  // Pre-durable_io files (e.g. committed bench_cache checkpoints) have no
  // footer: strict checked_load refuses them, checked_load_or_legacy hands
  // the whole byte stream to the parser with a warning.
  const std::string p = path("legacy.bin");
  std::ostringstream buf(std::ios::binary);
  BinaryWriter w(buf);
  w.write<std::uint32_t>(0x1234abcd);
  w.write_string("legacy payload");
  spew(p, buf.str());
  expect_load_error(p, "footer");
  durable::checked_load_or_legacy(p, [](BinaryReader& r) {
    EXPECT_EQ(r.read<std::uint32_t>(), 0x1234abcdu);
    EXPECT_EQ(r.read_string(), "legacy payload");
  });
  // A file that HAS a footer but fails its CRC is corrupt, not legacy —
  // the opt-in must not bypass the check.
  const std::string q = save_sample("footered.bin");
  std::string bytes = slurp(q);
  bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
  spew(q, bytes);
  EXPECT_THROW(durable::checked_load_or_legacy(q, [](BinaryReader&) {}),
               std::runtime_error);
}

TEST_F(DurabilityTest, TrailingGarbageIsDetected) {
  const std::string p = save_sample("garbage.bin");
  spew(p, slurp(p) + "extra bytes appended by a careless tool");
  expect_load_error(p, "footer");
}

TEST_F(DurabilityTest, CrashMidWriteLeavesOldFileIntact) {
  const std::string p = save_sample("victim.bin");
  const std::string before = slurp(p);
  failpoint::activate("durable.mid_write", failpoint::Action::kThrow, 1);
  EXPECT_THROW(save_sample("victim.bin"), failpoint::Injected);
  failpoint::reset();
  // The interrupted save must not have touched the published path.
  EXPECT_EQ(slurp(p), before);
  EXPECT_TRUE(durable::verify_file(p));
}

TEST_F(DurabilityTest, ParallelSavesToDistinctPathsAllVerify) {
  constexpr int kThreads = 4, kFiles = 6;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int f = 0; f < kFiles; ++f) {
        const std::string p =
            path("par_" + std::to_string(t) + "_" + std::to_string(f));
        durable::atomic_save(p, [&](BinaryWriter& w) {
          w.write<std::int32_t>(t * 100 + f);
        });
      }
    });
  }
  for (auto& t : ts) t.join();
  for (int t = 0; t < kThreads; ++t)
    for (int f = 0; f < kFiles; ++f)
      EXPECT_TRUE(durable::verify_file(
          path("par_" + std::to_string(t) + "_" + std::to_string(f))));
}

// ---------------------------------------------------------------------------
// CheckpointManifest

TEST_F(DurabilityTest, EmptyDirectoryHasNoGoodGeneration) {
  durable::CheckpointManifest m((dir_ / "ckpt").string());
  EXPECT_FALSE(m.latest_good().has_value());
}

TEST_F(DurabilityTest, CorruptManifestDegradesToEmptyNotGarbage) {
  const std::string cdir = (dir_ / "ckpt").string();
  fs::create_directories(cdir);
  spew(cdir + "/MANIFEST", "this is not a manifest");
  durable::CheckpointManifest m(cdir);
  EXPECT_FALSE(m.latest_good().has_value());
  EXPECT_TRUE(m.entries().empty());
  // The manifest stays usable: publishing after the reset works.
  durable::atomic_save(m.file_path("gen1.bin"),
                       [](BinaryWriter& w) { w.write<std::int32_t>(1); });
  m.publish(1, {"gen1.bin"});
  ASSERT_TRUE(m.latest_good().has_value());
  EXPECT_EQ(m.latest_good()->generation, 1u);
}

TEST_F(DurabilityTest, LatestGoodFallsBackPastCorruptGeneration) {
  durable::CheckpointManifest m((dir_ / "ckpt").string());
  for (std::uint64_t g = 1; g <= 2; ++g) {
    const std::string name = "gen" + std::to_string(g) + ".bin";
    durable::atomic_save(m.file_path(name), [g](BinaryWriter& w) {
      w.write<std::uint64_t>(g);
    });
    m.publish(g, {name});
  }
  // Corrupt the newest generation's file in place.
  std::string bytes = slurp(m.file_path("gen2.bin"));
  bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
  spew(m.file_path("gen2.bin"), bytes);
  // A reader (fresh manifest instance, as a resuming process would build)
  // must fall back to generation 1, never hand over the corrupt one.
  durable::CheckpointManifest reader((dir_ / "ckpt").string());
  ASSERT_TRUE(reader.latest_good().has_value());
  EXPECT_EQ(reader.latest_good()->generation, 1u);
}

TEST_F(DurabilityTest, PruneDropsOldGenerationsAndSweepsTmpDroppings) {
  durable::CheckpointManifest m((dir_ / "ckpt").string());
  for (std::uint64_t g = 1; g <= 3; ++g) {
    const std::string name = "gen" + std::to_string(g) + ".bin";
    durable::atomic_save(m.file_path(name), [g](BinaryWriter& w) {
      w.write<std::uint64_t>(g);
    });
    m.publish(g, {name});
  }
  // A stale temp file from a hypothetical interrupted save.
  spew(m.file_path("gen9.bin.tmp"), "torn");
  m.prune(2);
  EXPECT_FALSE(fs::exists(m.file_path("gen1.bin")));
  EXPECT_TRUE(fs::exists(m.file_path("gen2.bin")));
  EXPECT_TRUE(fs::exists(m.file_path("gen3.bin")));
  EXPECT_FALSE(fs::exists(m.file_path("gen9.bin.tmp")));
  ASSERT_TRUE(m.latest_good().has_value());
  EXPECT_EQ(m.latest_good()->generation, 3u);
}

// ---------------------------------------------------------------------------
// Trainer checkpoint/resume

class TrainerResumeTest : public DurabilityTest {
 protected:
  static std::vector<std::vector<int>> encoded_corpus() {
    std::vector<std::vector<int>> seqs;
    for (const auto& pw : testing::tiny_password_corpus())
      if (auto ids = tok::Tokenizer::encode_training(pw))
        seqs.push_back(std::move(*ids));
    return seqs;
  }

  static TrainConfig train_config(const std::string& ckpt_dir) {
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 8;
    cfg.lr = 1e-3f;
    cfg.seed = 7;
    if (!ckpt_dir.empty()) {
      cfg.checkpoint_every = 2;
      cfg.checkpoint_dir = ckpt_dir;
      cfg.checkpoint_keep = 2;
    }
    return cfg;
  }

  /// Trains to completion and returns the saved model's bytes.
  std::string train_to_bytes(const std::string& ckpt_dir,
                             gpt::TrainReport* report = nullptr) {
    GptModel model(Config::tiny(), 11);
    const auto r = gpt::train_lm(model, encoded_corpus(), {},
                                 train_config(ckpt_dir), tok::Tokenizer::kPad);
    if (report) *report = r;
    const std::string p = path("weights.bin");
    model.save(p);
    return slurp(p);
  }
};

TEST_F(TrainerResumeTest, CheckpointingRequiresADirectory) {
  GptModel model(Config::tiny(), 11);
  TrainConfig cfg = train_config("");
  cfg.checkpoint_every = 2;  // but no checkpoint_dir
  EXPECT_THROW(gpt::train_lm(model, encoded_corpus(), {}, cfg,
                             tok::Tokenizer::kPad),
               std::invalid_argument);
}

TEST_F(TrainerResumeTest, InterruptedRunResumesBitwiseIdentical) {
  const std::string golden = train_to_bytes("");

  // Kill the run mid-training via the throw action (same site the crash
  // harness kills with _exit), then relaunch against the same directory.
  const std::string cdir = (dir_ / "train_ckpt").string();
  failpoint::activate("train.after_step", failpoint::Action::kThrow, 5);
  EXPECT_THROW(train_to_bytes(cdir), failpoint::Injected);
  failpoint::reset();

  gpt::TrainReport report;
  const std::string resumed = train_to_bytes(cdir, &report);
  EXPECT_GT(report.resumed_from_step, 0u);
  EXPECT_EQ(resumed, golden) << "resumed weights differ from golden";
}

// Resuming loads weights mid-call: derived views built before it (here by
// decoding the untrained model) must not survive into the resumed model.
// A checkpoint at every step makes the resume land after the last step, so
// the load is the only weight change the views can follow.
TEST_F(TrainerResumeTest, ResumeDropsDerivedWeightViews) {
  TrainConfig cfg = train_config((dir_ / "train_ckpt_views").string());
  cfg.checkpoint_every = 1;
  GptModel trained(Config::tiny(), 11);
  gpt::train_lm(trained, encoded_corpus(), {}, cfg, tok::Tokenizer::kPad);

  const auto decode = [](const GptModel& m, gpt::Precision precision) {
    const std::vector<int> prefix = {tok::Tokenizer::kBos, 40, 41};
    gpt::InferenceSession s(m, precision);
    const auto logits = testing::prefill_one(s, prefix);
    return std::vector<float>(logits.begin(), logits.end());
  };
  GptModel resumed(Config::tiny(), 12);
  const auto untrained = decode(resumed, gpt::Precision::kFp32);
  decode(resumed, gpt::Precision::kInt8);
  const auto report = gpt::train_lm(resumed, encoded_corpus(), {}, cfg,
                                    tok::Tokenizer::kPad);
  ASSERT_EQ(report.resumed_from_step, report.steps) << "a step ran";
  EXPECT_NE(decode(resumed, gpt::Precision::kFp32), untrained);
  EXPECT_EQ(decode(resumed, gpt::Precision::kFp32),
            decode(trained, gpt::Precision::kFp32));
  EXPECT_EQ(decode(resumed, gpt::Precision::kInt8),
            decode(trained, gpt::Precision::kInt8));
}

TEST_F(TrainerResumeTest, CrashInsideCheckpointWriteAlsoResumes) {
  const std::string golden = train_to_bytes("");
  const std::string cdir = (dir_ / "train_ckpt2").string();
  failpoint::activate("train.checkpoint.mid_write",
                      failpoint::Action::kThrow, 2);
  EXPECT_THROW(train_to_bytes(cdir), failpoint::Injected);
  failpoint::reset();
  EXPECT_EQ(train_to_bytes(cdir), golden);
}

TEST_F(TrainerResumeTest, FingerprintMismatchRefusesToResume) {
  const std::string cdir = (dir_ / "train_ckpt3").string();
  train_to_bytes(cdir);  // leaves a final checkpoint behind
  GptModel model(Config::tiny(), 11);
  TrainConfig cfg = train_config(cdir);
  cfg.lr = 5e-4f;  // different run: its checkpoints are not ours
  try {
    gpt::train_lm(model, encoded_corpus(), {}, cfg, tok::Tokenizer::kPad);
    FAIL() << "expected fingerprint mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos)
        << "message was: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// D&C-GEN job journal

class DcgenJournalTest : public DurabilityTest {
 protected:
  void SetUp() override {
    DurabilityTest::SetUp();
    model_ = std::make_unique<GptModel>(Config::tiny(), 11);
    std::vector<std::vector<int>> seqs;
    for (const auto& pw : testing::tiny_password_corpus()) {
      if (auto ids = tok::Tokenizer::encode_training(pw))
        seqs.push_back(std::move(*ids));
      patterns_.add(pcfg::pattern_of(pw));
    }
    patterns_.finalize();
    TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 8;
    tc.seed = 7;
    gpt::train_lm(*model_, seqs, {}, tc, tok::Tokenizer::kPad);
  }

  core::DcGenConfig gen_config(const std::string& journal_dir,
                               int threads = 1) const {
    core::DcGenConfig cfg;
    cfg.total = 120;
    cfg.threshold = 16;
    cfg.sample.batch_size = 16;
    cfg.threads = threads;
    cfg.journal_dir = journal_dir;
    return cfg;
  }

  /// gen_config() with best-first leaves, capped to keep the run short.
  core::DcGenConfig ordered_config(const std::string& journal_dir,
                                   int threads) const {
    core::DcGenConfig cfg = gen_config(journal_dir, threads);
    cfg.leaf_mode = core::LeafMode::kOrdered;
    cfg.ordered_max_expansions = 256;
    return cfg;
  }

  std::vector<std::string> generate(const std::string& journal_dir,
                                    core::DcGenStats* stats = nullptr,
                                    int threads = 1,
                                    std::uint64_t seed = 55) const {
    return core::dc_generate(*model_, patterns_, gen_config(journal_dir,
                                                            threads),
                             seed, stats);
  }

  std::unique_ptr<GptModel> model_;
  pcfg::PatternDistribution patterns_;
};

TEST_F(DcgenJournalTest, InterruptedRunResumesByteIdentical) {
  const auto golden = generate("");

  const std::string jdir = (dir_ / "journal").string();
  failpoint::activate("dcgen.leaf.done", failpoint::Action::kThrow, 2);
  EXPECT_THROW(generate(jdir), failpoint::Injected);
  failpoint::reset();

  core::DcGenStats stats;
  const auto resumed = generate(jdir, &stats);
  EXPECT_TRUE(stats.resumed_plan);
  EXPECT_GE(stats.resumed_leaves, 1u);
  EXPECT_EQ(resumed, golden);
}

// The ordered twin of the test above. A leaf thread keeps several ordered
// leaves in flight, so leaves finish, and reach the ledger, out of index
// order, and the crash at the second completion leaves other leaves
// mid-enumeration. Resuming replays exactly the ledgered leaves and reruns
// the rest, byte-identical to an uninterrupted run, at any thread count.
TEST_F(DcgenJournalTest, InterruptedOrderedRunResumesByteIdentical) {
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    const auto golden = core::dc_generate(
        *model_, patterns_, ordered_config("", threads), 55);
    const std::string jdir =
        (dir_ / ("journal_ordered_" + std::to_string(threads))).string();
    const auto cfg = ordered_config(jdir, threads);
    failpoint::activate("dcgen.leaf.done", failpoint::Action::kThrow, 2);
    const std::uint64_t appended0 =
        failpoint::hits("dcgen.ledger.after_append");
    EXPECT_THROW(core::dc_generate(*model_, patterns_, cfg, 55),
                 failpoint::Injected);
    // Every completed append, the throwing leaf's included (its record is
    // written before its completion failpoint).
    const std::uint64_t ledgered =
        failpoint::hits("dcgen.ledger.after_append") - appended0;
    failpoint::reset();

    core::DcGenStats stats;
    const auto resumed = core::dc_generate(*model_, patterns_, cfg, 55, &stats);
    EXPECT_TRUE(stats.resumed_plan);
    EXPECT_GE(ledgered, 2u);
    EXPECT_LT(ledgered, stats.leaves);
    EXPECT_EQ(stats.resumed_leaves, ledgered);
    EXPECT_EQ(resumed, golden);
  }
}

TEST_F(DcgenJournalTest, TornLedgerTailIsTruncatedNotTrusted) {
  const auto golden = generate("");
  const std::string jdir = (dir_ / "journal_torn").string();
  failpoint::activate("dcgen.ledger.mid_append", failpoint::Action::kThrow, 3);
  EXPECT_THROW(generate(jdir), failpoint::Injected);
  failpoint::reset();
  // The interrupted append left a half-written record; pile some extra
  // garbage on top for good measure.
  {
    std::ofstream out(jdir + "/ledger.bin",
                      std::ios::binary | std::ios::app);
    out << "\x13\x37garbage";
  }
  EXPECT_EQ(generate(jdir), golden);
}

TEST_F(DcgenJournalTest, StaleJournalFromDifferentRunIsDiscarded) {
  const std::string jdir = (dir_ / "journal_stale").string();
  generate(jdir);  // journal now fingerprinted for seed 55
  const auto golden56 = generate("", nullptr, 1, 56);
  core::DcGenStats stats;
  const auto fresh = generate(jdir, &stats, 1, 56);
  EXPECT_FALSE(stats.resumed_plan);
  EXPECT_EQ(stats.resumed_leaves, 0u);
  EXPECT_EQ(fresh, golden56);
}

TEST_F(DcgenJournalTest, ConcurrentLedgerAppendsStayConsistent) {
  // Threads > 1 appends ledger records from multiple workers through the
  // shared fd; TSan watches the mutex discipline, and the journal must
  // still describe a complete run (resuming it re-emits identical bytes).
  const auto golden = generate("");
  const std::string jdir = (dir_ / "journal_mt").string();
  const auto parallel = generate(jdir, nullptr, 4);
  EXPECT_EQ(parallel, golden);
  core::DcGenStats stats;
  const auto replay = generate(jdir, &stats, 1);
  EXPECT_TRUE(stats.resumed_plan);
  EXPECT_EQ(replay, golden);
}

}  // namespace
}  // namespace ppg
