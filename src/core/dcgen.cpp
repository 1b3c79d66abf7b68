#include "core/dcgen.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/durable_io.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/masks.h"
#include "gpt/infer.h"
#include "gpt/kv_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/ordered.h"
#include "tokenizer/tokenizer.h"

namespace ppg::core {

namespace {

using tok::Tokenizer;

namespace fs = std::filesystem;

/// Process-wide D&C-GEN metrics. The per-run DcGenStats struct stays the
/// caller-facing snapshot; these accumulate across runs and are exact for
/// any DcGenConfig::threads (the thread-invariance test relies on it).
struct DcMetrics {
  obs::Counter& runs;
  obs::Counter& divisions;
  obs::Counter& model_calls;
  obs::Counter& leaves;
  obs::Counter& dropped;
  obs::Counter& forced;
  obs::Counter& emitted;
  obs::Gauge& capacity_capped;
  static DcMetrics& get() {
    auto& r = obs::Registry::global();
    static DcMetrics m{r.counter("dcgen.runs"),
                       r.counter("dcgen.divisions"),
                       r.counter("dcgen.model_calls"),
                       r.counter("dcgen.leaves"),
                       r.counter("dcgen.dropped"),
                       r.counter("dcgen.forced"),
                       r.counter("dcgen.emitted"),
                       r.gauge("dcgen.capacity_capped")};
    return m;
  }
};

/// One pending unit of work: generate `n` passwords whose rule starts with
/// `prefix` (token form) under `pattern`, `chars_done` characters of which
/// are already fixed by the prefix.
struct Task {
  std::vector<int> prefix;
  const std::vector<pcfg::Segment>* pattern;
  int chars_done;
  double n;
};

/// Capacity of the *unfilled* suffix of a pattern (optimisation 2, applied
/// recursively to every subtask, not only whole patterns).
double remaining_capacity(const std::vector<pcfg::Segment>& pattern,
                          int chars_done, double cap) {
  double total = 1.0;
  const int len = pcfg::pattern_length(pattern);
  for (int pos = chars_done; pos < len; ++pos) {
    total *= pcfg::class_size(*pcfg::class_at(pattern, pos));
    if (total >= cap) return cap;
  }
  return total;
}

// ---- resumable job journal -------------------------------------------
//
// Two files under DcGenConfig::journal_dir:
//  * plan.bin   — written once (atomic_save) after the deterministic
//    division phase: run fingerprint, forced outputs, and every leaf task.
//  * ledger.bin — append-only, one fsynced CRC-framed record per completed
//    leaf. A crash can only tear the final record; resume truncates the
//    torn tail and re-runs that leaf (its independent per-leaf RNG makes
//    the re-run byte-identical).

/// Subtasks expecting fewer passwords than this are deleted ("generation
/// number less than 1 → the subtask is deleted", Fig. 7).
constexpr double kMinTask = 1.0;
/// Most same-length tasks divided per batched model call. Each group is
/// taken from the back of its length bucket, so this decides the order
/// leaves are numbered in, and with it each sampled leaf's RNG stream.
constexpr std::size_t kDivisionBatch = 64;
/// KV-trie byte budget of each ordered leaf's enumerator (not shared with
/// the run-level cache). It only trades re-priming work for memory: the
/// trie evicts to fit and never drops a frontier node, so no guess depends
/// on it.
constexpr std::size_t kOrderedCacheBytes = std::size_t(32) << 20;
/// Ordered leaves each leaf thread keeps in flight; their pending
/// expansions share one prefill and one step (search::Expander). A step of
/// 8 small-model rows costs about 4 one-row steps; many more in flight and
/// the leaves' frontiers and tries spill the core's cache.
constexpr std::size_t kOrderedLeavesInFlight = 8;

constexpr std::uint32_t kPlanMagic = 0x50504450;    // "PPDP"
constexpr std::uint32_t kPlanVersion = 1;
constexpr std::uint32_t kLedgerMagic = 0x5050444c;  // "PPDL"
/// Sanity cap on a single ledger record's payload (1 GiB).
constexpr std::uint64_t kMaxRecordBytes = 1ULL << 30;

std::uint64_t jmix(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return splitmix64(s);
}

std::uint64_t jmix_double(std::uint64_t h, double v) noexcept {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return jmix(h, bits);
}

/// Fingerprint of everything that determines the guess stream: the output-
/// relevant config knobs, the seed, the pattern distribution, and the model
/// weights. threads and kv_cache_bytes are deliberately excluded — they
/// never change the output (dcgen_test and kv_cache_test assert this), so a
/// journal may be resumed with a different parallelism or memory setup. The
/// SIMD backend is not mixed either: the kernel contract makes fp32 bitwise
/// identical across backends, so a journal written on one machine resumes
/// on another with different vector units. A fingerprint mismatch means
/// the journal belongs to a different run and must be discarded.
std::uint64_t dc_fingerprint(const gpt::GptModel& model,
                             const pcfg::PatternDistribution& patterns,
                             const DcGenConfig& cfg, std::uint64_t seed) {
  std::uint64_t h = 0xD0C6E4ULL;
  h = jmix(h, seed);
  h = jmix_double(h, cfg.total);
  h = jmix_double(h, cfg.threshold);
  // The mode picks the leaf algorithm outright, and the expansion cap
  // decides what truncation (if any) drops from each ordered leaf's top-n.
  h = jmix(h, cfg.leaf_mode == LeafMode::kOrdered ? 1 : 0);
  if (cfg.leaf_mode == LeafMode::kOrdered)
    h = jmix(h, cfg.ordered_max_expansions);
  h = jmix(h, static_cast<std::uint64_t>(cfg.sample.batch_size));
  for (const auto& [pat, prob] : patterns.sorted()) {
    h = jmix(h, hash64(pat));
    h = jmix_double(h, prob);
  }
  const auto& mc = model.config();
  h = jmix(h, static_cast<std::uint64_t>(mc.vocab));
  h = jmix(h, static_cast<std::uint64_t>(mc.d_model));
  h = jmix(h, static_cast<std::uint64_t>(mc.n_layers));
  h = jmix(h, static_cast<std::uint64_t>(mc.n_heads));
  h = jmix(h, static_cast<std::uint64_t>(mc.context));
  for (const auto& p : model.params().items()) {
    h = jmix(h, hash64(p.name));
    const auto data = p.tensor.data();
    h = jmix(h, durable::crc32(reinterpret_cast<const char*>(data.data()),
                               data.size() * sizeof(float)));
  }
  return h;
}

/// Append-only leaf-completion ledger with per-record CRC framing:
/// [magic u32][payload bytes u64][payload][crc32(payload) u32].
class Ledger {
 public:
  explicit Ledger(std::string path) : path_(std::move(path)) {}
  ~Ledger() {
    // Destruction is single-threaded (the generate pass has joined); the
    // lock only keeps the fd_ read well-defined for the analysis.
    MutexLock lock(mu_);
    if (fd_ >= 0) ::close(fd_);
  }

  /// Replays the ledger: returns completed leaves' outputs and truncates
  /// any torn trailing record so subsequent appends start on a clean frame.
  std::unordered_map<std::uint64_t, std::vector<std::string>> load_completed(
      std::size_t leaf_count) {
    std::unordered_map<std::uint64_t, std::vector<std::string>> done;
    std::ifstream in(path_, std::ios::binary);
    if (!in) return done;
    std::stringstream whole;
    whole << in.rdbuf();
    const std::string bytes = whole.str();
    std::size_t off = 0;
    std::size_t good = 0;
    while (bytes.size() - off >= sizeof(std::uint32_t) + sizeof(std::uint64_t)) {
      std::uint32_t magic;
      std::uint64_t payload_bytes;
      std::memcpy(&magic, bytes.data() + off, sizeof magic);
      std::memcpy(&payload_bytes, bytes.data() + off + sizeof magic,
                  sizeof payload_bytes);
      if (magic != kLedgerMagic || payload_bytes > kMaxRecordBytes) break;
      const std::size_t header = sizeof magic + sizeof payload_bytes;
      const std::size_t need = header + payload_bytes + sizeof(std::uint32_t);
      if (bytes.size() - off < need) break;  // torn tail
      std::uint32_t stored_crc;
      std::memcpy(&stored_crc, bytes.data() + off + header + payload_bytes,
                  sizeof stored_crc);
      if (durable::crc32(bytes.data() + off + header, payload_bytes) !=
          stored_crc)
        break;
      std::istringstream payload(
          bytes.substr(off + header, payload_bytes));
      BinaryReader r(payload);
      const auto leaf_idx = r.read<std::uint64_t>();
      const auto count = r.read<std::uint64_t>();
      std::vector<std::string> out;
      out.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i)
        out.push_back(r.read_string());
      if (leaf_idx < leaf_count) done[leaf_idx] = std::move(out);
      off += need;
      good = off;
    }
    if (good < bytes.size()) {
      log_warn("dcgen journal: truncating torn ledger tail (%zu of %zu bytes)",
               bytes.size() - good, bytes.size());
      std::error_code ec;
      fs::resize_file(path_, good, ec);
    }
    return done;
  }

  /// Appends one completed leaf's output and fsyncs. Serialised across
  /// worker threads; the mid_append failpoint sits between the two halves
  /// of the write so a simulated crash leaves a genuinely torn record.
  void append(std::uint64_t leaf_idx, const std::vector<std::string>& out) {
    std::ostringstream payload_s;
    BinaryWriter w(payload_s);
    w.write(leaf_idx);
    w.write<std::uint64_t>(out.size());
    for (const auto& s : out) w.write_string(s);
    const std::string payload = payload_s.str();
    std::string record;
    record.reserve(payload.size() + 16);
    const std::uint32_t magic = kLedgerMagic;
    const std::uint64_t payload_bytes = payload.size();
    const std::uint32_t crc = durable::crc32(payload.data(), payload.size());
    record.append(reinterpret_cast<const char*>(&magic), sizeof magic);
    record.append(reinterpret_cast<const char*>(&payload_bytes),
                  sizeof payload_bytes);
    record += payload;
    record.append(reinterpret_cast<const char*>(&crc), sizeof crc);

    // Held across the write+fsync on purpose: interleaving two appends
    // would tear *both* records, and the crash-recovery contract (replay
    // up to the last whole frame) depends on records hitting the file one
    // at a time. This is the durability point, not an accidental stall.
    MutexLock lock(mu_);
    if (fd_ < 0) {
      fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd_ < 0)
        throw std::runtime_error("dcgen journal: cannot open ledger " + path_);
    }
    PPG_FAILPOINT("dcgen.ledger.before_append");
    const std::size_t half = record.size() / 2;
    write_all(record.data(), half);
    PPG_FAILPOINT("dcgen.ledger.mid_append");
    write_all(record.data() + half, record.size() - half);
    if (::fsync(fd_) != 0)  // ppg-lint: allow(blocking-under-lock)
      throw std::runtime_error("dcgen journal: fsync failed on " + path_);
    PPG_FAILPOINT("dcgen.ledger.after_append");
  }

 private:
  void write_all(const char* data, std::size_t n) PPG_REQUIRES(mu_) {
    while (n > 0) {
      const ssize_t written = ::write(fd_, data, n);
      if (written < 0)
        throw std::runtime_error("dcgen journal: write failed on " + path_);
      data += written;
      n -= static_cast<std::size_t>(written);
    }
  }

  const std::string path_;
  Mutex mu_;
  int fd_ PPG_GUARDED_BY(mu_) = -1;
};

}  // namespace

std::vector<std::string> dc_generate(const gpt::GptModel& model,
                                     const pcfg::PatternDistribution& patterns,
                                     const DcGenConfig& cfg,
                                     std::uint64_t seed, DcGenStats* stats) {
  if (cfg.total <= 0 || cfg.threshold <= 0)
    throw std::invalid_argument("dc_generate: total and threshold must be > 0");
  obs::Span run_span("dcgen/run", "dcgen");
  DcMetrics& metrics = DcMetrics::get();
  metrics.runs.inc();
  DcGenStats local;

  // Parsed pattern storage must be address-stable for Task::pattern.
  std::vector<std::unique_ptr<std::vector<pcfg::Segment>>> parsed_patterns;
  std::vector<Task> leaves;
  std::vector<std::string> forced;  // fully-determined outputs
  // Pending division tasks grouped by prefix length; each batch divides up
  // to kDivisionBatch tasks of the shortest length (optimisation 3).
  std::map<std::size_t, std::vector<Task>> pending;

  auto route = [&](Task t) {
    // Cap by the capacity of what is still free (optimisation 2).
    const double capacity =
        remaining_capacity(*t.pattern, t.chars_done, cfg.total * 2 + 1);
    if (t.n > capacity) {
      local.capacity_capped += t.n - capacity;
      t.n = capacity;
    }
    if (t.n < kMinTask) {
      ++local.dropped;
      return;
    }
    if (t.chars_done >= pcfg::pattern_length(*t.pattern)) {
      // Prefix fully determines the password; emit it once.
      std::vector<int> full = t.prefix;
      full.push_back(Tokenizer::kEos);
      if (auto pw = Tokenizer::decode_password(full); pw && !pw->empty()) {
        forced.push_back(std::move(*pw));
        ++local.forced;
      }
      return;
    }
    if (t.n <= cfg.threshold) {
      leaves.push_back(std::move(t));
      return;
    }
    const std::size_t len = t.prefix.size();
    pending[len].push_back(std::move(t));
  };

  // Journal setup: with a matching plan on disk the whole division phase is
  // skipped — the plan *is* the division, saved from a previous run of this
  // exact (model, patterns, cfg, seed).
  const bool journaled = !cfg.journal_dir.empty();
  std::string plan_path, ledger_path;
  std::uint64_t fingerprint = 0;
  bool have_plan = false;
  if (journaled) {
    fs::create_directories(cfg.journal_dir);
    plan_path = cfg.journal_dir + "/plan.bin";
    ledger_path = cfg.journal_dir + "/ledger.bin";
    fingerprint = dc_fingerprint(model, patterns, cfg, seed);
    if (fs::exists(plan_path)) {
      try {
        durable::checked_load(plan_path, [&](BinaryReader& r) {
          if (r.read<std::uint32_t>() != kPlanMagic)
            throw std::runtime_error("not a dcgen plan");
          if (r.read<std::uint32_t>() != kPlanVersion)
            throw std::runtime_error("unsupported dcgen plan version");
          if (r.read<std::uint64_t>() != fingerprint)
            throw std::runtime_error(
                "fingerprint mismatch (different run); replanning");
          const auto forced_count = r.read<std::uint64_t>();
          forced.reserve(forced_count);
          for (std::uint64_t i = 0; i < forced_count; ++i)
            forced.push_back(r.read_string());
          const auto pat_count = r.read<std::uint64_t>();
          std::vector<const std::vector<pcfg::Segment>*> pats;
          pats.reserve(pat_count);
          for (std::uint64_t i = 0; i < pat_count; ++i) {
            auto parsed = pcfg::parse_pattern(r.read_string());
            if (!parsed)
              throw std::runtime_error("unparseable pattern in plan");
            parsed_patterns.push_back(
                std::make_unique<std::vector<pcfg::Segment>>(
                    std::move(*parsed)));
            pats.push_back(parsed_patterns.back().get());
          }
          const auto leaf_count = r.read<std::uint64_t>();
          leaves.reserve(leaf_count);
          for (std::uint64_t i = 0; i < leaf_count; ++i) {
            Task t;
            const auto pat_idx = r.read<std::uint64_t>();
            if (pat_idx >= pats.size())
              throw std::runtime_error("pattern index out of range in plan");
            t.pattern = pats[pat_idx];
            t.chars_done = r.read<std::int32_t>();
            t.n = r.read<double>();
            t.prefix = r.read_vector<int>();
            leaves.push_back(std::move(t));
          }
        });
        have_plan = true;
        local.resumed_plan = true;
        local.forced = forced.size();
        log_info("dcgen journal: resumed plan with %zu leaves, %zu forced",
                 leaves.size(), forced.size());
      } catch (const std::exception& e) {
        log_warn("dcgen journal: discarding plan: %s", e.what());
        forced.clear();
        leaves.clear();
        parsed_patterns.clear();
        have_plan = false;
      }
    }
  }

  // Root division by the pattern distribution (Alg. 1 lines 2-9).
  const auto& sorted = patterns.sorted();
  for (std::size_t i = 0; !have_plan && i < sorted.size(); ++i) {
    const auto& [pattern_str, prob] = sorted[i];
    auto parsed = pcfg::parse_pattern(pattern_str);
    if (!parsed) continue;
    bool representable = true;
    for (const auto& s : *parsed)
      if (s.len > Tokenizer::kMaxSegmentLen) representable = false;
    if (!representable) continue;
    parsed_patterns.push_back(
        std::make_unique<std::vector<pcfg::Segment>>(std::move(*parsed)));
    Task t;
    t.pattern = parsed_patterns.back().get();
    t.prefix = Tokenizer::encode_generation_prefix(*t.pattern);
    t.chars_done = 0;
    t.n = cfg.total * prob;
    route(std::move(t));
  }

  // Recursive division (Alg. 1 lines 10-22), batched by prefix length.
  // With the KV cache on, a divided task's post-prefix state is snapshotted
  // into a per-run prefix trie; its children (division or leaf) later
  // resume from it instead of re-priming from <BOS>. Values are bitwise
  // identical either way (kv_cache.h), so the cache may be toggled, sized,
  // or evicted freely without changing a single emitted guess.
  std::unique_ptr<gpt::KvTrieCache> cache;
  if (cfg.kv_cache_bytes > 0)
    cache = std::make_unique<gpt::KvTrieCache>(cfg.kv_cache_bytes);
  gpt::InferenceSession session(model);
  const auto& class_sets = ClassTokenSets::instance();
  std::vector<gpt::KvTrieCache::Handle> handles;
  std::vector<gpt::PrefillRow> starts;
  while (!pending.empty()) {
    obs::Span division_span("dcgen/division_batch", "dcgen");
    auto bucket_it = pending.begin();
    auto& bucket = bucket_it->second;
    const std::size_t take = std::min(kDivisionBatch, bucket.size());
    std::vector<Task> group(std::make_move_iterator(bucket.end() - take),
                            std::make_move_iterator(bucket.end()));
    bucket.resize(bucket.size() - take);
    if (bucket.empty()) pending.erase(bucket_it);

    // Phase 1: one prefill brings every task to the logits after its whole
    // prefix, each row resuming from its own deepest cached ancestor.
    handles.clear();
    starts.clear();
    for (const Task& t : group) {
      if (cache) handles.push_back(cache->find_longest(t.prefix));
      starts.push_back({t.prefix, cache ? handles.back().state() : nullptr});
    }
    const gpt::PrefillCounts primed = session.prefill(starts);
    ++local.model_calls;
    local.prefill_tokens += primed.tokens;
    local.prefill_saved += primed.saved;
    if (cache)
      for (std::size_t i = 0; i < group.size(); ++i)
        cache->insert(group[i].prefix,
                      session.snapshot(static_cast<gpt::Index>(i)));

    // Phase 2: route children in the group's order, so the leaf list (and
    // thus the output order) never depends on what the cache held.
    for (std::size_t i = 0; i < group.size(); ++i) {
      Task& t = group[i];
      ++local.divisions;
      const std::span<const int> allowed =
          class_sets.of(*pcfg::class_at(*t.pattern, t.chars_done));
      const std::span<const float> logits =
          session.logits_row(static_cast<gpt::Index>(i));
      // Softmax restricted to the candidate tokens (paper: c = 52/10/32).
      float mx = -1e30f;
      for (const int v : allowed)
        mx = std::max(mx, logits[static_cast<std::size_t>(v)]);
      double z = 0.0;
      thread_local std::vector<std::pair<int, double>> cand;
      cand.clear();
      for (const int v : allowed) {
        const double e =
            std::exp(double(logits[static_cast<std::size_t>(v)] - mx));
        cand.emplace_back(v, e);
        z += e;
      }
      for (auto& [tok_id, weight] : cand) {
        const double n_child = t.n * (weight / z);
        Task child;
        child.pattern = t.pattern;
        child.prefix = t.prefix;
        child.prefix.push_back(tok_id);
        child.chars_done = t.chars_done + 1;
        child.n = n_child;
        route(std::move(child));
      }
    }
  }

  // Persist the freshly computed plan. The stale ledger (if any) belongs
  // to a different plan and is removed *first*: a crash between the two
  // steps then leaves no ledger at all rather than one that indexes into
  // the wrong leaf list.
  if (journaled && !have_plan) {
    std::error_code ec;
    fs::remove(ledger_path, ec);
    PPG_FAILPOINT("dcgen.before_plan");
    durable::atomic_save(plan_path, [&](BinaryWriter& w) {
      w.write(kPlanMagic);
      w.write(kPlanVersion);
      w.write(fingerprint);
      w.write<std::uint64_t>(forced.size());
      for (const auto& s : forced) w.write_string(s);
      std::unordered_map<const std::vector<pcfg::Segment>*, std::uint64_t>
          pat_idx;
      std::vector<std::string> pat_strs;
      for (const auto& t : leaves)
        if (pat_idx.emplace(t.pattern, pat_strs.size()).second)
          pat_strs.push_back(pcfg::pattern_string(*t.pattern));
      w.write<std::uint64_t>(pat_strs.size());
      for (const auto& s : pat_strs) w.write_string(s);
      w.write<std::uint64_t>(leaves.size());
      for (const auto& t : leaves) {
        w.write<std::uint64_t>(pat_idx.at(t.pattern));
        w.write<std::int32_t>(t.chars_done);
        w.write<double>(t.n);
        w.write_vector(t.prefix);
      }
    });
  }

  // Execute leaves (Alg. 1 lines 5 and 13). Each leaf draws from its own
  // seeded RNG and results are concatenated in task order, so the output
  // is identical for any thread count (§III-C3 optimisation 3).
  local.leaves = leaves.size();
  std::vector<std::vector<std::string>> leaf_out(leaves.size());
  std::vector<gpt::SampleStats> leaf_stats(leaves.size());
  std::vector<char> leaf_done(leaves.size(), 0);
  std::unique_ptr<Ledger> ledger;
  if (journaled) {
    ledger = std::make_unique<Ledger>(ledger_path);
    auto completed = ledger->load_completed(leaves.size());
    for (auto& [idx, pws] : completed) {
      leaf_out[idx] = std::move(pws);
      leaf_done[idx] = 1;
      ++local.resumed_leaves;
    }
    if (local.resumed_leaves > 0)
      log_info("dcgen journal: %zu of %zu leaves already complete",
               local.resumed_leaves, leaves.size());
  }
  const auto leaf_count = [&](std::size_t leaf_idx) {
    return static_cast<std::size_t>(std::llround(leaves[leaf_idx].n));
  };
  // A leaf's output is final: count it, journal it.
  const auto leaf_finished = [&](std::size_t leaf_idx) {
    DcMetrics::get().emitted.inc(leaf_out[leaf_idx].size());
    if (ledger) ledger->append(leaf_idx, leaf_out[leaf_idx]);
    PPG_FAILPOINT("dcgen.leaf.done");
  };
  // A leaf's parent prefix was snapshotted when it was divided, so the
  // deepest cached ancestor usually covers all but the last token. The
  // handle pins the state while the leaf needs it.
  const auto cached_ancestor = [&](std::size_t leaf_idx) {
    return cache ? cache->find_longest(leaves[leaf_idx].prefix)
                 : gpt::KvTrieCache::Handle{};
  };
  const auto run_leaf = [&](std::size_t leaf_idx) {
    if (leaf_done[leaf_idx]) return;
    obs::Span leaf_span("dcgen/leaf", "dcgen");
    const Task& t = leaves[leaf_idx];
    const std::size_t count = leaf_count(leaf_idx);
    if (count == 0) return;
    Rng rng(seed ^ hash64("dcgen-leaf"), std::to_string(leaf_idx));
    const gpt::KvTrieCache::Handle hit = cached_ancestor(leaf_idx);
    leaf_out[leaf_idx] = gpt::sample_passwords(
        model, t.prefix, count, rng, cfg.sample,
        make_pattern_mask(*t.pattern, t.chars_done), &leaf_stats[leaf_idx],
        hit.state());
    leaf_finished(leaf_idx);
  };
  // Best-first leaves: each leaf's quota becomes "the leaf's top-`count`
  // most likely passwords". A leaf thread walks its contiguous slice
  // [lo, hi), admitting leaves in index order and keeping
  // kOrderedLeavesInFlight of them in flight on one session; a round
  // advances each until it needs an expansion and steps them all together.
  // No RNG touches the output and rows never change each other's floats
  // (kv_cache.h), so every leaf emits what it would alone, for any thread
  // count; the run-level cache hit only changes prefill work.
  const auto run_ordered_leaves = [&](std::size_t lo, std::size_t hi) {
    obs::Span leaf_span("dcgen/leaf", "dcgen");
    struct Flight {
      std::size_t leaf;
      gpt::KvTrieCache::Handle hit;  ///< pins the root's resume state
      std::unique_ptr<search::OrderedEnumerator> enumerator;
    };
    gpt::InferenceSession session(model);
    search::Expander expander;
    std::vector<Flight> flights;
    flights.reserve(kOrderedLeavesInFlight);
    std::size_t next_leaf = lo;
    const auto admit = [&] {
      for (; next_leaf < hi; ++next_leaf) {
        const std::size_t count = leaf_count(next_leaf);
        if (leaf_done[next_leaf] || count == 0) continue;
        const Task& t = leaves[next_leaf];
        search::OrderedOptions sopts;
        sopts.cache_bytes = kOrderedCacheBytes;
        sopts.max_expansions = cfg.ordered_max_expansions;
        sopts.max_guesses = count;
        Flight f{next_leaf, cached_ancestor(next_leaf), nullptr};
        f.enumerator = std::make_unique<search::OrderedEnumerator>(
            model, t.prefix, sopts,
            make_pattern_mask(*t.pattern, t.chars_done), f.hit.state());
        leaf_out[next_leaf].reserve(count);
        flights.push_back(std::move(f));
        ++next_leaf;
        return true;
      }
      return false;
    };
    while (true) {
      std::size_t i = 0;
      while (i < flights.size() ||
             (flights.size() < kOrderedLeavesInFlight && admit())) {
        Flight& f = flights[i];
        search::Advance a = f.enumerator->advance();
        for (; a.kind == search::Advance::Kind::kGuess;
             a = f.enumerator->advance())
          leaf_out[f.leaf].push_back(std::move(a.guess.password));
        if (a.kind == search::Advance::Kind::kExpand) {
          expander.add(*f.enumerator, a.expansion);
          ++i;
          continue;
        }
        const search::OrderedStats& s = f.enumerator->stats();
        gpt::SampleStats& st = leaf_stats[f.leaf];
        st.sequences_run = s.nodes_expanded;
        st.invalid = s.invalid;
        st.prefill_tokens = s.prefill_tokens;
        st.prefill_saved = s.prefill_saved;
        leaf_finished(f.leaf);
        // Its slot goes to the last flight, not yet advanced this round.
        if (i + 1 < flights.size()) flights[i] = std::move(flights.back());
        flights.pop_back();
      }
      if (expander.empty()) break;  // nothing in flight, nothing to admit
      expander.run(session);
    }
  };
  {
    obs::Span leaves_span("dcgen/leaves", "dcgen");
    if (cfg.leaf_mode == LeafMode::kOrdered) {
      // One contiguous slice of leaves per leaf thread.
      const std::size_t slices = std::min<std::size_t>(
          leaves.size(), static_cast<std::size_t>(std::max(cfg.threads, 1)));
      const std::size_t per =
          slices == 0 ? 0 : (leaves.size() + slices - 1) / slices;
      const auto run_slice = [&](std::size_t s) {
        run_ordered_leaves(s * per, std::min(leaves.size(), (s + 1) * per));
      };
      if (slices > 1) {
        ThreadPool pool(slices - 1);  // the caller runs slice 0
        pool.parallel_for(slices, run_slice);
      } else if (slices == 1) {
        run_slice(0);
      }
    } else if (cfg.threads > 1 && leaves.size() > 1) {
      ThreadPool pool(static_cast<std::size_t>(cfg.threads));
      pool.parallel_for(leaves.size(), run_leaf);
    } else {
      for (std::size_t i = 0; i < leaves.size(); ++i) run_leaf(i);
    }
  }
  // Leaf prefill accounting is summed after the pool joins so the totals
  // are exact and identical for any thread count.
  for (const auto& s : leaf_stats) {
    local.prefill_tokens += s.prefill_tokens;
    local.prefill_saved += s.prefill_saved;
  }
  // Mirror the per-run snapshot into the process-wide registry. The counts
  // were accumulated single-threaded during division (route/model loop);
  // emitted passwords were counted atomically inside the leaf workers.
  metrics.divisions.inc(local.divisions);
  metrics.model_calls.inc(local.model_calls);
  metrics.leaves.inc(local.leaves);
  metrics.dropped.inc(local.dropped);
  metrics.forced.inc(local.forced);
  metrics.emitted.inc(forced.size());
  metrics.capacity_capped.add(local.capacity_capped);

  std::vector<std::string> out = std::move(forced);
  for (auto& pws : leaf_out)
    out.insert(out.end(), std::make_move_iterator(pws.begin()),
               std::make_move_iterator(pws.end()));
  // Dedupe-aware accounting: sampled leaves repeat, ordered leaves cannot,
  // and cross-leaf duplicates are impossible with strict conformance
  // (prefix-free leaves). unique_emitted is what honest per-guess hit-rate
  // comparisons divide by.
  local.emitted = out.size();
  {
    std::unordered_set<std::string_view> uniq;
    uniq.reserve(out.size());
    for (const auto& pw : out) uniq.insert(pw);
    local.unique_emitted = uniq.size();
  }
  if (stats) *stats = local;
  return out;
}

}  // namespace ppg::core
