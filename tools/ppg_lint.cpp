// ppg_lint: repo-specific static checks the general-purpose compiler
// can't express. Runs as a ctest over the whole tree (src/, tests/,
// bench/, tools/, examples/), so a rule violation fails CI exactly like a
// unit test.
//
// The rules encode project policy (DESIGN.md §9):
//   naked-thread        threads are spawned via ppg::ThreadPool or the
//                       serving layer's audited worker lifecycles, never
//                       ad-hoc — TSan coverage and drain()/stop() semantics
//                       only hold for owned threads.
//   nondeterministic-random
//                       generation paths must draw from common/rng.h
//                       (seeded xoshiro256**); rand()/time()/random_device
//                       would silently break bit-for-bit reproducibility,
//                       which Eq. (1) probabilities and the D&C-GEN
//                       duplicate-rate claims depend on.
//   cout-in-library     library code logs through common/logging.h (one
//                       atomic stdio call per line); std::cout from
//                       concurrent workers interleaves mid-line and
//                       corrupts NDJSON streams.
//   raw-tensor-index    inside src/nn, element access goes through the
//                       Tensor accessors (which carry bounds DCHECKs) —
//                       raw (*data_)[...] indexing bypasses the invariant
//                       layer.
//   raw-new-delete      in src/gpt, src/serve and src/core, memory is
//                       owned by unique_ptr/vector — the KV-cache trie is
//                       refcount-heavy and raw new/delete there turns
//                       early returns into leaks or double-frees.
//   assert-use          invariants use PPG_CHECK/PPG_DCHECK (always print
//                       a message; DCHECK tracks sanitize builds, not
//                       NDEBUG) rather than cassert.
//   direct-final-write  library code persists artifacts through
//                       durable::atomic_save (temp + fsync + rename + CRC
//                       footer, DESIGN.md §11); a bare std::ofstream to a
//                       final path is torn by the first ill-timed crash.
//   pragma-once         every header starts its include story with
//                       #pragma once (rule of the existing tree).
//   untracked-bench     every bench main records its run through the
//                       shared perf-trajectory recorder (bench::parse_env,
//                       or the obs/bench_track.h API directly) — a bench
//                       that bypasses it produces numbers the CI perf gate
//                       never sees, so its wins can silently rot.
//   unbounded-frontier-push
//                       in src/search, every heap push must sit within two
//                       lines of a budget check (max_nodes / cache_bytes /
//                       enforce_budgets) — best-first frontiers grow
//                       geometrically, and a push site without an adjacent
//                       bound turns the search into an OOM.
//   raw-intrinsics      raw SIMD intrinsics (_mm*/__m*/immintrin.h) appear
//                       only in the src/nn/kernels_* backend files; all
//                       other code reaches vector units through the
//                       dispatched nn/kernels.h wrappers, keeping every
//                       vector path under the cross-backend differential
//                       harness (DESIGN.md §15).
//   raw-std-mutex       src/serve, src/obs and src/gpt synchronise through
//                       the annotated ppg::Mutex / ppg::MutexLock /
//                       ppg::CondVar wrappers (common/thread_annotations.h)
//                       — raw std primitives are invisible to clang's
//                       -Wthread-safety analysis, so a guarded_by
//                       annotation next to one is a lie the compiler can't
//                       catch (DESIGN.md §14).
//   blocking-under-lock lexical scan: no fsync / ::write / ::read /
//                       sleep_for / atomic_save / checked_load inside a
//                       MutexLock|lock_guard scope — file IO under a lock
//                       stalls every thread behind it; snapshot under the
//                       lock, then do the blocking call outside
//                       (copy-then-write, DESIGN.md §14). The scan is
//                       brace-depth-aware: the guard "scope" ends when the
//                       block it was declared in closes.
//   unannotated-mutex-sibling
//                       heuristic: a member declared in the same block as
//                       a mutex, whose name ends in '_', must carry
//                       PPG_GUARDED_BY / PPG_PT_GUARDED_BY (const/static/
//                       atomic/Mutex/CondVar members are exempt). Catches
//                       the classic drift where a new field lands beside
//                       mu_ without joining its lock discipline.
//   blocking-socket-no-timeout
//                       in src/serve and src/fleet, every blocking socket
//                       read primitive (::read / ::recv / read_some /
//                       poll_readable / a `LineReader reader(...)`
//                       construction) must sit within two lines of a
//                       deadline or timeout token (Deadline, *_timeout_ms)
//                       — an untimed read wedges its connection thread
//                       forever when the peer stalls instead of dying, and
//                       the fleet's liveness story (DESIGN.md §16) depends
//                       on every wait being either bounded or killable by
//                       supervision (waive with a comment naming which).
//   logit-sentinel      in src/gpt, src/search, src/core and src/serve,
//                       pattern conformance is a per-step allowed-token
//                       list (gpt::AllowedTokens) that sampling and scoring
//                       read directly: no LogitMask hook overwriting logits
//                       with a sentinel, no -1e29 "masked" threshold. A
//                       -1e30 sentinel scaled by 1/T passes that threshold
//                       once T > 10, so a fully masked row drew a token.
//                       (-1e30f seeding a running max stays legal.)
//
// A finding on one specific line can be waived in place with a trailing
//   // ppg-lint: allow(<rule-name>) <why>
// comment (several rules may share one allow() as a comma-separated list);
// path-level exemptions live in the rule table below.
//
// Matching is substring-with-left-word-boundary over comment- and
// string-stripped source, so `srand(` does not fire `rand(` and prose in
// comments never fires at all.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Rule {
  std::string name;
  std::vector<std::string> needles;  ///< empty for file-level rules
  std::string message;
  std::vector<std::string> include;  ///< path prefixes the rule applies to
  std::vector<std::string> exclude;  ///< path prefixes/files exempt from it
  /// Inverted file-level rule: the file must contain at least one of these
  /// (word-boundary match on stripped code). Empty = not a require-rule.
  std::vector<std::string> require;
  /// Adjacency requirement: a needle match is fine when one of these
  /// tokens appears (word-boundary match on stripped code) within two
  /// lines of it; the rule fires only on matches with no such neighbour.
  std::vector<std::string> near;
};

const std::vector<Rule> kRules = {
    {"naked-thread",
     {"std::thread", "std::jthread", "pthread_create"},
     "spawn workers via ppg::ThreadPool (src/common/thread_pool.h) or an "
     "audited owner; naked threads escape drain()/stop() and TSan coverage",
     {"src/"},
     {"src/common/thread_pool.h"},
     {},
     {}},
    {"nondeterministic-random",
     {"rand(", "srand(", "rand_r(", "std::random_device", "random_device{",
      "std::mt19937", "time(nullptr)", "time(NULL)", "time(0)"},
     "deterministic paths must draw from common/rng.h (seeded "
     "xoshiro256**), not wall clocks or libc randomness",
     {"src/"},
     {},
     {},
     {}},
    {"cout-in-library",
     {"std::cout"},
     "library code logs via common/logging.h (atomic single-call lines); "
     "std::cout interleaves under concurrency",
     {"src/"},
     {},
     {},
     {}},
    {"raw-tensor-index",
     {"(*data_)[", "(*grad_)["},
     "use the Tensor accessors (at()/data()/grad()) — raw storage indexing "
     "bypasses the bounds DCHECKs",
     {"src/nn/"},
     {"src/nn/tensor.h"},
     {},
     {}},
    {"raw-new-delete",
     {"new ", "delete ", "delete["},
     "own memory with std::unique_ptr/std::vector (the KV-cache trie and "
     "its neighbours are refcount-heavy; raw new/delete there turns every "
     "early return into a leak or double-free)",
     {"src/gpt/", "src/serve/", "src/core/"},
     {},
     {},
     {}},
    {"direct-final-write",
     {"std::ofstream"},
     "write durable artifacts via durable::atomic_save "
     "(src/common/durable_io.h) — a direct ofstream to a final path can be "
     "torn mid-write by a crash and carries no CRC footer",
     {"src/"},
     {"src/common/durable_io.cpp"},
     {},
     {}},
    {"assert-use",
     {"assert(", "#include <cassert>", "#include <assert.h>"},
     "use PPG_CHECK / PPG_DCHECK from common/check.h (message + abort, "
     "sanitize-aware) instead of cassert",
     {"src/", "tools/"},
     {},
     {},
     {}},
    {"pragma-once",
     {},  // file-level: headers must contain #pragma once
     "header is missing #pragma once",
     {"src/", "tests/", "bench/", "tools/", "examples/"},
     {},
     {},
     {}},
    {"untracked-bench",
     {},  // file-level require-rule, see `require` below
     "bench main bypasses the shared perf recorder — use bench::parse_env "
     "(+ track_metric) or the obs/bench_track.h append API so the run lands "
     "in BENCH_<name>.json and the CI perf gate can see it",
     {"bench/bench_"},
     {},
     {"parse_env", "make_bench_record", "append_trajectory"},
     {}},
    {"unbounded-frontier-push",
     {"std::priority_queue", "push_heap", "push_minmax_heap"},
     "frontier pushes in src/search must sit within two lines of a budget "
     "check (max_nodes / cache_bytes / enforce_budgets) — an unguarded "
     "best-first heap grows geometrically into an OOM",
     {"src/search/"},
     {},
     {},
     {"max_nodes", "cache_bytes", "enforce_budgets"}},
    {"raw-intrinsics",
     {"_mm_", "_mm256_", "_mm512_", "__m128", "__m256", "__m512",
      "immintrin.h"},
     "raw SIMD intrinsics live only in the src/nn/kernels_* backend "
     "implementations — everything else calls through the dispatched "
     "nn/kernels.h wrappers, so the differential harness keeps every "
     "vector path honest (DESIGN.md §15)",
     {"src/", "tools/", "bench/"},
     {"src/nn/kernels_avx2.cpp", "src/nn/kernels_avx512.cpp"},
     {},
     {}},
    {"raw-std-mutex",
     {"std::mutex", "std::recursive_mutex", "std::timed_mutex",
      "std::shared_mutex", "std::condition_variable", "std::lock_guard",
      "std::unique_lock", "std::scoped_lock"},
     "synchronise via ppg::Mutex / ppg::MutexLock / ppg::CondVar "
     "(common/thread_annotations.h) — raw std primitives are invisible to "
     "clang -Wthread-safety, so annotations beside them go unchecked",
     {"src/serve/", "src/obs/", "src/gpt/"},
     {},
     {},
     {}},
    {"blocking-socket-no-timeout",
     {"::read(", "::recv(", "read_some(", "poll_readable(",
      "LineReader reader("},
     "socket read with no deadline in reach — pass a Deadline / timeout (or "
     "waive with a comment naming what bounds the wait: an idle timeout, or "
     "supervision that kills the stalled peer and EOFs this fd)",
     {"src/serve/", "src/fleet/"},
     {},
     {},
     {"Deadline", "idle_timeout_ms", "heartbeat_timeout_ms", "timeout_ms",
      "poll_timeout_ms"}},
    {"logit-sentinel",
     {"LogitMask", "1e29"},
     "pattern conformance is a per-step allowed-token list "
     "(gpt::AllowedTokens) that sampling and scoring read directly — no "
     "logit-overwriting mask and no -1e29 masked-logit threshold (a -1e30 "
     "sentinel scaled by 1/T passes it once T > 10)",
     {"src/gpt/", "src/search/", "src/core/", "src/serve/"},
     {},
     {},
     {}},
    // Custom brace-depth pass (see scan_blocking_under_lock): `needles`
    // here are the blocking calls, not line-match needles.
    {"blocking-under-lock",
     {"fsync(", "::write(", "::read(", "sleep_for(", "atomic_save(",
      "checked_load("},
     "blocking call inside a MutexLock/lock_guard scope stalls every thread "
     "behind the lock — snapshot under the lock, then do the IO outside "
     "(copy-then-write, DESIGN.md §14)",
     {"src/"},
     {"src/common/thread_annotations.h"},
     {},
     {}},
    // Custom sibling-scan pass (see scan_mutex_siblings).
    {"unannotated-mutex-sibling",
     {},
     "member shares a block with a mutex but carries no PPG_GUARDED_BY / "
     "PPG_PT_GUARDED_BY — annotate it, or waive with a comment naming the "
     "discipline that protects it",
     {"src/"},
     {"src/common/thread_annotations.h"},
     {},
     {}},
};

/// *_main.cpp files are binary entry points: stdout is their product
/// (NDJSON responses, bench tables), so cout-in-library does not apply.
bool is_binary_entry(const std::string& rel) {
  return rel.size() >= 9 && rel.compare(rel.size() - 9, 9, "_main.cpp") == 0;
}

bool path_has_prefix(const std::string& rel,
                     const std::vector<std::string>& prefixes) {
  for (const auto& p : prefixes)
    if (rel.compare(0, p.size(), p) == 0) return true;
  return false;
}

bool rule_applies(const Rule& r, const std::string& rel) {
  if (!path_has_prefix(rel, r.include)) return false;
  if (path_has_prefix(rel, r.exclude)) return false;
  if (r.name == "cout-in-library" && is_binary_entry(rel)) return false;
  return true;
}

/// Replaces comments and string/char-literal contents with spaces, keeping
/// column positions stable. `in_block` carries /* */ state across lines.
std::string strip_noncode(const std::string& line, bool& in_block) {
  std::string out(line.size(), ' ');
  std::size_t i = 0;
  while (i < line.size()) {
    if (in_block) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        in_block = false;
        i += 2;
      } else {
        ++i;
      }
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      in_block = true;
      i += 2;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char q = c;
      out[i] = q;
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          i += 2;
          continue;
        }
        if (line[i] == q) {
          out[i] = q;
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    out[i] = c;
    ++i;
  }
  return out;
}

bool is_word_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Substring search requiring a non-identifier char (or start of line)
/// immediately before the match, so `srand(` never fires `rand(`.
bool contains_word(const std::string& code, const std::string& needle) {
  std::size_t pos = 0;
  while ((pos = code.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || !is_word_char(code[pos - 1])) return true;
    ++pos;
  }
  return false;
}

/// True when `raw` carries a `ppg-lint: allow(...)` naming `rule`. One
/// allow() can waive several rules as a comma-separated list, and a line
/// may carry more than one allow() marker.
bool line_waives(const std::string& raw, const std::string& rule) {
  std::size_t mark = 0;
  while ((mark = raw.find("ppg-lint: allow(", mark)) != std::string::npos) {
    const std::size_t open = raw.find('(', mark);
    const std::size_t close = raw.find(')', open);
    if (close == std::string::npos) return false;
    std::string_view inside(raw.data() + open + 1, close - open - 1);
    while (!inside.empty()) {
      const std::size_t comma = inside.find(',');
      std::string_view tok = inside.substr(0, comma);
      while (!tok.empty() && tok.front() == ' ') tok.remove_prefix(1);
      while (!tok.empty() && tok.back() == ' ') tok.remove_suffix(1);
      if (tok == rule) return true;
      if (comma == std::string_view::npos) break;
      inside.remove_prefix(comma + 1);
    }
    mark = close;
  }
  return false;
}

/// All left-word-boundary match start positions of `needle` in `code`.
std::vector<std::size_t> word_positions(const std::string& code,
                                        const std::string& needle) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while ((pos = code.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || !is_word_char(code[pos - 1])) out.push_back(pos);
    ++pos;
  }
  return out;
}

struct Finding {
  std::string rel;
  std::size_t line;
  const Rule* rule;
};

/// Lock-guard spellings whose constructor acquires a capability for the
/// rest of the enclosing block (blocking-under-lock's notion of "under a
/// lock" is lexical containment in such a block).
const std::vector<std::string> kLockGuards = {
    "MutexLock", "std::lock_guard", "std::unique_lock", "std::scoped_lock"};

/// blocking-under-lock: a char-wise brace walk keeps a stack of the block
/// depths at which lock guards were declared; while the stack is non-empty
/// every blocking-call needle is a finding. Lexical, per-file: a blocking
/// call in a helper that *requires* the lock (PPG_REQUIRES) is the
/// caller's responsibility, not this rule's.
void scan_blocking_under_lock(const Rule& r,
                              const std::vector<std::string>& raws,
                              const std::vector<std::string>& codes,
                              const std::string& rel,
                              std::vector<Finding>& findings) {
  int depth = 0;
  std::vector<int> guard_depths;
  for (std::size_t idx = 0; idx < codes.size(); ++idx) {
    const std::string& code = codes[idx];
    std::vector<std::size_t> guards, calls;
    for (const auto& g : kLockGuards)
      for (const std::size_t p : word_positions(code, g)) guards.push_back(p);
    for (const auto& n : r.needles)
      for (const std::size_t p : word_positions(code, n)) calls.push_back(p);
    std::sort(guards.begin(), guards.end());
    std::sort(calls.begin(), calls.end());
    std::size_t gi = 0, ci = 0;
    for (std::size_t i = 0; i <= code.size(); ++i) {
      while (gi < guards.size() && guards[gi] == i) {
        guard_depths.push_back(depth);
        ++gi;
      }
      while (ci < calls.size() && calls[ci] == i) {
        if (!guard_depths.empty() && !line_waives(raws[idx], r.name))
          findings.push_back({rel, idx + 1, &r});
        ++ci;
      }
      if (i == code.size()) break;
      if (code[i] == '{') {
        ++depth;
      } else if (code[i] == '}') {
        --depth;
        while (!guard_depths.empty() && guard_depths.back() > depth)
          guard_depths.pop_back();
      }
    }
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

/// Member spellings that excuse a mutex sibling from needing an
/// annotation: immutable, internally synchronized, or not data at all.
bool sibling_exempt(const std::string& code) {
  for (const char* tok :
       {"const", "constexpr", "static", "using", "typedef", "friend", "enum",
        "struct", "class", "std::atomic", "Mutex", "CondVar", "std::mutex",
        "std::condition_variable", "std::once_flag"})
    if (contains_word(code, tok)) return true;
  return false;
}

/// A line that *declares* a mutex member/local: mentions a mutex type,
/// ends the declaration on this line, and is not a function/friend/type
/// declaration.
bool is_mutex_decl(const std::string& code) {
  const std::string_view t = trim(code);
  if (t.empty() || t.back() != ';') return false;
  if (code.find('(') != std::string::npos) return false;
  for (const char* kw : {"friend", "using", "typedef", "class", "struct"})
    if (contains_word(code, kw)) return false;
  return contains_word(code, "Mutex") || contains_word(code, "std::mutex") ||
         contains_word(code, "std::recursive_mutex") ||
         contains_word(code, "std::shared_mutex");
}

/// unannotated-mutex-sibling: for every mutex declaration, walk its
/// enclosing block (lines whose depth never dips below the mutex's) and
/// flag same-depth declarations whose name ends in '_' but that carry no
/// PPG_GUARDED_BY / PPG_PT_GUARDED_BY. The trailing-underscore heuristic
/// targets members (locals named like `fifo` or `closed` are out of
/// scope); exemptions live in sibling_exempt().
void scan_mutex_siblings(const Rule& r, const std::vector<std::string>& raws,
                         const std::vector<std::string>& codes,
                         const std::string& rel,
                         std::vector<Finding>& findings) {
  const std::size_t n = codes.size();
  // start_depth[i]: brace depth entering line i; min_depth[i]: the lowest
  // depth reached while scanning it (detects a block closing mid-line).
  std::vector<int> start_depth(n, 0), min_depth(n, 0);
  int depth = 0;
  for (std::size_t i = 0; i < n; ++i) {
    start_depth[i] = depth;
    int mind = depth;
    for (const char c : codes[i]) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
      mind = std::min(mind, depth);
    }
    min_depth[i] = mind;
  }
  std::vector<bool> flagged(n, false);
  for (std::size_t m = 0; m < n; ++m) {
    if (!is_mutex_decl(codes[m])) continue;
    const int d = start_depth[m];
    std::size_t lo = m, hi = m;
    while (lo > 0 && min_depth[lo - 1] >= d) --lo;
    while (hi + 1 < n && min_depth[hi + 1] >= d) ++hi;
    for (std::size_t j = lo; j <= hi; ++j) {
      if (j == m || flagged[j] || start_depth[j] != d) continue;
      const std::string& code = codes[j];
      const std::string_view t = trim(code);
      if (t.empty() || t.back() != ';') continue;
      if (code.find('(') != std::string::npos) continue;
      if (contains_word(code, "PPG_GUARDED_BY") ||
          contains_word(code, "PPG_PT_GUARDED_BY"))
        continue;
      if (sibling_exempt(code)) continue;
      // Last identifier before ';' (or before '=' / '{' when initialized):
      // member names end in '_' by convention.
      std::string_view decl = t.substr(0, t.size() - 1);
      const std::size_t eq = decl.find('=');
      if (eq != std::string_view::npos) decl = decl.substr(0, eq);
      std::size_t end = decl.size();
      while (end > 0 && !is_word_char(decl[end - 1])) --end;
      std::size_t begin = end;
      while (begin > 0 && is_word_char(decl[begin - 1])) --begin;
      if (begin == end || decl[end - 1] != '_') continue;
      if (line_waives(raws[j], r.name)) continue;
      flagged[j] = true;
      findings.push_back({rel, j + 1, &r});
    }
  }
}

void scan_file(const fs::path& abs, const std::string& rel,
               std::vector<Finding>& findings) {
  std::vector<const Rule*> line_rules;
  const Rule* header_rule = nullptr;
  const Rule* require_rule = nullptr;
  const Rule* blocking_rule = nullptr;
  const Rule* sibling_rule = nullptr;
  const bool is_header = rel.size() > 2 && rel.rfind(".h") == rel.size() - 2;
  for (const auto& r : kRules) {
    if (!rule_applies(r, rel)) continue;
    if (r.name == "blocking-under-lock") {
      blocking_rule = &r;
    } else if (r.name == "unannotated-mutex-sibling") {
      sibling_rule = &r;
    } else if (!r.require.empty()) {
      if (!is_header) require_rule = &r;
    } else if (r.needles.empty()) {
      if (is_header) header_rule = &r;
    } else {
      line_rules.push_back(&r);
    }
  }
  if (line_rules.empty() && header_rule == nullptr &&
      require_rule == nullptr && blocking_rule == nullptr &&
      sibling_rule == nullptr)
    return;

  std::ifstream in(abs);
  if (!in) {
    std::fprintf(stderr, "ppg_lint: cannot read %s\n", rel.c_str());
    findings.push_back({rel, 0, nullptr});
    return;
  }
  // Buffered scan: rules with a `near` adjacency requirement look up to
  // two lines around a match, so the whole file is read (and stripped)
  // before any rule runs.
  std::vector<std::string> raws, codes;
  {
    std::string raw;
    bool in_block = false;
    while (std::getline(in, raw)) {
      codes.push_back(strip_noncode(raw, in_block));
      raws.push_back(std::move(raw));
    }
  }
  bool saw_pragma_once = false;
  bool require_met = false;
  const auto near_ok = [&](const Rule& r, std::size_t idx) {
    if (r.near.empty()) return false;
    const std::size_t lo = idx >= 2 ? idx - 2 : 0;
    const std::size_t hi = std::min(idx + 2, codes.size() - 1);
    for (std::size_t j = lo; j <= hi; ++j)
      for (const auto& token : r.near)
        if (contains_word(codes[j], token)) return true;
    return false;
  };
  for (std::size_t idx = 0; idx < raws.size(); ++idx) {
    const std::string& raw = raws[idx];
    const std::string& code = codes[idx];
    const std::size_t lineno = idx + 1;
    if (is_header && raw.find("#pragma once") != std::string::npos)
      saw_pragma_once = true;
    if (require_rule != nullptr && !require_met)
      for (const auto& needle : require_rule->require)
        if (contains_word(code, needle)) {
          require_met = true;
          break;
        }
    for (const Rule* r : line_rules) {
      for (const auto& needle : r->needles) {
        if (!contains_word(code, needle)) continue;
        if (!line_waives(raw, r->name) && !near_ok(*r, idx))
          findings.push_back({rel, lineno, r});
        break;
      }
    }
  }
  if (header_rule != nullptr && !saw_pragma_once)
    findings.push_back({rel, 1, header_rule});
  if (require_rule != nullptr && !require_met)
    findings.push_back({rel, 1, require_rule});
  if (blocking_rule != nullptr)
    scan_blocking_under_lock(*blocking_rule, raws, codes, rel, findings);
  if (sibling_rule != nullptr)
    scan_mutex_siblings(*sibling_rule, raws, codes, rel, findings);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  bool list_rules = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else {
      std::fprintf(stderr,
                   "usage: ppg_lint --root <repo-root> [--list-rules]\n");
      return 2;
    }
  }
  if (list_rules) {
    for (const auto& r : kRules)
      std::printf("%-24s %s\n", r.name.c_str(), r.message.c_str());
    return 0;
  }
  if (root.empty()) {
    std::fprintf(stderr, "ppg_lint: --root is required\n");
    return 2;
  }

  std::vector<std::string> rels;
  for (const char* top : {"src", "tests", "bench", "tools", "examples"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cpp") continue;
      rels.push_back(
          fs::relative(entry.path(), root).generic_string());
    }
  }
  std::sort(rels.begin(), rels.end());

  std::vector<Finding> findings;
  for (const auto& rel : rels) scan_file(fs::path(root) / rel, rel, findings);

  for (const auto& f : findings) {
    if (f.rule == nullptr) continue;  // unreadable file, already reported
    std::printf("%s:%zu: [%s] %s\n", f.rel.c_str(), f.line, f.rule->name.c_str(),
                f.rule->message.c_str());
  }
  if (!findings.empty()) {
    std::printf("ppg_lint: %zu finding(s) in %zu file(s) scanned\n",
                findings.size(), rels.size());
    return 1;
  }
  std::printf("ppg_lint: clean (%zu files, %zu rules)\n", rels.size(),
              kRules.size());
  return 0;
}
