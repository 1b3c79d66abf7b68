// Compiled against the reference snapshot, with `ppg` renamed (see
// CMakeLists.txt): every `ppg::` name below is the snapshot's.
#include "reference.h"

#include <time.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/dcgen.h"
#include "core/pagpassgpt.h"
#include "data/corpus.h"
#include "gpt/infer.h"
#include "gpt/model.h"

namespace perfbench {

// harness.h's, which this file cannot include: it includes program headers.
double wall_now();

namespace reference {
namespace {

/// harness.h's kCorpusSeed: the seed of the corpus and every model.
constexpr std::uint64_t kSeed = 2024;

double thread_cpu_now() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return double(t.tv_sec) + double(t.tv_nsec) * 1e-9;
}

/// The benchmark's corpus (harness.cpp, load_corpus) on the snapshot.
std::vector<std::string> corpus() {
  auto profile = ppg::data::rockyou_profile();
  profile.unique_target = profile.unique_target / 5;
  return ppg::data::split_712(
             ppg::data::clean(ppg::data::generate_site(profile, kSeed))
                 .passwords,
             kSeed)
      .train;
}

std::unique_ptr<ppg::core::PagPassGPT> load_model(const std::string& path) {
  auto model = std::make_unique<ppg::core::PagPassGPT>(
      ppg::gpt::Config::small(), kSeed ^ ppg::hash64("pag"));
  model->load(path);
  return model;
}

std::unique_ptr<ppg::core::PagPassGPT> pinned;
std::unique_ptr<ppg::gpt::GptModel> paper;

}  // namespace

void load(const std::string& model_path) { pinned = load_model(model_path); }

double offline_job(const OfflineJob& job) {
  ppg::core::DcGenConfig cfg;
  cfg.threads = 1;
  cfg.threshold = job.threshold;
  cfg.total = job.total;
  if (job.ordered) {
    cfg.leaf_mode = ppg::core::LeafMode::kOrdered;
    cfg.ordered_max_expansions = job.ordered_max_expansions;
  }
  const double t0 = wall_now();
  const auto guesses = ppg::core::dc_generate(pinned->model(),
                                              pinned->patterns(), cfg, kSeed);
  const double wall = wall_now() - t0;
  if (guesses.empty()) throw std::runtime_error("reference job: no guesses");
  return wall;
}

double offline_setup(const std::string& model_path) {
  const double t0 = wall_now();
  const auto train = corpus();
  const auto model = load_model(model_path);
  return wall_now() - t0;
}

double serve_setup() {
  paper.reset();
  const double t0 = wall_now();
  const auto train = corpus();
  paper = std::make_unique<ppg::gpt::GptModel>(ppg::gpt::Config::paper(),
                                               kSeed);
  return wall_now() - t0;
}

Timing serve_decode() {
  constexpr int kRows = 4;
  constexpr int kSteps = 2;
  ppg::gpt::InferenceSession session(*paper);
  const std::vector<int> tokens(kRows, 1);
  const double w0 = wall_now(), c0 = thread_cpu_now();
  session.reset(kRows);
  for (int i = 0; i < kSteps; ++i) session.step(tokens);
  return {wall_now() - w0, thread_cpu_now() - c0};
}

}  // namespace reference
}  // namespace perfbench
