// One-off: trains the pinned small PagPassGPT the offline workloads decode
// from. `python3 perfbench/run.py --prepare` runs this and text-encodes
// the checkpoint into perfbench/model/.
#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "core/pagpassgpt.h"

namespace perfbench {

constexpr std::size_t kTrainCap = 12000;

int prepare_model(const std::string& path) {
  // The repository benches' PagPassGPT recipe (bench/common.cpp): small
  // config, 10 epochs, batch 64, lr 2e-3, the first 12,000 training
  // passwords, seed 2024.
  const Corpus corpus = load_corpus();
  ppg::core::PagPassGPT model(ppg::gpt::Config::small(),
                              kCorpusSeed ^ ppg::hash64("pag"));
  ppg::gpt::TrainConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 64;
  cfg.lr = 2e-3f;
  cfg.seed = kCorpusSeed;
  const std::size_t n = std::min(corpus.train.size(), kTrainCap);
  const std::vector<std::string> train(corpus.train.begin(),
                                       corpus.train.begin() + long(n));
  const double t0 = wall_now();
  const auto report = model.train(train, corpus.valid, cfg);
  model.save(path);
  std::printf("prepare: trained on %zu passwords in %.1f s, %zu steps; "
              "saved %s\n",
              n, wall_now() - t0, report.steps, path.c_str());
  return 0;
}

}  // namespace perfbench
