// Microbenchmarks of the nn/gpt substrate (google-benchmark): GEMM kernels,
// the decode-shape projections (row-major vs column-panel), fused
// attention forward+backward, full training steps, decode throughput of
// the KV-cache inference path, its attention alone, and ordered-search
// expansion rounds of one or many enumerators sharing a step.
//
// `--track-dir=DIR` (consumed before google-benchmark sees argv) appends
// one perf-trajectory record to DIR/BENCH_micro_nn.json with every
// benchmark's per-iteration wall time (_ms), items/sec and other counters
// — the trajectory ppg_perfgate gates against. All other flags pass
// through to google-benchmark (--benchmark_filter, --benchmark_min_time,
// ...).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/masks.h"
#include "gpt/attention.h"
#include "gpt/infer.h"
#include "gpt/model.h"
#include "nn/backend.h"
#include "nn/graph.h"
#include "nn/kernels.h"
#include "nn/packed.h"
#include "nn/quant.h"
#include "obs/bench_track.h"
#include "pcfg/pattern.h"
#include "search/ordered.h"
#include "tokenizer/tokenizer.h"

namespace {

using namespace ppg;

void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<nn::Index>(state.range(0));
  std::vector<float> a(n * n, 1.f), b(n * n, 1.f), c(n * n);
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.f);
    nn::kernels::gemm_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<nn::Index>(state.range(0));
  std::vector<float> a(n * n, 1.f), b(n * n, 1.f), c(n * n);
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.f);
    nn::kernels::gemm_nt(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(128);

void BM_AttentionForwardBackward(benchmark::State& state) {
  const nn::Index B = 8, T = 32, d = 64, H = 4;
  Rng rng(1);
  nn::Tensor qkv({B * T, 3 * d});
  qkv.fill_normal(rng, 0.5f);
  for (auto _ : state) {
    nn::Graph g;
    const nn::Tensor out = g.causal_self_attention(qkv, B, T, H);
    const nn::Tensor loss = g.mean_all(out);
    g.backward(loss);
    benchmark::DoNotOptimize(qkv.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * B * T);
}
BENCHMARK(BM_AttentionForwardBackward);

void BM_LayerNormForwardBackward(benchmark::State& state) {
  const nn::Index m = 512, d = 64;
  Rng rng(2);
  nn::Tensor x({m, d}), gain({d}), bias({d});
  x.fill_normal(rng, 1.f);
  gain.fill(1.f);
  for (auto _ : state) {
    nn::Graph g;
    const nn::Tensor loss = g.mean_all(g.layernorm(x, gain, bias));
    g.backward(loss);
    benchmark::DoNotOptimize(x.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_LayerNormForwardBackward);

void BM_TrainStep(benchmark::State& state) {
  // One full forward+backward of the bench transformer on a batch.
  gpt::GptModel model(gpt::Config::small(), 3);
  const nn::Index batch = 32, time = 20;
  std::vector<int> inputs(batch * time, 41), targets(batch * time, 42);
  for (auto _ : state) {
    nn::Graph g;
    const nn::Tensor loss = model.loss(g, inputs, targets, batch, time, -1);
    g.backward(loss);
    model.params().zero_grad();
    benchmark::DoNotOptimize(loss.at(0));
  }
  state.SetItemsProcessed(state.iterations() * batch * time);
}
BENCHMARK(BM_TrainStep);

void BM_InferenceDecode(benchmark::State& state) {
  // Tokens/second of the KV-cache decode path at the given batch size.
  const gpt::GptModel model(gpt::Config::small(), 4);
  const auto batch = static_cast<nn::Index>(state.range(0));
  gpt::InferenceSession session(model);
  const std::vector<int> tokens(static_cast<std::size_t>(batch),
                                tok::Tokenizer::kBos);
  session.reset(batch);
  for (auto _ : state) {
    if (session.position(0) >= model.config().context) session.reset(batch);
    benchmark::DoNotOptimize(session.step(tokens).data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_InferenceDecode)->Arg(1)->Arg(16)->Arg(128);

void BM_InferenceDecodeInt8(benchmark::State& state) {
  // The serve fast path: same decode loop, int8 projections. The fp32
  // BM_InferenceDecode rows above are the comparison baseline.
  const gpt::GptModel model(gpt::Config::small(), 4);
  const auto batch = static_cast<nn::Index>(state.range(0));
  gpt::InferenceSession session(model, gpt::Precision::kInt8);
  const std::vector<int> tokens(static_cast<std::size_t>(batch),
                                tok::Tokenizer::kBos);
  session.reset(batch);
  for (auto _ : state) {
    if (session.position(0) >= model.config().context) session.reset(batch);
    benchmark::DoNotOptimize(session.step(tokens).data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_InferenceDecodeInt8)->Arg(1)->Arg(16)->Arg(128);

/// Decode-shape projection cells: y[M, n] = x[M, k]·W + bias for each
/// Linear of the small (d32, 2 layers) and paper (d256, 12 layers) models
/// at the row counts decoding runs, row-major `affine` against the
/// column-panel `packed_affine` the fp32 decode path uses. An iteration
/// runs the projection once per layer over distinct weight copies, as a
/// decode step does, so paper-config weights stream from beyond L2 the way
/// they do when serving. Named BM_Decode<Affine|Packed>_<backend>_
/// <model>_<projection>/<M>; items/sec counts FLOPs.
void register_decode_cells(nn::BackendKind kind, const std::string& suffix) {
  struct Model {
    const char* name;
    gpt::Config cfg;
  };
  for (const Model& model : {Model{"small", gpt::Config::small()},
                             Model{"paper", gpt::Config::paper()}}) {
    const nn::Index d = model.cfg.d_model, layers = model.cfg.n_layers;
    const struct {
      const char* name;
      nn::Index k, n;
    } shapes[] = {{"qkv", d, 3 * d},
                  {"proj", d, d},
                  {"fc1", d, model.cfg.d_ff()},
                  {"fc2", model.cfg.d_ff(), d},
                  {"lm_head", d, model.cfg.vocab}};
    for (const auto& shape : shapes)
      for (const bool packed : {false, true}) {
        const std::string name = std::string("BM_Decode") +
                                 (packed ? "Packed_" : "Affine_") + suffix +
                                 "_" + model.name + "_" + shape.name;
        const nn::Index k = shape.k, n = shape.n;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [kind, k, n, layers, packed](benchmark::State& state) {
              nn::ScopedBackend forced(kind);
              const auto m = static_cast<nn::Index>(state.range(0));
              const std::vector<float> x(m * k, 0.5f), bias(n, 0.1f);
              std::vector<float> y(m * n);
              std::vector<std::vector<float>> w;
              std::vector<std::vector<float>> pw;
              for (nn::Index l = 0; l < layers; ++l) {
                std::vector<float> wl(k * n, 0.01f * float(l + 1));
                if (packed) {
                  pw.emplace_back(nn::packed_size(k, n));
                  nn::pack_weights(wl.data(), k, n, pw.back().data());
                } else {
                  w.push_back(std::move(wl));
                }
              }
              for (auto _ : state) {
                for (nn::Index l = 0; l < layers; ++l) {
                  if (packed)
                    nn::kernels::packed_affine(m, n, k, x.data(),
                                               pw[l].data(), bias.data(),
                                               y.data());
                  else
                    nn::kernels::affine(m, n, k, x.data(), w[l].data(),
                                        bias.data(), y.data());
                }
                benchmark::DoNotOptimize(y.data());
                benchmark::ClobberMemory();
              }
              state.SetItemsProcessed(state.iterations() * layers * 2 * m *
                                      n * k);
            })
            ->Arg(1)
            ->Arg(4)
            ->Arg(12)
            ->Arg(16);
      }
  }
}

/// Decode attention cells: one row's attention at one layer of the small
/// (d32, 4 heads of 8) and paper (d256, 8 heads of 32) models, at position
/// 7 or 31, by the kernel gpt::attend and by its reference loop. Neither
/// goes through the backend table: both follow the build's own vector
/// width. Named BM_DecodeAttention<Kernel|Reference>_<model>/<pos>;
/// items/sec counts the cached positions attended.
void register_attention_cells() {
  for (const auto& [model, cfg] :
       {std::pair{"small", gpt::Config::small()},
        std::pair{"paper", gpt::Config::paper()}}) {
    const gpt::AttentionShape shape{cfg.d_model, cfg.n_heads, cfg.context};
    for (const bool kernel : {true, false}) {
      const std::string name = std::string("BM_DecodeAttention") +
                               (kernel ? "Kernel_" : "Reference_") + model;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [shape, kernel](benchmark::State& state) {
            const auto pos = static_cast<nn::Index>(state.range(0));
            Rng rng(static_cast<std::uint64_t>(pos) + 1);
            std::vector<float> q(shape.d);
            for (float& f : q) f = rng.uniform_f() * 8.f - 4.f;
            // One block per position: this layer's K, then its V.
            std::vector<gpt::KvBlock> blocks;
            for (nn::Index s = 0; s < shape.context; ++s) {
              auto block =
                  std::make_shared_for_overwrite<float[]>(2 * shape.d);
              for (nn::Index i = 0; i < 2 * shape.d; ++i)
                block[i] = rng.uniform_f() * 8.f - 4.f;
              blocks.push_back(std::move(block));
            }
            std::vector<float> scores(shape.heads * shape.context);
            std::vector<float> out(shape.d);
            for (auto _ : state) {
              if (kernel)
                gpt::attend(shape, q.data(), blocks.data(), 0, pos,
                            scores.data(), out.data());
              else
                gpt::attend_reference(shape, q.data(), blocks.data(), 0,
                                      pos, scores.data(), out.data());
              benchmark::DoNotOptimize(out.data());
              benchmark::ClobberMemory();
            }
            state.SetItemsProcessed(state.iterations() * (pos + 1));
          })
          ->Arg(7)
          ->Arg(31);
    }
  }
}

/// Ordered-search expansion cells: E enumerators on random-init small
/// (d32, 2 layers) and paper (d256, 12 layers) models, each best-first
/// over its own D&C-GEN-style leaf prefix (pattern L4N2 with one letter
/// fixed) under the pattern's mask, stepped together by one
/// search::Expander for 32 rounds an iteration (the root round, then one
/// expansion each a round). E = 1 is the one-row path serve takes; E = 8
/// is D&C-GEN's in-flight count. Named BM_OrderedExpansion_<model>/<E>;
/// items/sec counts expansions and us_per_expansion is its inverse.
void register_ordered_expansion_cells() {
  for (const auto& [model_name, cfg] :
       {std::pair{"small", gpt::Config::small()},
        std::pair{"paper", gpt::Config::paper()}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_OrderedExpansion_") + model_name).c_str(),
        [cfg](benchmark::State& state) {
          constexpr int kRounds = 32;
          const auto count = static_cast<std::size_t>(state.range(0));
          const gpt::GptModel model(cfg, 6);
          const auto pattern = pcfg::parse_pattern("L4N2");
          const gpt::AllowedTokens mask = core::make_pattern_mask(*pattern, 1);
          std::vector<std::vector<int>> prefixes;
          for (std::size_t e = 0; e < count; ++e) {
            prefixes.push_back(
                tok::Tokenizer::encode_generation_prefix(*pattern));
            prefixes.back().push_back(
                tok::Tokenizer::char_token(static_cast<char>('a' + e)));
          }
          gpt::InferenceSession session(model);
          search::Expander expander;
          std::int64_t expansions = 0;
          double seconds = 0;
          for (auto _ : state) {
            const auto start = std::chrono::steady_clock::now();
            std::vector<std::unique_ptr<search::OrderedEnumerator>> group;
            for (const std::vector<int>& prefix : prefixes)
              group.push_back(std::make_unique<search::OrderedEnumerator>(
                  model, prefix, search::OrderedOptions{}, mask));
            for (int round = 0; round < kRounds; ++round) {
              for (auto& e : group) {
                search::Advance a = e->advance();
                while (a.kind == search::Advance::Kind::kGuess)
                  a = e->advance();
                if (a.kind == search::Advance::Kind::kExpand) {
                  expander.add(*e, a.expansion);
                  ++expansions;
                }
              }
              expander.run(session);
            }
            benchmark::DoNotOptimize(group.front()->stats().heap_peak);
            seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
          }
          state.SetItemsProcessed(expansions);
          state.counters["us_per_expansion"] =
              seconds * 1e6 / static_cast<double>(expansions);
        })
        ->Arg(1)
        ->Arg(8)
        ->Unit(benchmark::kMillisecond);
  }
}

/// Per-backend variants, registered at startup for whatever tables this
/// machine can run (scalar always; avx2/avx512 when the CPU has them).
/// Names carry the backend (BM_GemmNN_avx2/128) so the perf trajectory
/// tracks each backend's curve separately.
void register_backend_benchmarks() {
  for (const nn::BackendKind kind : nn::available_backends()) {
    const std::string suffix = nn::backend_name(kind);
    register_decode_cells(kind, suffix);
    benchmark::RegisterBenchmark(
        ("BM_GemmNN_" + suffix).c_str(),
        [kind](benchmark::State& state) {
          nn::ScopedBackend forced(kind);
          const auto n = static_cast<nn::Index>(state.range(0));
          std::vector<float> a(n * n, 1.f), b(n * n, 1.f), c(n * n);
          for (auto _ : state) {
            std::fill(c.begin(), c.end(), 0.f);
            nn::kernels::gemm_nn(n, n, n, a.data(), b.data(), c.data());
            benchmark::DoNotOptimize(c.data());
          }
          state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
        })
        ->Arg(64)
        ->Arg(128)
        ->Arg(256);
    benchmark::RegisterBenchmark(
        ("BM_LayerNormRows_" + suffix).c_str(),
        [kind](benchmark::State& state) {
          nn::ScopedBackend forced(kind);
          const nn::Index rows = 512, d = 64;
          std::vector<float> x(rows * d, 0.5f), gain(d, 1.f), bias(d, 0.f),
              y(rows * d);
          for (auto _ : state) {
            nn::kernels::layernorm_rows(rows, d, x.data(), gain.data(),
                                        bias.data(), y.data());
            benchmark::DoNotOptimize(y.data());
          }
          state.SetItemsProcessed(state.iterations() * rows);
        });
    benchmark::RegisterBenchmark(
        ("BM_SoftmaxRows_" + suffix).c_str(),
        [kind](benchmark::State& state) {
          nn::ScopedBackend forced(kind);
          const nn::Index rows = 512, d = 96;
          std::vector<float> x(rows * d, 0.25f), y(rows * d);
          for (auto _ : state) {
            nn::kernels::softmax_rows(rows, d, x.data(), y.data());
            benchmark::DoNotOptimize(y.data());
          }
          state.SetItemsProcessed(state.iterations() * rows);
        });
    // The full int8 serving step for one matrix: quantize activations,
    // int8 GEMM, dequant+bias. items/sec is MACs*2, directly comparable
    // to the fp32 BM_GemmNN_<backend> rows.
    benchmark::RegisterBenchmark(
        ("BM_QAffine_" + suffix).c_str(),
        [kind](benchmark::State& state) {
          nn::ScopedBackend forced(kind);
          const auto n = static_cast<nn::Index>(state.range(0));
          const nn::Index k_pad = nn::quant::padded_k(n);
          std::vector<float> x(n * n, 0.5f), w(n * n, 0.25f), bias(n, 0.f),
              y(n * n), sx(n);
          const auto qw = nn::quant::quantize_weights(w.data(), n, n);
          std::vector<std::int8_t> qx(n * k_pad, 0);
          for (auto _ : state) {
            nn::kernels::quantize_rows(n, n, k_pad, x.data(), qx.data(),
                                       sx.data());
            nn::kernels::qaffine(n, n, k_pad, qx.data(), sx.data(),
                                 qw.data.data(), qw.scales.data(), bias.data(),
                                 y.data());
            benchmark::DoNotOptimize(y.data());
          }
          state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
        })
        ->Arg(64)
        ->Arg(128);
  }
}

/// Console reporter that additionally collects each benchmark's headline
/// numbers for the trajectory record. Aggregate rows (_mean/_median from
/// --benchmark_repetitions) are skipped: the gate medians across runs
/// itself.
class TrackingReporter : public benchmark::ConsoleReporter {
 public:
  std::map<std::string, double> metrics;

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::string key = run.benchmark_name();
      for (char& c : key)
        if (c == '/' || c == ':') c = '_';
      if (run.iterations > 0)
        metrics[key + "_ms"] =
            run.real_accumulated_time * 1e3 / double(run.iterations);
      for (const auto& [name, counter] : run.counters)
        metrics[key + "_" +
                (name == "items_per_second" ? "items_per_sec" : name)] =
            double(counter);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off --track-dir; everything else belongs to google-benchmark.
  std::string track_dir;
  std::vector<char*> fwd;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--track-dir=", 12) == 0)
      track_dir = argv[i] + 12;
    else if (std::strcmp(argv[i], "--track-dir") == 0 && i + 1 < argc)
      track_dir = argv[++i];
    else
      fwd.push_back(argv[i]);
  }
  int fwd_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&fwd_argc, fwd.data());
  if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data())) return 1;
  register_backend_benchmarks();
  register_attention_cells();
  register_ordered_expansion_cells();

  TrackingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!track_dir.empty()) {
    if (reporter.metrics.empty()) {
      std::fprintf(stderr, "bench_micro_nn: no runs, trajectory skipped\n");
      return 0;
    }
    const auto rec = ppg::obs::make_bench_record(
        "bench_micro_nn", {{"bench", "bench_micro_nn"}},
        std::move(reporter.metrics));
    const std::string path = ppg::obs::trajectory_path(track_dir, rec.bench);
    std::string error;
    if (ppg::obs::append_trajectory(path, rec, &error))
      std::fprintf(stderr, "trajectory record appended to %s\n", path.c_str());
    else
      std::fprintf(stderr, "FAILED to append trajectory %s: %s\n",
                   path.c_str(), error.c_str());
  }
  return 0;
}
