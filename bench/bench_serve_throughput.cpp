// Closed-loop load bench for the serve layer (src/serve).
//
// Sweeps client count × batching mode against one GuessService (1 worker:
// on a single core, batching's win is per-call amortisation — one weight
// pass feeds N rows — not parallelism). Each client thread runs a closed
// loop of count-1 pattern requests, and the dynamic batcher coalesces up
// to max_batch of them into one model call. All patterns in the mix have
// the same segment count, so every request shares a prefix length; the
// batcher no longer needs that (rows decode at their own positions), but
// the mix stays as it was so the trajectory stays comparable.
//
// Reports guesses/sec, p50/p99 request latency, scheduler occupancy
// (mean rows per model call), and the batched/unbatched throughput ratio
// per client count. The serving design targets >= 2x at 16 concurrent
// clients with the paper-size model — the regime where the weight matrices
// (~38 MB) exceed cache, so one weight pass feeding N rows beats N passes
// feeding one. Tiny configs whose weights stay cache-resident show ~1x:
// there is no memory traffic to amortise and one core's FLOPs are the
// bottleneck either way.
//
// Flags:
//   --config=tiny|small|bench|paper  model size (default paper)
//   --clients=CSV   client counts to sweep (default 1,4,16)
//   --requests=N    requests per client per cell (default 32)
//   --repeats=N     runs per cell, best kept (default 3) — scheduler noise
//                   only ever slows a run down, so best-of approximates
//                   the machine's true throughput
//   --max-batch=N   scheduler batch cap (default 64)
//   --quantize      serve sampled requests through the int8 projection
//                   path (ServiceConfig::precision = kInt8); the
//                   default fp32 run is the comparison baseline
//   --seed=N        base seed (default 2024)
//   --report=FILE   write the cell table as JSON
//   --track-dir=DIR append a perf-trajectory record (BENCH_serve_throughput
//                   .json) with the batched-vs-unbatched headline numbers
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/thread_pool.h"
#include "obs/bench_track.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace {

using namespace ppg;

std::vector<int> parse_csv_ints(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(std::stoi(item));
  return out;
}

/// Equal-segment-count pattern mix: every prefix is 4 tokens
/// (<BOS> seg seg <SEP>), so all requests are batch-compatible.
const char* kPatterns[] = {"L6N2", "L4N4", "N4L4", "N6L2"};

struct Cell {
  int clients = 0;
  bool batching = false;
  double wall_s = 0.0;
  std::size_t requests = 0;
  std::size_t guesses = 0;
  double guesses_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t batches = 0;   ///< model calls this cell issued
  double mean_batch_rows = 0;  ///< scheduler occupancy (rows per call)
  std::uint64_t invalid = 0;   ///< undecodable rows (each forces a retry)
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * double(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

Cell run_cell(const gpt::GptModel& model,
              const pcfg::PatternDistribution& patterns, int clients,
              bool batching, int requests, std::size_t max_batch,
              gpt::Precision precision, std::uint64_t seed) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = max_batch;
  cfg.max_queue = static_cast<std::size_t>(clients) * 2 + 8;
  cfg.batching = batching;
  cfg.precision = precision;
  serve::GuessService svc(model, patterns, cfg);

  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::vector<std::size_t> got(static_cast<std::size_t>(clients), 0);
  // The serve counters are cumulative across cells; difference them to get
  // this cell's scheduler occupancy.
  auto& ctr_batches = obs::Registry::global().counter("serve.batches");
  auto& ctr_rows = obs::Registry::global().counter("serve.rows");
  auto& ctr_invalid = obs::Registry::global().counter("serve.invalid");
  const std::uint64_t batches0 = ctr_batches.value();
  const std::uint64_t rows0 = ctr_rows.value();
  const std::uint64_t invalid0 = ctr_invalid.value();
  const std::int64_t t0 = obs::now_us();
  {
    ThreadPool pool(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c)
      (void)pool.submit([&, c] {
        auto& mine = lat[static_cast<std::size_t>(c)];
        mine.reserve(static_cast<std::size_t>(requests));
        for (int i = 0; i < requests; ++i) {
          serve::Request r;
          r.kind = serve::RequestKind::kPattern;
          r.pattern = kPatterns[(c + i) % 4];
          r.count = 1;
          r.seed = seed + std::uint64_t(c) * 100003 + std::uint64_t(i);
          const std::int64_t s0 = obs::now_us();
          const serve::Response resp = svc.submit_and_wait(std::move(r));
          mine.push_back(double(obs::now_us() - s0) / 1000.0);
          if (resp.status == serve::Status::kOk)
            got[static_cast<std::size_t>(c)] += resp.passwords.size();
        }
      });
    pool.drain();  // closed loop: wait for every client to finish
  }
  const double wall_s = double(obs::now_us() - t0) / 1e6;
  svc.shutdown();

  Cell cell;
  cell.clients = clients;
  cell.batching = batching;
  cell.wall_s = wall_s;
  cell.requests = static_cast<std::size_t>(clients) *
                  static_cast<std::size_t>(requests);
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  for (const auto g : got) cell.guesses += g;
  cell.guesses_per_sec = wall_s > 0 ? double(cell.guesses) / wall_s : 0.0;
  cell.p50_ms = percentile(all, 0.50);
  cell.p99_ms = percentile(all, 0.99);
  cell.batches = ctr_batches.value() - batches0;
  const std::uint64_t rows = ctr_rows.value() - rows0;
  cell.mean_batch_rows =
      cell.batches > 0 ? double(rows) / double(cell.batches) : 0.0;
  cell.invalid = ctr_invalid.value() - invalid0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv, {"config", "clients", "requests", "repeats",
                         "max-batch", "quantize", "seed", "report",
                         "track-dir"});
    const auto config = gpt::Config::by_name(cli.get("config", "paper"));
    const auto clients = parse_csv_ints(cli.get("clients", "1,4,16"));
    const int requests = static_cast<int>(cli.get_int("requests", 32));
    const int repeats = static_cast<int>(cli.get_int("repeats", 3));
    if (repeats < 1) throw std::invalid_argument("--repeats must be >= 1");
    const auto max_batch =
        static_cast<std::size_t>(cli.get_int("max-batch", 64));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2024));
    const gpt::Precision precision = cli.get_bool("quantize")
                                         ? gpt::Precision::kInt8
                                         : gpt::Precision::kFp32;
    // Random-init weights: strict masks make every guess decodable, and
    // the serving cost (the thing measured) is identical to a trained
    // model of the same config.
    gpt::GptModel model(config, seed);
    pcfg::PatternDistribution patterns;
    for (const char* p : kPatterns) patterns.add(p);
    patterns.finalize();

    std::printf("bench_serve_throughput: config=%s requests/client=%d "
                "repeats=%d max_batch=%zu precision=%s seed=%llu\n",
                cli.get("config", "paper").c_str(), requests, repeats,
                max_batch, gpt::precision_name(precision),
                static_cast<unsigned long long>(seed));
    std::printf("%8s  %9s  %10s  %9s  %9s  %9s  %8s\n", "clients", "batching",
                "guess/sec", "p50 ms", "p99 ms", "occupancy", "invalid");

    // Repeats are the OUTER loop so the unbatched/batched cells of one
    // client count interleave in time: machine-noise epochs (this bench
    // runs on shared hardware) hit both modes alike instead of swallowing
    // one cell's every repeat.
    std::vector<Cell> cells;
    for (int r = 0; r < repeats; ++r) {
      std::size_t idx = 0;
      for (const int n : clients)
        for (const bool batching : {false, true}) {
          const Cell run = run_cell(model, patterns, n, batching, requests,
                                    max_batch, precision, seed);
          if (r == 0)
            cells.push_back(run);
          else if (run.guesses_per_sec > cells[idx].guesses_per_sec)
            cells[idx] = run;
          ++idx;
        }
    }
    for (const Cell& cell : cells)
      std::printf("%8d  %9s  %10.1f  %9.3f  %9.3f  %9.2f  %8llu\n",
                  cell.clients, cell.batching ? "on" : "off",
                  cell.guesses_per_sec, cell.p50_ms, cell.p99_ms,
                  cell.mean_batch_rows,
                  static_cast<unsigned long long>(cell.invalid));

    std::printf("\nbatched/unbatched throughput:\n");
    for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
      const double speedup =
          cells[i].guesses_per_sec > 0
              ? cells[i + 1].guesses_per_sec / cells[i].guesses_per_sec
              : 0.0;
      std::printf("%8d clients: %.2fx\n", cells[i].clients, speedup);
    }

    if (cli.has("report")) {
      obs::JsonWriter w;
      w.begin_object();
      w.key("bench").value("bench_serve_throughput");
      w.key("config").begin_object();
      w.key("model").value(cli.get("config", "paper"));
      w.key("requests_per_client").value(std::int64_t{requests});
      w.key("repeats").value(std::int64_t{repeats});
      w.key("max_batch").value(std::uint64_t{max_batch});
      w.key("precision").value(gpt::precision_name(precision));
      w.key("seed").value(std::uint64_t{seed});
      w.end_object();
      w.key("cells").begin_array();
      for (const Cell& c : cells) {
        w.begin_object();
        w.key("clients").value(std::int64_t{c.clients});
        w.key("batching").value(c.batching);
        w.key("wall_s").value(c.wall_s);
        w.key("requests").value(std::uint64_t{c.requests});
        w.key("guesses").value(std::uint64_t{c.guesses});
        w.key("guesses_per_sec").value(c.guesses_per_sec);
        w.key("p50_ms").value(c.p50_ms);
        w.key("p99_ms").value(c.p99_ms);
        w.key("batches").value(c.batches);
        w.key("mean_batch_rows").value(c.mean_batch_rows);
        w.key("invalid").value(c.invalid);
        w.end_object();
      }
      w.end_array();
      w.key("speedup").begin_object();
      for (std::size_t i = 0; i + 1 < cells.size(); i += 2)
        w.key(std::to_string(cells[i].clients))
            .value(cells[i].guesses_per_sec > 0
                       ? cells[i + 1].guesses_per_sec /
                             cells[i].guesses_per_sec
                       : 0.0);
      w.end_object();
      w.end_object();
      std::ofstream out(cli.get("report"));
      out << w.str() << "\n";
      std::fprintf(stderr, "report written to %s\n",
                   cli.get("report").c_str());
    }

    if (cli.has("track-dir")) {
      // Headline = the batched cell at the highest client count (the regime
      // the serving design targets), plus the cross-cell request-latency
      // histogram percentiles.
      const Cell* best = nullptr;
      double speedup = 0.0;
      for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
        best = &cells[i + 1];
        speedup = cells[i].guesses_per_sec > 0
                      ? cells[i + 1].guesses_per_sec / cells[i].guesses_per_sec
                      : 0.0;
      }
      std::map<std::string, std::string> config;
      config["bench"] = "bench_serve_throughput";
      config["model"] = cli.get("config", "paper");
      config["clients"] = cli.get("clients", "1,4,16");
      config["requests_per_client"] = std::to_string(requests);
      config["repeats"] = std::to_string(repeats);
      config["max_batch"] = std::to_string(max_batch);
      config["precision"] = gpt::precision_name(precision);
      config["seed"] = std::to_string(seed);
      std::map<std::string, double> metrics;
      if (best != nullptr) {
        metrics["serve.batched_guesses_per_sec"] = best->guesses_per_sec;
        metrics["serve.p50_ms"] = best->p50_ms;
        metrics["serve.p99_ms"] = best->p99_ms;
        metrics["serve.occupancy"] = best->mean_batch_rows;
        metrics["serve.batching_speedup"] = speedup;
      }
      // serve.request_ms histogram percentiles are deliberately NOT
      // tracked: the log2 buckets are coarse at this request count and
      // the histogram mixes warm-up + unbatched cells, so a single
      // cold-start outlier swings p99 by an order of magnitude between
      // identical runs. The bench's own per-cell p50/p99 above are the
      // stable latency signal.
      const auto rec = obs::make_bench_record(
          "bench_serve_throughput", std::move(config), std::move(metrics));
      const std::string path =
          obs::trajectory_path(cli.get("track-dir"), rec.bench);
      std::string error;
      if (obs::append_trajectory(path, rec, &error))
        std::fprintf(stderr, "trajectory record appended to %s\n",
                     path.c_str());
      else
        std::fprintf(stderr, "FAILED to append trajectory %s: %s\n",
                     path.c_str(), error.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve_throughput: %s\n", e.what());
    return 1;
  }
}
