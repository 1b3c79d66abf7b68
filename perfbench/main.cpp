// The benchmark binary. run.py builds it and runs it as
//
//   ppg_perfbench --workload <trawl|ordered|serve> --seed <n> --seconds <s>
//                 --trace <0|1> --model <checkpoint> --work-dir <dir>
//   ppg_perfbench --prepare <checkpoint>
//
// A run prints human-readable lines (the seed, a digest of the guess
// stream, request tallies, failed checks) and ends with one line
// `RESULT {"correct":…,"attempted":…,"failed":…,"metrics":{…}}` holding
// every metric the run measured; run.py selects the ones BENCHMARK.json
// names for the mode.
#include <cmath>
#include <cstdio>
#include <exception>

#include "common/cli.h"
#include "workloads.h"

namespace {

void print_result(const perfbench::Result& r) {
  std::printf("RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              r.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", sep,
                name.c_str(), m.value, m.unit.c_str());
    sep = ",";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) try {
  const ppg::Cli cli(argc, argv, {"workload", "seed", "seconds", "trace",
                                  "model", "work-dir", "prepare"});
  if (cli.has("prepare"))
    return perfbench::prepare_model(cli.get("prepare", ""));

  perfbench::Args args;
  args.workload = cli.get("workload", "");
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  args.seconds = cli.get_double("seconds", 10);
  args.trace = cli.get_int("trace", 0) != 0;
  args.model = cli.get("model", "");
  args.work_dir = cli.get("work-dir", ".");

  perfbench::Result r;
  if (args.workload == "trawl" || args.workload == "ordered")
    r = perfbench::run_offline(args, args.workload == "ordered");
  else if (args.workload == "serve")
    r = perfbench::run_serve(args);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  for (auto& [name, m] : r.metrics) {
    if (std::isfinite(m.value)) continue;
    r.check(false, name + " is not finite");
    m.value = 0;
  }
  for (const auto& [name, m] : r.metrics)
    std::printf("  %-32s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  print_result(r);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "ppg_perfbench: %s\n", e.what());
  return 1;
}
