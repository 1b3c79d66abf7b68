// ppg_serve: password-guess server speaking the NDJSON wire protocol
// (serve/wire.h) over stdin/stdout, or over localhost TCP with --port.
//
// With --model it serves a trained PagPassGPT checkpoint (weights +
// pattern distribution, as written by PagPassGPT::save); without one it
// serves a random-init model over a builtin pattern list — strict masks
// still force every guess to conform, which is all the smoke tests and
// load benches need.
//
// All diagnostics go to stderr; stdout carries only protocol lines.
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "core/pagpassgpt.h"
#include "nn/backend.h"
#include "serve/service.h"
#include "serve/tcp.h"
#include "serve/wire.h"

namespace {

using namespace ppg;

pcfg::PatternDistribution builtin_patterns(const std::string& csv) {
  pcfg::PatternDistribution dist;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) dist.add(item);
  dist.finalize();
  return dist;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv,
            {"config", "seed", "model", "patterns", "workers", "max-queue",
             "max-batch", "max-count", "no-batching", "attempt-factor",
             "max-ordered-top-k", "quantize", "nn-backend", "port",
             "listen-fd", "max-line-bytes", "idle-timeout-ms",
             "prefix-cache-mb", "help"});
    if (cli.get_bool("help")) {
      std::fprintf(
          stderr,
          "ppg_serve: NDJSON password-guess server (see src/serve/wire.h)\n"
          "  --model PATH        PagPassGPT checkpoint (PagPassGPT::save)\n"
          "  --config NAME       tiny|small|bench|paper (default tiny;\n"
          "                      must match the checkpoint when --model)\n"
          "  --seed N            random-init seed without --model\n"
          "  --patterns CSV      builtin pattern list without --model\n"
          "  --workers N         worker threads (default 1)\n"
          "  --max-queue N       admission-queue capacity (default 256)\n"
          "  --max-batch N       rows per model call (default 64)\n"
          "  --max-count N       per-request count cap (default 4096)\n"
          "  --no-batching       one request per model call\n"
          "  --attempt-factor N  retry budget multiplier (default 4)\n"
          "  --max-ordered-top-k N  cap on ordered-request top_k "
          "(default 512)\n"
          "  --quantize          int8 projections for sampled requests\n"
          "                      (ordered requests always run fp32)\n"
          "  --nn-backend NAME   force the SIMD kernel backend\n"
          "                      (scalar|avx2|avx512; default widest the\n"
          "                      CPU supports, or $PPG_NN_BACKEND)\n"
          "  --port N            serve localhost TCP instead of stdio\n"
          "  --listen-fd N       adopt a pre-bound listening socket (the\n"
          "                      fleet router binds before fork so a\n"
          "                      restarted worker keeps its port)\n"
          "  --max-line-bytes N  per-connection request-line cap, TCP only\n"
          "                      (default 1 MiB; overlong lines are\n"
          "                      rejected with a reason, never buffered)\n"
          "  --idle-timeout-ms N close TCP connections idle this long\n"
          "                      (default 0 = never)\n"
          "  --prefix-cache-mb N cross-request prefix KV cache budget in\n"
          "                      MiB (default 32; 0 disables)\n");
      return 0;
    }

    const auto config = gpt::Config::by_name(cli.get("config", "tiny"));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 17));
    if (cli.has("nn-backend"))
      nn::set_backend(nn::parse_backend(cli.get("nn-backend")));
    std::fprintf(stderr, "ppg_serve: nn backend %s\n",
                 nn::active_backend().name);

    // Model + pattern sources: trained checkpoint, or random-init fallback.
    std::optional<core::PagPassGPT> trained;
    std::optional<gpt::GptModel> random_init;
    pcfg::PatternDistribution own_patterns;
    const gpt::GptModel* model = nullptr;
    const pcfg::PatternDistribution* patterns = nullptr;
    if (cli.has("model")) {
      trained.emplace(config, seed);
      trained->load(cli.get("model"));
      model = &trained->model();
      patterns = &trained->patterns();
      std::fprintf(stderr, "ppg_serve: loaded checkpoint %s (%zu patterns)\n",
                   cli.get("model").c_str(), patterns->distinct());
    } else {
      random_init.emplace(config, seed);
      own_patterns = builtin_patterns(
          cli.get("patterns", "L6N2,L8,N6,L4N4,N4L4,L1N6,S1L6N2"));
      model = &*random_init;
      patterns = &own_patterns;
      std::fprintf(stderr,
                   "ppg_serve: random-init model (config=%s seed=%llu, "
                   "%zu builtin patterns)\n",
                   cli.get("config", "tiny").c_str(),
                   static_cast<unsigned long long>(seed),
                   patterns->distinct());
    }

    serve::ServiceConfig scfg;
    scfg.workers = static_cast<std::size_t>(cli.get_int("workers", 1));
    scfg.max_queue = static_cast<std::size_t>(cli.get_int("max-queue", 256));
    scfg.max_batch = static_cast<std::size_t>(cli.get_int("max-batch", 64));
    scfg.max_count = static_cast<std::size_t>(cli.get_int("max-count", 4096));
    scfg.batching = !cli.get_bool("no-batching");
    scfg.max_attempt_factor =
        static_cast<int>(cli.get_int("attempt-factor", 4));
    scfg.max_ordered_top_k =
        static_cast<std::size_t>(cli.get_int("max-ordered-top-k", 512));
    if (cli.get_bool("quantize"))
      scfg.precision = gpt::Precision::kInt8;
    scfg.prefix_cache_bytes =
        static_cast<std::size_t>(cli.get_int("prefix-cache-mb", 32)) << 20;
    serve::GuessService svc(*model, *patterns, scfg);

    if (cli.has("port") || cli.has("listen-fd")) {
      serve::TcpOptions topts;
      topts.port = static_cast<int>(cli.get_int("port", 0));
      topts.listen_fd = static_cast<int>(cli.get_int("listen-fd", -1));
      topts.max_line_bytes = static_cast<std::size_t>(
          cli.get_int("max-line-bytes", std::int64_t(1) << 20));
      topts.idle_timeout_ms =
          static_cast<double>(cli.get_int("idle-timeout-ms", 0));
      return serve::serve_tcp(svc, topts);
    }
    serve::serve_stream(svc, std::cin, std::cout);
    svc.shutdown();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppg_serve: %s\n", e.what());
    return 1;
  }
}
