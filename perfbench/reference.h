// The reference build: a snapshot of the library sources (model/..,
// reference/src.tar.xz.b64) compiled with the token `ppg` renamed, so that
// it links into the benchmark binary beside the program it was taken from.
// The workloads time the same kind of work on it next to every timed phase.
// A shared host's speed drifts by up to twice from minute to minute, and
// differently for different work; the reference slows as the program does
// because it is the same code, so dividing the program's times by the
// reference's slowdown cancels the drift. No change to the program can
// move the reference, so a change still shows in full.
//
// This header includes nothing from the library: reference.cpp compiles
// against the snapshot's headers, every other file against the program's.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench::reference {

/// One offline job on the reference build: D&C-GEN over the pinned model's
/// pattern distribution with these settings and a fixed run seed.
struct OfflineJob {
  bool ordered = false;
  double total = 0;
  int threshold = 0;
  std::size_t ordered_max_expansions = 0;
};

/// Loads the pinned checkpoint (and its `.patterns`) into the reference
/// build; the offline functions below need it.
void load(const std::string& model_path);

/// Wall seconds of `job` on the reference build.
double offline_job(const OfflineJob& job);

/// Wall seconds of the offline set-up on the reference build: the corpus,
/// then the pinned model loaded from `model_path`.
double offline_setup(const std::string& model_path);

/// Wall seconds of the serve set-up's dominant part on the reference
/// build: the corpus, then the paper-config model's random init.
double serve_setup();

/// Wall and thread CPU seconds of one timed piece of reference work.
struct Timing {
  double wall_s = 0;
  double cpu_s = 0;
};

/// A fixed decode on the reference build's paper-config model: a few steps
/// of a small batch, as a serve worker takes them. serve_setup() must have
/// run.
Timing serve_decode();

}  // namespace perfbench::reference
