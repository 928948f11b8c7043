// Shared main() skeleton for the figure-reproduction benches.
//
// Each bench binary regenerates one figure of the paper and prints the same
// series the paper plots, as an aligned table.  QIP_ROUNDS in the
// environment raises the number of rounds per data point (default is small
// so the whole suite finishes in minutes; the paper used 1000).
//
// Replication parallelism: --jobs N (or QIP_JOBS) fans the (x, round) cells
// across N worker threads.  The output is byte-identical for every value —
// the point of the deterministic runner — so the table deliberately never
// mentions which jobs count produced it.
// Quorum backend: --quorum NAME (or QIP_QUORUM) selects majority /
// dynamic_linear / slices for every engine the bench constructs; malformed
// names exit 2 before any cell runs (docs/QUORUM.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/figures.hpp"
#include "harness/parallel.hpp"
#include "quorum/quorum_policy.hpp"
#include "util/env.hpp"

namespace qip::benchmain {

/// Parses --quorum NAME / --quorum=NAME into QIP_QUORUM so the backend
/// reaches every internally-constructed QipParams; exits 2 on a bad name.
inline void apply_quorum_args(int argc, const char* const* argv) {
  const char* chosen = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quorum") == 0 && i + 1 < argc) {
      chosen = argv[i + 1];
    } else if (std::strncmp(arg, "--quorum=", 9) == 0) {
      chosen = arg + 9;
    }
  }
  if (chosen != nullptr) {
    if (!parse_quorum_backend(chosen)) {
      std::fprintf(stderr,
                   "--quorum %s is not a quorum backend (expected "
                   "\"majority\", \"dynamic_linear\" or \"slices\")\n",
                   chosen);
      std::exit(2);
    }
    setenv("QIP_QUORUM", chosen, /*overwrite=*/1);
  }
  // Validate eagerly even when only the env var is set, so a typo fails
  // fast instead of mid-run at the first QipParams construction.
  (void)quorum_backend_from_env();
}

/// Parses --jobs N / --jobs=N, falling back to QIP_JOBS, then `fallback`.
inline std::uint32_t jobs_from_args(int argc, const char* const* argv,
                                    std::uint32_t fallback = 1) {
  std::uint32_t jobs = jobs_from_env(fallback);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      jobs = parse_positive_u32("--jobs", argv[i + 1]);
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      jobs = parse_positive_u32("--jobs", arg + 7);
    }
  }
  return jobs;
}

inline int run(FigureData (*figure)(const ExperimentOptions&), int argc = 0,
               const char* const* argv = nullptr,
               std::uint32_t default_rounds = 3) {
  apply_quorum_args(argc, argv);
  ExperimentOptions opt;
  opt.rounds = rounds_from_env(default_rounds);
  opt.jobs = jobs_from_args(argc, argv);
  const FigureData fig = figure(opt);
  std::printf("%s", fig.render().c_str());
  std::printf("(rounds per point: %u; set QIP_ROUNDS to raise)\n\n",
              opt.rounds);
  return 0;
}

}  // namespace qip::benchmain
