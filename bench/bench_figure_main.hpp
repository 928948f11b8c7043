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
// mentions which jobs count produced it.  --jobs is the only flag: an
// unknown argument, or --jobs without its value, exits 2 before any cell
// runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/figures.hpp"
#include "harness/parallel.hpp"
#include "util/env.hpp"

namespace qip::benchmain {

/// Parses the bench's one command-line flag, `name N` or `name=N`, as a
/// positive integer; returns `value` (the environment's or the default)
/// when the flag is absent.  Any other argument, or the flag without a
/// value, is a usage error: exit 2.
inline std::uint32_t positive_flag_from_args(int argc,
                                             const char* const* argv,
                                             const char* name,
                                             std::uint32_t value) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, name) == 0 && i + 1 < argc) {
      value = parse_positive_u32(name, argv[++i]);
    } else if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
      value = parse_positive_u32(name, arg + len + 1);
    } else {
      std::fprintf(stderr, "qip: %s '%s'\nusage: %s [%s N]\n",
                   std::strcmp(arg, name) == 0 ? "missing value for"
                                               : "unknown argument",
                   arg, argv[0], name);
      std::exit(2);
    }
  }
  return value;
}

/// Parses --jobs N / --jobs=N, falling back to QIP_JOBS, then `fallback`.
inline std::uint32_t jobs_from_args(int argc, const char* const* argv,
                                    std::uint32_t fallback = 1) {
  return positive_flag_from_args(argc, argv, "--jobs",
                                 jobs_from_env(fallback));
}

inline int run(FigureData (*figure)(const ExperimentOptions&), int argc = 0,
               const char* const* argv = nullptr,
               std::uint32_t default_rounds = 3) {
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
