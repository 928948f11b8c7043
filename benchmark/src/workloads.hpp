// The benchmark's four workloads (README.md explains why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qipbench {

struct RepOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Which of the run's independent instances this rep is; with `seed` it
  /// selects every random stream of the rep.
  std::uint32_t instance = 0;
  /// Size multiplier: 1 is the benchmark, 0.02 the smoke check.
  double scale = 1.0;
  /// Traced rep: per-call timing, profile histograms and a span file.
  bool traced = false;
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct RepResult {
  /// Every metric the rep measured, in emission order.  Layer timings and
  /// profile totals read 0 in an untraced rep.
  std::vector<Metric> metrics;
  /// FNV-1a digest of the simulated statistics (see README.md).
  std::uint64_t sim_digest = 0;
  /// CLOCK_MONOTONIC seconds at the first timed step.
  double timed_start_mono_s = 0.0;
  /// Text of the first audit violation, empty when none.
  std::string first_violation;
  /// Why the first discarded world was discarded, empty when none.
  std::string first_discard;
};

/// Runs one rep.  Throws std::invalid_argument for an unknown workload;
/// anything the simulator throws outside an audit check propagates.
RepResult run_rep(const RepOptions& opt);

}  // namespace qipbench
