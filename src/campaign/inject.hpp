// Deterministic fault injection for campaign robustness tests.
//
// `QIP_CAMPAIGN_INJECT` holds a comma-separated plan; each term is one of
//
//   crash:<cell>@<attempt>   worker for cell <cell> calls _exit(70) on
//                            attempt <attempt> (attempts count from 0)
//   hang:<cell>@<attempt>    worker sleeps forever instead of running the
//                            cell, so the deadline watchdog must kill it
//   die-after:<n>            the campaign *parent* raises SIGKILL after
//                            journaling its <n>-th `done` record — a
//                            deterministic mid-grid power cut, which is
//                            exactly what the resume-invariance ctest gate
//                            needs (no racy external kill)
//
// The plan is parsed strictly: any malformed term is a usage error (exit 2),
// matching the repo-wide env convention in util/env.hpp.  Injection is a
// test hook, not a user feature; it exists so the retry, watchdog and resume
// paths are pinned by deterministic gates rather than trusted on faith.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qip {

enum class InjectKind { kCrash, kHang };

struct InjectPoint {
  InjectKind kind = InjectKind::kCrash;
  std::size_t cell = 0;
  std::uint32_t attempt = 0;
};

struct InjectPlan {
  std::vector<InjectPoint> points;
  /// SIGKILL the campaign parent after this many `done` records (SIZE_MAX =
  /// never).
  std::size_t die_after = SIZE_MAX;

  /// True if `cell`'s attempt number `attempt` should suffer `kind`.
  bool matches(InjectKind kind, std::size_t cell, std::uint32_t attempt) const;

  /// Strict parser; returns false with a diagnostic in *err on any
  /// malformed term.  An empty string parses to the empty plan.
  static bool parse(const std::string& text, InjectPlan* out,
                    std::string* err);
};

/// Reads QIP_CAMPAIGN_INJECT; malformed plans die with exit 2 (env.hpp
/// convention).  Unset or empty means no injection.
InjectPlan inject_plan_from_env();

}  // namespace qip
