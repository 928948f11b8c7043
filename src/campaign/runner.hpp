// The fault-tolerant campaign runner (ROADMAP item 5).
//
// A campaign is a declarative (scenario × parameter × seed) grid
// (campaign_spec.hpp) fanned across worker *processes*: each cell forks, so
// a crashing or wedged simulation takes down one attempt, never the
// campaign.  The parent supervises with
//
//   * a durable journal (campaign/journal.hpp) — every state change is
//     fsync'd before the runner acts on it, so `--resume` after SIGKILL
//     re-runs exactly the incomplete cells,
//   * a per-cell wall-clock deadline — a hung worker is SIGKILLed and the
//     attempt counted as failed,
//   * bounded retry with exponential backoff — `retries` extra attempts per
//     cell per run, backoff_ms * 2^attempt between them,
//   * graceful degradation — a cell that exhausts its budget is marked in
//     the journal and the consolidated report; the campaign still completes
//     and reports every other cell.
//
// Determinism contract: the consolidated report is a pure function of the
// per-cell results and cumulative fail counts, and cells are simulated on
// seeds derived only from (base_seed, cell index) — never from scheduling.
// Hence a campaign that is SIGKILLed mid-grid and resumed produces a report
// byte-identical to an uninterrupted run (tools/check_resume_invariance.cmake
// pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/inject.hpp"
#include "campaign/journal.hpp"
#include "campaign/scenario.hpp"

namespace qip {

struct CampaignOptions {
  std::uint32_t jobs = 2;         ///< concurrent worker processes
  std::uint32_t retries = 2;      ///< extra attempts per cell, per run
  std::uint32_t deadline_ms = 60000;  ///< per-attempt wall-clock budget
  std::uint32_t backoff_ms = 100;     ///< base retry backoff (doubles)
  bool resume = false;
  std::string out_dir = "campaign-out";
};

/// Overlays QIP_CAMPAIGN_JOBS / QIP_CAMPAIGN_RETRIES /
/// QIP_CAMPAIGN_DEADLINE_MS / QIP_CAMPAIGN_BACKOFF_MS on `defaults` with the
/// strict env convention (util/env.hpp): unset keeps the default,
/// malformed exits 2.  JOBS must be positive; the others may be zero.
CampaignOptions campaign_options_from_env(CampaignOptions defaults = {});

/// Worker exit codes (distinct from simulation exit paths so the journal
/// records *why* an attempt died).
inline constexpr int kCellExitInjectedCrash = 70;
inline constexpr int kCellExitException = 71;
inline constexpr int kCellExitArtifactError = 72;

/// Final state of one cell after a run (journal state + parsed result).
struct CellOutcome {
  CellSpec spec;
  CellStatus status = CellStatus::kPending;
  std::uint32_t fails = 0;  ///< cumulative over resumes
  std::string last_reason;
  CellResult result;  ///< valid iff status == kDone
};

struct CampaignOutcome {
  std::vector<CellOutcome> cells;
  std::size_t done = 0;
  std::size_t exhausted = 0;
  bool complete() const { return exhausted == 0; }
};

class CampaignRunner {
 public:
  CampaignRunner(CampaignSpec spec, CampaignOptions options,
                 InjectPlan inject = {});

  /// Executes (or resumes) the campaign and fills *out.  Returns false with
  /// a diagnostic in *err on setup errors (invalid spec, journal refusal,
  /// unreadable artifacts); cell failures are NOT setup errors — they
  /// surface as exhausted cells in the outcome.
  bool run(CampaignOutcome* out, std::string* err);

  const std::string& journal_path() const { return journal_path_; }

 private:
  struct Pending;  // per-cell scheduling state (runner.cpp)

  /// Body of a forked worker; never returns (always _exit()s).
  [[noreturn]] void run_cell_child(std::size_t idx, std::uint32_t attempt);

  std::string result_path(std::size_t idx) const;
  std::string log_path(std::size_t idx, std::uint32_t attempt) const;

  CampaignSpec spec_;
  CampaignOptions options_;
  InjectPlan inject_;
  std::vector<CellSpec> cells_;
  std::string journal_path_;
  std::string cells_dir_;
  CampaignJournal journal_;
  std::size_t done_records_ = 0;  ///< for die-after injection
};

}  // namespace qip
