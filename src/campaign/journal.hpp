// The campaign journal: an append-only, crash-durable record of cell
// progress, and the thing --resume replays.
//
// Format (text, one record per line; every line fsync'd before the runner
// acts on it, so a SIGKILL at any instant loses at most work, never truth):
//
//   campaign v1 digest=<spec digest> cells=<n>
//   start <idx> <attempt>
//   done <idx> <attempt> <result digest>
//   fail <idx> <attempt> <reason>
//   exhausted <idx> <attempts>
//
// Replay rules (resume semantics, docs/CAMPAIGN.md):
//   * `done` is terminal: the cell is complete, its result artifact is on
//     disk (written tmp+rename *before* the done record), never re-run.
//   * `fail` counts a real cell failure (crash, nonzero exit, deadline);
//     attempts in the consolidated report = fails + 1 for a finished cell.
//   * `start` without a terminal record means the campaign process died
//     mid-cell; the cell is simply incomplete.  It does NOT count as an
//     attempt — a campaign killed at 90% must not inflate the attempt
//     numbers of the cells it happened to be running, or a resumed report
//     could never be byte-identical to an uninterrupted one.
//   * `exhausted` cells are re-armed on resume with a fresh attempt budget
//     (the fail count carries over into the report); resuming is an
//     explicit operator request to try to finish the grid.
//   * a final line without '\n' is a torn write from the fatal signal and
//     is ignored.
//
// The header digest pins the grid: --resume against a journal whose spec
// digest differs is refused (exit 2) rather than silently mixing grids.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"

namespace qip {

enum class CellStatus { kPending, kDone, kExhausted };

struct CellProgress {
  CellStatus status = CellStatus::kPending;
  std::uint32_t fails = 0;  ///< `fail` records seen (cumulative over resumes)
  std::uint64_t result_digest = 0;   ///< from the `done` record
  std::string last_reason;           ///< last `fail` reason, for the report
};

class CampaignJournal {
 public:
  CampaignJournal() = default;
  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// Creates a fresh journal (refuses to overwrite an existing one: a
  /// non-resume run must not silently destroy history).
  bool open_fresh(const std::string& path, const CampaignSpec& spec,
                  std::string* err);

  /// Replays an existing journal, validates the header against `spec`, and
  /// reopens it for appending.  Fills `progress` with one entry per cell
  /// (exhausted cells come back re-armed as pending; see file comment).
  bool open_resume(const std::string& path, const CampaignSpec& spec,
                   std::vector<CellProgress>* progress, std::string* err);

  void record_start(std::size_t idx, std::uint32_t attempt);
  void record_done(std::size_t idx, std::uint32_t attempt,
                   std::uint64_t result_digest);
  void record_fail(std::size_t idx, std::uint32_t attempt,
                   const std::string& reason);
  void record_exhausted(std::size_t idx, std::uint32_t attempts);

  void close();

 private:
  void append(const std::string& line);

  std::FILE* file_ = nullptr;
};

}  // namespace qip
