// Simulation snapshots: durable checkpoints of a cell at a phase boundary.
//
// This is the first SimContext/World serialization pass (ROADMAP item 5).
// A snapshot file carries, behind a versioned header:
//   * the full cell spec (scenario, parameters, seed),
//   * the phase boundary it was taken at,
//   * the simulation clock, executed-event count and live-event count,
//   * the raw xoshiro256** state of the world's RNG stream, and
//   * the state_digest() over every piece of observable simulation state.
//
// Restore strategy: the event queue holds arbitrary closures, which no
// byte format can capture, so restore re-materializes the state by
// *deterministic replay* — rebuild the cell from its spec and re-run phases
// 0..k-1 — then verifies, field by field, that the replayed clock, event
// counts, RNG stream and state digest equal the saved ones (the RNG stream
// is additionally restored via Rng::set_state, making the restore
// independent of how the replay reached it).  Any mismatch is a hard
// error: a snapshot never silently resumes into a different simulation.
// Continuing a restored runner is therefore byte-identical to never having
// stopped — the property tests/campaign_test.cpp pins for QIP and a
// baseline engine.
//
// The versioned header is the forward path: a future version can add direct
// state decoding (no replay), and readers reject every version but their
// own.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "campaign/scenario.hpp"

namespace qip {

inline constexpr char kSnapshotMagic[] = "QIPSNAP";
inline constexpr std::uint32_t kSnapshotVersion = 2;

struct Snapshot {
  CellSpec spec;
  std::size_t phase = 0;  ///< phases completed when the snapshot was taken
  double now = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t live = 0;
  std::array<std::uint64_t, 4> world_rng{};
  std::uint64_t digest = 0;
};

/// Captures `runner` at its current phase boundary.  Writes tmp + rename so
/// a crash mid-write never leaves a half snapshot.  Returns false (with a
/// message in *err) on I/O failure.
bool save_snapshot(CellRunner& runner, const std::string& path,
                   std::string* err = nullptr);

/// Parses and validates a snapshot file.  Rejects bad magic, unsupported
/// versions and malformed fields with a diagnostic in *err.
std::optional<Snapshot> load_snapshot(const std::string& path,
                                      std::string* err = nullptr);

/// Re-materializes the simulation the snapshot describes (see file comment)
/// on `ctx` and verifies every saved field against the replayed state.
/// Returns null with a diagnostic in *err on any divergence — the caller
/// decides whether to fall back to a fresh run.
std::unique_ptr<CellRunner> restore_snapshot(const Snapshot& snap,
                                             SimContext& ctx,
                                             std::string* err = nullptr);

}  // namespace qip
