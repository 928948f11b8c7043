// Declarative parameter-grid campaigns: what to run, not how to run it.
//
// A campaign is a (scenario × parameter × seed) grid — the shape of every
// figure in the paper's evaluation and of ROADMAP item 5's "thousands of
// runs per invocation".  A CampaignSpec names the axes; expand() flattens
// them into an ordered list of fully self-contained CellSpecs, each one an
// independent simulation identified by (protocol, nodes, range, seed).  The
// order is part of the contract: cell index i always means the same
// simulation, across processes, resumes and releases — the campaign journal
// (campaign/journal.hpp) and the resume-invariance gate both depend on it.
//
// Per-cell seeds come from derive_cell_seed(base, point, round) — the exact
// formula the figure suite has always used (harness/parallel.hpp) — so a
// campaign cell replicates a figure cell bit-for-bit given the same
// parameters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qip {

/// One cell of the grid: a fully self-contained simulation description.
/// canonical() renders it as a stable single-line string (doubles printed
/// round-trippably) used in journals, snapshots and digests.
struct CellSpec {
  std::string protocol = "qip";
  std::uint32_t nodes = 25;
  double range = 150.0;        ///< transmission range, metres
  double speed = 20.0;         ///< random-waypoint speed, m/s
  double duration = 2.0;       ///< post-bringup roam time, seconds
  std::uint32_t churn = 0;     ///< departure+replacement events
  double abrupt = 0.2;         ///< fraction of departures that are abrupt
  std::uint64_t pool = 1024;   ///< addresses in the protocol's pool
  std::uint64_t seed = 0;

  std::string canonical() const;
  /// Inverse of canonical(); returns false (and leaves *out unspecified) on
  /// any malformed or missing field, or a cell validate() rejects.
  static bool parse(const std::string& text, CellSpec* out);

  /// Rejects unknown protocol names and out-of-range parameters; returns
  /// false and stores a message in *err.  The one check behind qip-sim's
  /// flags, the campaign grid and parse().
  bool validate(std::string* err) const;

  bool operator==(const CellSpec& other) const = default;
};

/// The grid: protocols × nodes × ranges × seeds, with shared scenario knobs.
struct CampaignSpec {
  std::vector<std::string> protocols = {"qip"};
  std::vector<std::uint32_t> nodes = {25};
  std::vector<double> ranges = {150.0};
  double speed = 20.0;
  double duration = 2.0;
  std::uint32_t churn = 0;
  double abrupt = 0.2;
  std::uint32_t seeds = 1;  ///< replication rounds per grid point
  std::uint64_t base_seed = 0x1cdc52007ULL;  // ICDCS'07

  /// Flattens the grid in (protocol, nodes, range, round) order — the cell
  /// index every other campaign component keys on.
  std::vector<CellSpec> expand() const;

  /// Total cell count without materializing the expansion.
  std::size_t cell_count() const {
    return protocols.size() * nodes.size() * ranges.size() * seeds;
  }

  std::string canonical() const;
  /// FNV-1a over canonical(): the journal header pins this so --resume can
  /// refuse to graft a different grid onto an old journal.
  std::uint64_t digest() const;

  /// Rejects empty axes, unknown protocol names and nonsense parameters;
  /// returns false and stores a message in *err.
  bool validate(std::string* err) const;
};

/// FNV-1a 64-bit — the digest used for specs, results and journal integrity.
std::uint64_t fnv1a64(const void* data, std::size_t len,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);
std::uint64_t fnv1a64(const std::string& s);

}  // namespace qip
