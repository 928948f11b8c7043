// One campaign cell as an executable, checkpointable scenario.  It is also
// the qip-sim scenario: qip-sim's single runs and --rounds replicas run on
// CellRunner, so the CLI and the campaign share one choreography.
//
// A CellRunner owns everything one cell needs on the SimContext it is
// given — World, protocol engine, Driver — and exposes the scenario as an
// ordered sequence of *phases* (bringup, churn steps, roam slices).  Phases
// are the campaign's checkpoint grain: between phases no host-side control
// flow is suspended mid-loop, so a snapshot (campaign/snapshot.hpp) can name
// a phase boundary and a restore can re-materialize the exact state there
// deterministically.
//
// state_digest() folds every piece of observable simulation state — sim
// clock, event counts, the world's RNG stream, message accounting, per-node
// configuration records, node positions — into one 64-bit value.  Two runs
// of the same spec agree on the digest at every phase boundary iff they are
// byte-identical; the snapshot layer and the campaign journal both pin it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "campaign/campaign_spec.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"
#include "net/protocol.hpp"
#include "sim/sim_context.hpp"

namespace qip {

/// The measurements a finished cell reports (the qip-sim summary set).
/// render()/parse() round-trip through the per-cell result artifact the
/// campaign runner writes; doubles render round-trippably so a re-run cell
/// reproduces the artifact byte-for-byte.
struct CellResult {
  double configured = 0.0;  ///< fraction of joins that ended configured
  double latency_hops = 0.0;
  std::uint64_t protocol_hops = 0;
  std::uint32_t joins = 0;
  std::uint64_t state_digest = 0;

  std::string render(const CellSpec& spec) const;
  static bool parse(const std::string& text, CellSpec* spec, CellResult* out);
};

class CellRunner {
 public:
  /// Builds the world (seeded with the cell seed) and engine for `spec` on
  /// `ctx`, which must outlive the runner.  Throws std::invalid_argument on
  /// an unknown protocol name.
  CellRunner(const CellSpec& spec, SimContext& ctx);
  ~CellRunner();

  const CellSpec& spec() const { return spec_; }
  World& world() { return *world_; }
  const AutoconfProtocol& protocol() const { return *proto_; }
  const Driver& driver() const { return *driver_; }

  /// Phase layout: [0] bringup (join all + settle), [1..churn] one
  /// departure+replacement each, then roam slices of <= 1 s of simulated
  /// time until `duration` is spent.
  std::size_t phase_count() const { return phase_count_; }
  std::size_t phases_run() const { return phases_run_; }

  /// Runs the next phase (phases execute strictly in order).
  void run_phase();
  /// Runs every remaining phase.
  void run_to_end() {
    while (phases_run_ < phase_count_) run_phase();
  }

  /// Digest of the full observable simulation state; see file comment.
  std::uint64_t state_digest() const;

  /// Only meaningful once every phase has run.
  CellResult result() const;

 private:
  CellSpec spec_;
  std::unique_ptr<World> world_;
  std::unique_ptr<AutoconfProtocol> proto_;
  std::unique_ptr<Driver> driver_;
  std::size_t phase_count_ = 0;
  std::size_t phases_run_ = 0;
  std::size_t roam_slices_ = 0;
};

}  // namespace qip
