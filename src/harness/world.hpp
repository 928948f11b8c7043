// Simulation world: one bundle owning the substrate a protocol runs on.
//
// The paper's setup (§VI-A): 1 km × 1 km area, 50–200 nodes arriving
// sequentially, random-waypoint movement at 20 m/s after configuration,
// graceful or abrupt departures.  A World wires simulator, topology,
// transport metering and mobility together with one deterministic RNG.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/adversary.hpp"
#include "fault/fault_injector.hpp"
#include "geom/rect.hpp"
#include "harness/auditor.hpp"
#include "mobility/waypoint.hpp"
#include "net/metrics.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "sim/sim_context.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace qip {

struct WorldParams {
  double area_side = 1000.0;        ///< metres (1 km × 1 km)
  double transmission_range = 150.0;///< metres
  double speed = 20.0;              ///< m/s random-waypoint speed
  SimTime mobility_tick = 1.0;      ///< movement timestep, seconds
  SimTime per_hop_delay = 0.002;    ///< transport per-hop latency, seconds
};

class World {
 public:
  /// A world on the process-default context (the compatibility path: tools,
  /// examples and most tests).
  World(const WorldParams& params, std::uint64_t seed);
  /// A world bound to `ctx`: every trace event and metric this world
  /// produces lands in the context instead of the process globals.
  /// The ParallelRunner builds each cell's world this way.  `ctx` must
  /// outlive the world.
  World(const WorldParams& params, std::uint64_t seed, SimContext& ctx);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const WorldParams& params() const { return params_; }
  SimContext& ctx() const { return *ctx_; }
  Rng& rng() { return rng_; }
  Simulator& sim() { return sim_; }
  Topology& topology() { return topology_; }
  MessageStats& stats() { return stats_; }
  Transport& transport() { return transport_; }
  MobilityManager& mobility() { return mobility_; }

  /// Installs a fault plan on the transport (replacing any previous one)
  /// and returns the injector for stats inspection.  A null plan leaves the
  /// run byte-identical to one that never called this.
  FaultInjector& enable_faults(const FaultPlan& plan);
  FaultInjector* faults() { return faults_.get(); }
  const FaultInjector* faults() const { return faults_.get(); }

  /// Installs an adversary plan (replacing any previous one), publishing the
  /// controller through this world's SimContext where protocol engines find
  /// it.  A null plan leaves the run byte-identical to one that never called
  /// this; attacks engage only while their sim-time windows are open.
  AdversaryController& enable_adversary(const AdversaryPlan& plan);
  AdversaryController* adversary() { return adversary_.get(); }
  const AdversaryController* adversary() const { return adversary_.get(); }

  /// Attaches a UniquenessAuditor to `proto`, owned by the world — for
  /// scenarios that drive a protocol without a Driver (which installs and
  /// owns its own auditor).  The auditor is a read-only simulator probe: it
  /// never schedules events or perturbs determinism, it only throws on a
  /// violated invariant.
  UniquenessAuditor& audit(const AutoconfProtocol& proto,
                           SimTime period = 0.5, SimTime grace = 30.0);

  /// Places a new node uniformly at random; returns its position.
  Point place_random(NodeId id);

  /// Advances simulated time by `dt`, executing due events.
  void run_for(SimTime dt) { sim_.run(sim_.now() + dt); }

  /// Drains every pending event (bounded by `max_events` as a livelock
  /// guard).
  void settle(std::uint64_t max_events = 2'000'000);

 private:
  WorldParams params_;
  SimContext* ctx_;  ///< before sim_: the simulator is built against it
  Rng rng_;
  Simulator sim_;
  Topology topology_;
  MessageStats stats_;
  Transport transport_;
  MobilityManager mobility_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<AdversaryController> adversary_;
  std::vector<std::unique_ptr<UniquenessAuditor>> auditors_;
};

}  // namespace qip
