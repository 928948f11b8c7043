// Scenario driver: the lifecycle choreography shared by tests, examples and
// every figure bench.
//
// Implements the harness side of AutoconfProtocol's lifecycle contract —
// sequential arrivals, post-configuration mobility, graceful departures with
// a settle window, and abrupt departures (silent removal) — plus the batched
// arrival and departure waves of the city-scale scenario (bench/fig_metro).
// This is the only code that calls the contract's lifecycle hooks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "harness/auditor.hpp"
#include "harness/world.hpp"
#include "net/protocol.hpp"

namespace qip {

struct DriverOptions {
  /// Simulated seconds between sequential arrivals (§VI-A).
  SimTime arrival_interval = 0.5;
  /// Time the network runs after a graceful-departure announcement before
  /// the node physically disappears.
  SimTime departure_settle = 0.2;
  /// Nodes start moving once configured.
  bool mobility = true;
  /// Place arrivals within radio range of the existing network (§VI-A grows
  /// one network; without this bias, early sparse arrivals bootstrap many
  /// independent networks that must merge later).  Partition experiments
  /// turn it off.
  bool connected_arrivals = true;
  /// Always-on uniqueness auditing (see harness/auditor.hpp): the Driver
  /// attaches a UniquenessAuditor to the protocol so every scenario doubles
  /// as a fault-tolerance check.  On only for the truly paranoid to turn
  /// off; it reads state without perturbing determinism.  The Driver owns
  /// its auditor, so replacing a Driver (and the protocol it drives)
  /// retires the old probe with it.
  bool audit = true;
  SimTime audit_period = 0.5;
  /// How long a same-domain duplicate may persist before the auditor
  /// aborts (§V-C resolves conflicts at contact, so the window scales with
  /// mobility contact times; see harness/auditor.hpp).
  SimTime audit_grace = 30.0;
};

class Driver {
 public:
  Driver(World& world, AutoconfProtocol& proto, DriverOptions options = {});

  /// Adds one node at a random position and starts its configuration; runs
  /// the world for the arrival interval.  Returns the node id.
  NodeId join_one();

  /// Deterministic variant: joins a node at an explicit position (tests).
  NodeId join_at(const Point& position);

  /// join_at() without running the world, for tests that step the
  /// simulator themselves to act between two events.
  NodeId enter_at(const Point& position) { return enter(&position); }

  /// Sequentially joins `n` nodes.  Returns their ids.
  std::vector<NodeId> join(std::uint32_t n);

  /// Arrival wave: places `count` nodes the way join_one() does and starts
  /// every configuration at once, without running the world.  Wave members
  /// never join mobility: none is configured yet when the wave returns.
  void join_wave(std::uint32_t count);

  /// Departure wave: farewells from every `graceful` node, one
  /// departure_settle window (run even when `graceful` is empty), then the
  /// graceful nodes leave and the `abrupt` ones vanish without a message.
  void depart(std::span<const NodeId> graceful,
              std::span<const NodeId> abrupt);

  /// Graceful departure of one node: depart({id}, {}).
  void depart_graceful(NodeId id);

  /// Abrupt departure: the node vanishes without any message, and no
  /// settle window runs.
  void depart_abrupt(NodeId id);

  /// Ids of nodes currently in the network, sorted.
  const std::vector<NodeId>& members() const { return members_; }

  /// Fraction of joined nodes that ended configured.
  double configured_fraction() const;

  /// Mean configuration latency (hops) over successfully configured nodes.
  double mean_config_latency() const;

  /// Number of joins attempted so far.
  std::uint32_t joined_count() const { return next_id_; }

 private:
  /// Adds the next node to the topology (at `position`, or placed as
  /// join_one() places it), announces it and records it as a member.
  NodeId enter(const Point* position);
  /// Runs the arrival interval, then starts a configured newcomer moving.
  NodeId arrive(NodeId id);
  /// Drops `leavers` from members() in one pass; each must be a member.
  void drop_members(std::vector<NodeId> leavers);
  /// Takes a departing node out of mobility and the topology.
  void remove_node(NodeId id);

  World& world_;
  AutoconfProtocol& proto_;
  DriverOptions options_;
  NodeId next_id_ = 0;
  std::vector<NodeId> members_;
  std::unique_ptr<UniquenessAuditor> auditor_;
};

/// Snapshot-diff helper: meters the hops a phase of a scenario produced.
class PhaseMeter {
 public:
  explicit PhaseMeter(const MessageStats& stats) : stats_(&stats) { reset(); }

  void reset() { start_ = *stats_; }

  /// Hops added in `t` since the last reset.
  std::uint64_t hops(Traffic t) const {
    return stats_->of(t).hops - start_.of(t).hops;
  }
  std::uint64_t messages(Traffic t) const {
    return stats_->of(t).messages - start_.of(t).messages;
  }
  /// All protocol hops (hello excluded) since the last reset.
  std::uint64_t protocol_hops() const {
    return stats_->protocol_hops() - start_.protocol_hops();
  }

 private:
  const MessageStats* stats_;
  MessageStats start_;
};

}  // namespace qip
