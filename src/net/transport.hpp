// Metered message transport over the unit-disk topology.
//
// The paper assumes "reliable delivery of messages within transmission
// range" (§IV-B) and measures everything in hops.  The transport therefore
// models a message as: route computed on the current topology at send time,
// delivered after hops × per-hop delay, hop count charged to the sender's
// traffic category.  Unreachable destinations are reported synchronously
// (routing fails) and charged nothing; protocol-level timers handle the
// resulting silence, exactly as in the paper's quorum-adjustment logic.
//
// Flooding model: in a scoped flood every node up to radius-1 hops
// retransmits once, so the charged cost is the number of transmissions
// (1 + |nodes within radius-1 hops|), and a node at distance d receives the
// message after d hop-delays.  A network-wide flood is the same with radius
// = component eccentricity.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "net/metrics.hpp"
#include "net/node_id.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"

namespace qip {

// Fault model (docs/FAULTS.md): when a FaultInjector with an active plan is
// attached, transmissions by a crashed radio are suppressed (unicast reports
// the destination unreachable, broadcasts reach nobody) and every scheduled
// delivery is independently judged — dropped, delayed, or duplicated.
// Transmission costs are still charged at send time: a lost message was
// transmitted, so its hops stay in MessageStats, matching how a real trace
// would meter it.  With no injector (or a null plan) every path below is
// bit-identical to the paper's reliable model.
class Transport {
 public:
  /// Called at the receiver; `hops` is the distance the message travelled.
  /// A copyable small-buffer callable (sim/small_fn.hpp): every flood
  /// recipient gets a copy.  `this` plus two or three ids covers every
  /// receiver lambda in the engines and baselines.  Pointer alignment (not
  /// max_align_t) keeps sizeof(Receiver) at 40, so the delivery closure
  /// (`this` + to + hops + Receiver = 56 bytes) still fits EventFn's 64-byte
  /// inline buffer and an inline receiver costs zero allocations from send to
  /// delivery; over-aligned captures simply take the arena path.
  using Receiver = SmallFn<void(NodeId, std::uint32_t), 32, alignof(void*),
                           true>;

  Transport(Simulator& sim, Topology& topology, MessageStats& stats,
            SimTime per_hop_delay = 0.002);

  SimTime per_hop_delay() const { return per_hop_delay_; }
  MessageStats& stats() { return stats_; }
  const MessageStats& stats() const { return stats_; }
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  /// The simulation context observability flows through (the simulator's).
  SimContext& ctx() const { return sim_.ctx(); }
  Topology& topology() { return topology_; }
  const Topology& topology() const { return topology_; }

  /// Attaches (or detaches, with nullptr) a fault injector.  Not owned.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  FaultInjector* faults() { return faults_; }
  const FaultInjector* faults() const { return faults_; }
  /// True when an injector with a non-null plan is attached.
  bool faults_active() const { return faults_ && faults_->active(); }

  /// Sends along the current shortest path.  Returns the hop count, or
  /// nullopt when `to` is unreachable (nothing is charged or scheduled).
  /// Delivery is skipped if the destination has left the network meanwhile.
  std::optional<std::uint32_t> unicast(NodeId from, NodeId to, Traffic t,
                                       Receiver on_deliver);

  /// Single transmission heard by all current one-hop neighbors.  Returns
  /// the neighbors reached.  Cost: 1 transmission.
  std::vector<NodeId> local_broadcast(NodeId from, Traffic t,
                                      Receiver on_deliver) {
    return local_broadcast_view(from, t, std::move(on_deliver));
  }

  /// Scoped flood to every node within `radius` hops.  Returns the nodes
  /// reached (excluding the sender).  Cost: 1 + |nodes within radius-1 hops|
  /// transmissions.
  std::vector<NodeId> flood(NodeId from, std::uint32_t radius, Traffic t,
                            Receiver on_deliver) {
    return flood_view(from, radius, t, std::move(on_deliver));
  }

  /// Network-wide flood (the MANETconf configuration primitive): reaches the
  /// whole connected component of `from`; every member transmits once.
  std::vector<NodeId> flood_component(NodeId from, Traffic t,
                                      Receiver on_deliver) {
    return flood_component_view(from, t, std::move(on_deliver));
  }

  // Zero-copy variants for callers that only inspect the reached set (or
  // ignore it): the returned reference aliases a member scratch vector that
  // the NEXT broadcast/flood call overwrites.  Deliveries are scheduled, not
  // run inline, so the view is stable until the caller issues another
  // transmission — do not flood again while iterating it (docs/SCALE.md).
  const std::vector<NodeId>& local_broadcast_view(NodeId from, Traffic t,
                                                  Receiver on_deliver);
  const std::vector<NodeId>& flood_view(NodeId from, std::uint32_t radius,
                                        Traffic t, Receiver on_deliver);
  const std::vector<NodeId>& flood_component_view(NodeId from, Traffic t,
                                                  Receiver on_deliver);

  /// Pure query: is `id`'s radio outside every crash window right now?
  /// Unlike can_transmit() this tallies nothing, so protocols may poll it
  /// (e.g. to park an entry flow while the radio is down) without skewing
  /// the injector's blocked-send statistics.
  bool radio_up(NodeId id) const {
    return !faults_active() || faults_->node_up(id, sim_.now());
  }

 private:
  /// True when `id` can transmit right now (in the topology and, under an
  /// active fault plan, outside its crash windows).
  bool can_transmit(NodeId id) const;

  void deliver_later(NodeId from, NodeId to, std::uint32_t hops,
                     Receiver on_deliver);
  void schedule_delivery(NodeId to, std::uint32_t hops, SimTime extra,
                         Receiver on_deliver);
  /// The shared tail of flood_view and flood_component_view: charges the
  /// transmissions of a `radius`-hop flood reaching `in_range` ((node, hops)
  /// pairs sorted by id, sender excluded) and schedules each delivery.
  const std::vector<NodeId>& deliver_flood(
      NodeId from, std::uint32_t radius,
      const std::vector<std::pair<NodeId, std::uint32_t>>& in_range,
      Traffic t, Receiver on_deliver);

  Simulator& sim_;
  Topology& topology_;
  MessageStats& stats_;
  SimTime per_hop_delay_;
  FaultInjector* faults_ = nullptr;
  /// Reached-set scratch backing the *_view variants (reused per call).
  std::vector<NodeId> reached_;
  /// (node, hops) scratch of flood_component_view's reachability pass.
  std::vector<std::pair<NodeId, std::uint32_t>> component_hops_;
};

}  // namespace qip
