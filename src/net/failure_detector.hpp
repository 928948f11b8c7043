// Failure detection for replica-group liveness.
//
// The paper's quorum maintenance (§V-B) assumes a head "detects" an
// uncontactable member through missed hellos and shrinks the quorum set.
// The engine's built-in check is an oracle — it consults the topology
// directly — which is exactly right under the paper's crash-only model but
// blind to Byzantine silence: an attacker that keeps beaconing while
// dropping every service message looks perfectly alive to it.
//
// SwimDetector closes that gap with SWIM-style probing (ping, then ping-req
// through k proxies, then a confirmed miss).  It detects dropped *service*,
// not dropped *beacons*: a defector that answers hellos but ignores pings
// accumulates misses and is suspected within a few probe rounds.  The
// protocol feeds each observer's watch-list into observe() once per
// maintenance tick and consults suspects() before trusting a peer.
//
// Deterministic: no randomness, round-robin target choice over the sorted
// watch-list, proxies picked in sorted order.  The detector must outlive
// every simulator event it schedules (in practice: the World).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "net/node_id.hpp"
#include "sim/event_queue.hpp"

namespace qip {

class Transport;

/// SWIM-style probing detector (see SNIPPETS.md, snippet 3): each observe()
/// tick the observer pings one watch-list member round-robin; on a missed
/// ack it asks up to `proxies` other members to ping indirectly; a probe
/// with no direct or indirect ack is a confirmed miss, and `confirm_misses`
/// consecutive misses make the target suspected.  Any successful ack clears
/// the tally.  Probe traffic is charged as Traffic::kMaintenance.
class SwimDetector {
 public:
  struct Params {
    SimTime ack_timeout = 0.5;      ///< direct ping ack deadline (s)
    SimTime indirect_timeout = 1.0; ///< ping-req round deadline (s)
    std::size_t proxies = 2;        ///< k members asked to ping indirectly
    std::uint32_t confirm_misses = 2;
  };

  using RespondsFn = std::function<bool(NodeId target)>;

  // Two overloads rather than a defaulted Params argument: GCC rejects a
  // nested struct's member initializers inside its enclosing class's
  // default arguments (PR 88165).
  explicit SwimDetector(Transport& transport);
  SwimDetector(Transport& transport, Params params);

  /// Installs the service predicate: does `target` currently answer probe
  /// pings?  The engine wires this to serves_probes() — true for honest
  /// live nodes, false for crashed radios and silent defectors.
  void set_responder(RespondsFn fn) { responds_ = std::move(fn); }

  const Params& params() const { return params_; }

  /// One maintenance tick for `observer`: `peers` is its current watch-list
  /// (replica-group members it expects to be alive).  Starts at most one
  /// probe per observer.
  void observe(NodeId observer, const std::vector<NodeId>& peers);

  /// Whether `observer` currently suspects `peer` of having died or
  /// silently stopped serving.
  bool suspects(NodeId observer, NodeId peer) const;

  /// Drops only what `observer` holds against `peer`.  The protocol calls
  /// this while its own (crash-level) evidence says the peer is unreachable:
  /// probe silence accumulated across an outage is uninterpretable, and
  /// keeping it would condemn an honest peer the moment it drifts back into
  /// range on stale misses.
  void clear(NodeId observer, NodeId peer);

  /// Drops all state about `peer` — it departed, or was evicted and must be
  /// re-evaluated from scratch if it ever returns.
  void forget(NodeId peer);

  /// Confirmed misses currently on record for (observer, peer) — exposed
  /// for tests asserting detection latency.
  std::uint32_t misses(NodeId observer, NodeId peer) const;

 private:
  struct Probe {
    NodeId observer = kNoNode;
    NodeId target = kNoNode;
    std::vector<NodeId> proxies;  ///< candidates for the indirect round
    bool acked = false;
    bool indirect_started = false;
    EventHandle direct_timer;
    EventHandle indirect_timer;
  };

  void start_indirect(std::uint64_t probe_id);
  void finish(std::uint64_t probe_id, bool acked);
  void ack(std::uint64_t probe_id);

  Transport& transport_;
  Params params_;
  RespondsFn responds_;
  std::map<std::uint64_t, Probe> probes_;          ///< in-flight, by id
  std::map<NodeId, std::uint64_t> inflight_;       ///< observer -> probe id
  std::map<NodeId, NodeId> cursor_;                ///< observer -> last target
  std::map<std::pair<NodeId, NodeId>, std::uint32_t> misses_;
  std::uint64_t next_probe_ = 1;
};

}  // namespace qip
