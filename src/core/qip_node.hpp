// Per-node protocol state (§IV-A data structures).
//
// The engine owns one QipNodeState per live node.  All fields are strictly
// node-local knowledge: the engine never lets one node's handler read
// another node's state except through a simulated message.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "addr/address_block.hpp"
#include "addr/allocation_table.hpp"
#include "addr/ip_address.hpp"
#include "cluster/cluster_view.hpp"
#include "core/qip_types.hpp"
#include "net/node_id.hpp"
#include "sim/event_queue.hpp"

namespace qip {

/// A configuration request waiting for the allocator's space lock.
struct PendingRequest {
  NodeId requestor = kNoNode;
  bool for_cluster_head = false;
  std::uint64_t hops_base = 0;
};

/// A voter-side permission: which transaction holds this copy of `owner`'s
/// space (quorum voting as mutual exclusion, §II-C).
struct SpaceLock {
  std::uint64_t txn_id = 0;
  EventHandle expiry;  ///< auto-release if the allocator dies mid-round
};

struct QipNodeState {
  // Hot plane: the scalars every per-tick scan reads (hello beacons,
  // location updates, merge boundaries) lead the struct so a scan over the
  // NodeTable slab touches the first cache line only; the cluster-head
  // containers below are the cold plane, reached just for heads
  // (docs/SCALE.md).
  Role role = Role::kUnconfigured;
  std::optional<IpAddress> ip;

  /// Cluster head that configured this node (§IV-C: the "configurer").
  NodeId configurer = kNoNode;
  /// Current administrator after UPDATE_LOC handoffs (common nodes only).
  NodeId administrator = kNoNode;

  /// Identity of the network this node belongs to (§V-C partition ids).
  NetworkId network_id{};

  // ---- cluster-head state (meaningful iff role == kClusterHead) ----

  /// Free addresses this head can assign (IPSpace, §IV-A).
  AddressBlock ip_space;
  /// Every address this head is responsible for, free or allocated.
  AddressBlock owned_universe;
  /// Allocation records for owned_universe.
  AllocationTable table;
  /// Bumped on every committed update; replicas carry the value they saw.
  std::uint64_t version = 0;

  /// Adjacent cluster heads holding our replica / whose replicas we hold.
  std::set<NodeId> qdset;
  /// Copies of QDSet members' IP state (QuorumSpace = union of free pools).
  std::map<NodeId, ReplicaCopy> replicas;

  /// Permissions currently granted, keyed by space owner (an owner of
  /// kNoNode never appears; a head's own space is keyed by its own id).
  std::map<NodeId, SpaceLock> space_locks;

  /// Configuration requests serialized behind the local space lock, oldest
  /// first.  A vector, not a deque: the queue holds a few requests at most,
  /// and an empty vector allocates nothing (libstdc++'s deque allocates its
  /// map and a first node even when empty).
  std::vector<PendingRequest> pending;
  /// Transaction this head is currently coordinating (0 = none).
  std::uint64_t active_txn = 0;

  /// QDSet members that stopped responding: T_d shrink timers (§V-B).
  std::map<NodeId, EventHandle> suspect_timers;
  /// Members already probed with REP_REQ, awaiting T_r.
  std::map<NodeId, EventHandle> probe_timers;

  /// Hardened mode (docs/ADVERSARY.md): suspicion points this node has
  /// tallied against peers (unanswered votes, vetoes contradicting the
  /// owner's table).  Crossing HardenParams::suspicion_threshold
  /// quarantines the peer.  Empty when hardening is off.
  std::map<NodeId, std::uint32_t> suspicion;
  /// Hardened mode: outstanding address challenges — claimant whose hello
  /// contradicted our table, with the deadline timer for its kChallengeAck.
  std::map<NodeId, EventHandle> challenge_timers;

  /// Common nodes this head administers after UPDATE_LOC (node -> its
  /// configurer as reported, so address returns can be routed, §IV-C.1).
  std::map<NodeId, NodeId> administered;

  // ---- bootstrap ----
  std::uint32_t bootstrap_tries = 0;
  EventHandle bootstrap_timer;
  /// Failed configuration attempts by this (still unconfigured) node.
  std::uint32_t entry_retries = 0;
  /// When this node last began a configuration attempt (rescue scans leave
  /// recent attempts alone).
  SimTime last_entry_attempt = -1.0e9;

  /// Consecutive hello scans during which this head saw no other head
  /// (isolated-cluster-head detection, §V-C).
  std::uint32_t isolation_ticks = 0;

  /// Total free addresses visible: own IPSpace plus the replica pools of
  /// current QDSet members (the QuorumSpace of §IV-A).  Replicas retained
  /// for pending reclamation of departed heads are not counted — they are
  /// recovery state, not allocatable space.
  std::uint64_t visible_free() const {
    std::uint64_t n = ip_space.size();
    for (const auto& [owner, rep] : replicas) {
      if (qdset.count(owner)) n += rep.free_pool.size();
    }
    return n;
  }

  void cancel_timers() {
    bootstrap_timer.cancel();
    for (auto& [id, h] : suspect_timers) h.cancel();
    for (auto& [id, h] : probe_timers) h.cancel();
    for (auto& [id, h] : challenge_timers) h.cancel();
    for (auto& [owner, lock] : space_locks) lock.expiry.cancel();
  }
};

}  // namespace qip
