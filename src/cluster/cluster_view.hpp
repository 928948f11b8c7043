// Cluster bookkeeping shared by the QIP engine (§II-B).
//
// The network self-organizes into a two-layer hierarchy: every cluster has
// exactly one *cluster head*, heads are never neighbors (≥ 2 hops apart when
// formed), and every *common node* is configured by — and belongs to — some
// head.  ClusterView tracks role assignments and membership and answers the
// topology-coupled queries the protocol needs ("is there a head within two
// hops?", "which heads are in my 3-hop QDSet neighborhood?").
//
// Roles and member -> head links live in a dense plane indexed by node id
// (driver ids are sequential, as in NodeTable's rank index): role(),
// is_head() and head_of() are one array read, which is what the hello
// tick's ring searches pay for every node their BFS visits.  Ids past the
// plane's end are unconfigured.  heads() and head_count() walk the plane,
// and so does the per-component head count behind other_head_reachable(),
// once per topology epoch and head set.  Only head -> members stays a hash
// map; it serves members_of() and the orphaning in remove(), neither of
// which runs per visited node.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/node_id.hpp"
#include "net/topology.hpp"

namespace qip {

enum class Role : std::uint8_t {
  kUnconfigured = 0,
  kCommonNode = 1,
  kClusterHead = 2,
};

const char* to_string(Role role);

class ClusterView {
 public:
  explicit ClusterView(const Topology& topology) : topology_(&topology) {}

  Role role(NodeId id) const {
    return id < plane_.size() ? plane_[id].role : Role::kUnconfigured;
  }
  bool is_head(NodeId id) const { return role(id) == Role::kClusterHead; }

  /// Declares `id` a cluster head (it becomes its own cluster's head).
  void set_head(NodeId id);

  /// Declares `id` a common node in `head`'s cluster.
  void set_member(NodeId id, NodeId head);

  /// Declares `id` a common node with no head: its allocator stopped being
  /// a head while the configuration was in flight.  Like the members a
  /// removed head leaves behind, it waits for reassign_member.
  void set_orphan(NodeId id);

  /// Moves `id` (a common node) into another head's cluster.
  void reassign_member(NodeId id, NodeId new_head);

  /// Removes `id` entirely (departure).  Members of a removed head keep
  /// their role but are flagged orphaned until reassigned.
  void remove(NodeId id);

  /// The head whose cluster `id` belongs to (itself for a head), or nullopt
  /// if unconfigured/orphaned.
  std::optional<NodeId> head_of(NodeId id) const;

  /// Members configured into `head`'s cluster (sorted; excludes the head).
  std::vector<NodeId> members_of(NodeId head) const;

  /// All current cluster heads, sorted.
  std::vector<NodeId> heads() const;

  std::size_t head_count() const;

  /// Cluster heads within `k` hops of `id` on the current topology
  /// (excluding `id` itself), sorted by (hop distance, id).
  std::vector<NodeId> heads_within(NodeId id, std::uint32_t k) const;

  /// Nearest cluster head reachable from `id` (any distance), or nullopt.
  std::optional<NodeId> nearest_head(NodeId id) const;

  /// Whether a head other than `id` shares `id`'s component: what
  /// nearest_head(id).has_value() answers, without the search.  It reads a
  /// count of heads per component, taken in one pass over the heads and
  /// memoized on the topology epoch and the head set, so a hello tick pays
  /// for one pass however many heads ask.  A per-event caller would pay a
  /// recount after every head-set change: use nearest_head there.  `id`
  /// must be in the topology.
  bool other_head_reachable(NodeId id) const;

  /// Invariant from §II-B: no two cluster heads are one-hop neighbors.
  /// (May be transiently violated by mobility; the protocol tolerates it.)
  bool heads_nonadjacent() const;

 private:
  struct Slot {
    Role role = Role::kUnconfigured;
    NodeId head = kNoNode;  // a common node's head; kNoNode when orphaned
  };

  /// `id`'s slot, growing the plane to reach it.
  Slot& slot(NodeId id);

  const Topology* topology_;
  std::vector<Slot> plane_;  // id -> role and head
  // Bumped whenever a node gains or loses the head role.
  std::uint64_t head_set_version_ = 0;
  // other_head_reachable's memo: heads in the topology per component, as
  // counted at (counted_epoch_, counted_version_).
  mutable std::vector<std::uint32_t> heads_per_component_;
  mutable std::uint64_t counted_epoch_ =
      std::numeric_limits<std::uint64_t>::max();  // nothing counted yet
  mutable std::uint64_t counted_version_ = 0;
  std::unordered_map<NodeId, std::unordered_set<NodeId>> cluster_;  // head -> members
  // heads_within's (hops, id) pairs, reused so a query allocates only its
  // result.
  mutable std::vector<std::pair<std::uint32_t, NodeId>> ring_;
};

}  // namespace qip
