// Distributed C-tree baseline (Sheu, Tu & Chan, ICPADS'05) — reference [3].
//
// Only *coordinators* maintain disjoint IP address pools and configure
// newcomers; the coordinators form a virtual tree (the C-tree) rooted at the
// first node (the C-root), and each coordinator periodically pushes its
// allocation table up the tree so the root holds the global view.  There is
// no replication: when a coordinator dies, the only other copy of its
// allocation state is whatever the root received at the last periodic
// update, and reclamation is driven by the root flooding the network.
//
// The paper compares against this protocol on maintenance overhead
// (Fig. 10), visible IP space (Fig. 12), information loss under mass abrupt
// departure (Fig. 13) and reclamation overhead (Fig. 14).
#pragma once

#include <map>
#include <set>
#include <unordered_map>

#include "addr/address_block.hpp"
#include "net/protocol.hpp"

namespace qip {

struct CTreeParams {
  std::uint64_t pool_size = 1024;
  IpAddress pool_base = kPoolBase;
  /// A newcomer joins an existing coordinator when one is within this many
  /// hops; otherwise it becomes a coordinator itself (mirrors [3]'s cluster
  /// structure and QIP's ch_radius for comparability).
  std::uint32_t coord_radius = 2;
  std::uint32_t max_r = 3;
  SimTime retry_wait = 1.0;
  /// Period of coordinator -> C-root allocation updates (same cadence as
  /// QIP's hello/location-update machinery, for a fair Fig. 10 comparison).
  SimTime update_interval = 1.0;
};

class CTreeProtocol : public AutoconfProtocol {
 public:
  CTreeProtocol(Transport& transport, Rng& rng, CTreeParams params = {});
  ~CTreeProtocol() override;

  std::string name() const override { return "C-tree"; }

  /// No replication: a crashed coordinator's allocations survive only in the
  /// root's last periodic snapshot, so reclamation after information loss
  /// re-issues addresses crashed-and-returned or stranded nodes still hold.
  /// That vulnerability is the phenomenon Figs. 13/14 measure — not a bug
  /// the auditor should abort on.
  bool audit_uniqueness() const override { return false; }

  void node_entered(NodeId id) override;
  void node_departing(NodeId id) override;
  void node_left(NodeId id) override;
  void node_vanished(NodeId id) override;

  std::optional<IpAddress> address_of(NodeId id) const override;

  void start_updates();
  /// One periodic update round (exposed for tests / figures).
  void update_tick();

  NodeId root() const { return root_; }
  bool is_coordinator(NodeId id) const;

  /// Free pool a coordinator can allocate from — no replication, so this is
  /// its own block only (Fig. 12's comparison quantity).
  std::uint64_t visible_space(NodeId coordinator) const;
  double average_visible_space() const;

  /// Addresses whose allocation state is lost if `dead` coordinators vanish
  /// right now: allocations made since their last root update — or their
  /// whole tables when the root itself is among the dead (Fig. 13).
  std::uint64_t info_loss_if_dead(const std::set<NodeId>& dead) const;
  /// Allocations recorded by one coordinator (0 for non-coordinators).
  std::uint64_t allocations_of(NodeId coordinator) const;

  /// Copy of a coordinator's free pool (empty for non-coordinators) —
  /// fragmentation studies inspect its range structure.
  AddressBlock pool_of(NodeId coordinator) const;

 private:
  struct CoordinatorState {
    AddressBlock pool;               ///< free addresses
    AddressBlock universe;           ///< everything this coordinator manages
    std::map<IpAddress, NodeId> allocated;  ///< fine-grained allocations
    NodeId parent = kNoNode;         ///< C-tree edge toward the root
  };
  struct NodeState {
    bool configured = false;
    bool coordinator = false;
    IpAddress ip{};
    NodeId coordinator_id = kNoNode;  ///< who configured me
    CoordinatorState coord;           ///< valid iff coordinator
    std::uint32_t bootstrap_tries = 0;
    EventHandle bootstrap_timer;
  };

  NodeState& node(NodeId id);
  bool alive(NodeId id) const { return nodes_.count(id) != 0; }
  std::optional<NodeId> coordinator_within(NodeId id, std::uint32_t k) const;
  std::optional<NodeId> nearest_coordinator(NodeId id) const;
  void bootstrap(NodeId id);
  void root_reclaim(NodeId dead_coordinator);

  CTreeParams params_;
  std::unordered_map<NodeId, NodeState> nodes_;
  NodeId root_ = kNoNode;
  /// Root-side snapshots: coordinator -> allocations known at last update.
  std::map<NodeId, std::map<IpAddress, NodeId>> root_view_;
  std::set<NodeId> reclaimed_;
  EventHandle update_timer_;
  bool updates_running_ = false;
};

}  // namespace qip
