// Buddy-system baseline (Mohsin & Prakash, MILCOM'02) — reference [2].
//
// Every node owns a disjoint address block and can configure a newcomer
// single-handedly by splitting its block in half (binary buddy system), so
// configuration itself is cheap and local.  The cost moves elsewhere: every
// node maintains the IP allocation table of the WHOLE network, kept loosely
// consistent by periodic global synchronization, and each node tracks its
// "buddy" so leaked blocks can be recovered.
//
// Figures 8 and 9 compare this protocol's configuration/departure overhead
// against QIP: the buddy protocol's totals are dominated by the periodic
// table synchronization (each sync round costs one network-wide flood per
// node), which QIP avoids.
#pragma once

#include <map>
#include <unordered_map>

#include "addr/address_block.hpp"
#include "net/protocol.hpp"

namespace qip {

struct BuddyParams {
  std::uint64_t pool_size = 1024;
  IpAddress pool_base = kPoolBase;
  std::uint32_t max_r = 3;
  SimTime retry_wait = 1.0;
  /// Period of the global allocation-table synchronization (§[2]).
  SimTime sync_interval = 5.0;
};

class BuddyProtocol : public AutoconfProtocol {
 public:
  BuddyProtocol(Transport& transport, Rng& rng, BuddyParams params = {});
  ~BuddyProtocol() override;

  std::string name() const override { return "Buddy"; }
  /// A joiner that exhausts its bootstrap retries without reaching a
  /// splittable allocator seizes the full pool as a fresh root — the
  /// paper's global sync would repair the resulting duplicates, but the
  /// model does not, so instantaneous uniqueness is not promised.
  bool audit_uniqueness() const override { return false; }

  void node_entered(NodeId id) override;
  void node_departing(NodeId id) override;
  void node_left(NodeId id) override;
  void node_vanished(NodeId id) override;

  std::optional<IpAddress> address_of(NodeId id) const override;

  void start_sync();
  /// One synchronization round (exposed for tests).
  void sync_tick();

  /// The block a node currently owns (tests).
  const AddressBlock& block_of(NodeId id) const;

 private:
  struct NodeState {
    bool configured = false;
    IpAddress ip{};
    /// This node's disjoint free block.
    AddressBlock block;
    /// The buddy that received the other half of our last split (and the
    /// node we received our block from): checked for liveness each sync.
    NodeId buddy = kNoNode;
    /// Global allocation table: node id -> address, refreshed by sync.
    std::map<NodeId, IpAddress> global_table;
    std::uint32_t bootstrap_tries = 0;
    EventHandle bootstrap_timer;
  };

  NodeState& node(NodeId id);
  bool alive(NodeId id) const { return nodes_.count(id) != 0; }
  std::optional<NodeId> nearest_configured(NodeId id) const;
  void bootstrap(NodeId id);

  BuddyParams params_;
  std::unordered_map<NodeId, NodeState> nodes_;
  EventHandle sync_timer_;
  bool sync_running_ = false;
};

}  // namespace qip
