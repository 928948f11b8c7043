// Weak DAD baseline (Vaidya, 2002) — reference [11].
//
// Weak duplicate address detection gives up on global uniqueness and settles
// for a weaker—but sufficient—property: packets are always routed to the
// intended node even if two nodes ever pick the same IP address.  Every node
// augments its address with a (statistically unique) key derived from its
// hardware; link-state routing entries carry (address, key) pairs, so a
// router that sees the same address with two different keys detects the
// duplicate and keeps the routes distinct.
//
// Configuration is therefore trivial and local: pick a random address, no
// flood, no handshake.  The cost moves into the routing layer: every routing
// update carries keys, and a conflict is only *detected* when the two
// holders' link-state updates meet at some router.  We model the link-state
// dissemination as a periodic per-node flood (metered as maintenance) and
// report detected conflicts; per [11], an address conflict cannot be
// resolved (only tolerated) — and is invisible if two nodes collide in both
// address and key.
#pragma once

#include <map>
#include <set>
#include <unordered_map>

#include "addr/ip_address.hpp"
#include "net/protocol.hpp"

namespace qip {

struct WeakDadParams {
  std::uint64_t pool_size = 1024;
  IpAddress pool_base = kPoolBase;
  /// Bits of the per-node key; small values make key collisions (the
  /// scheme's blind spot) observable in simulation.
  std::uint32_t key_bits = 16;
  /// Link-state update period.
  SimTime update_interval = 2.0;
};

class WeakDadProtocol : public AutoconfProtocol {
 public:
  WeakDadProtocol(Transport& transport, Rng& rng, WeakDadParams params = {});
  ~WeakDadProtocol() override;

  std::string name() const override { return "WeakDAD"; }
  /// Duplicates are tolerated by design: routing keys keep packets flowing
  /// past address collisions, so the auditor must not treat them as fatal.
  bool audit_uniqueness() const override { return false; }

  void node_entered(NodeId id) override;
  void node_departing(NodeId) override {}  // stateless: nothing to return
  void node_left(NodeId id) override;
  void node_vanished(NodeId id) override { node_left(id); }

  std::optional<IpAddress> address_of(NodeId id) const override;

  void start_updates();
  /// One link-state dissemination round (exposed for tests).
  void update_tick();

  std::uint64_t key_of(NodeId id) const;

  /// Duplicate (address, different-key) pairs observed by any router so far.
  std::uint64_t conflicts_detected() const { return conflicts_detected_; }
  /// Address+key collisions — the undetectable case of [11].  Counted by
  /// the omniscient harness, not by any node.
  std::uint64_t silent_collisions() const;

 private:
  struct NodeState {
    bool configured = false;
    IpAddress ip{};
    std::uint64_t key = 0;
    /// Link-state view: address -> set of keys seen for it.
    std::map<IpAddress, std::set<std::uint64_t>> routing_view;
  };

  NodeState& node(NodeId id);
  bool alive(NodeId id) const { return nodes_.count(id) != 0; }

  WeakDadParams params_;
  std::unordered_map<NodeId, NodeState> nodes_;
  std::uint64_t conflicts_detected_ = 0;
  /// (address, key) pairs already counted as detected conflicts.
  std::set<std::pair<IpAddress, std::uint64_t>> flagged_;
  EventHandle update_timer_;
  bool updates_running_ = false;
};

}  // namespace qip
