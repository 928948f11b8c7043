// Passive DAD baseline (Weniger, WCNC'03) — reference [14].
//
// PDAD adds *no* protocol traffic at all: every node continuously analyzes
// the routing packets it overhears and derives hints that "rarely occur for
// unique addresses but often occur with duplicates".  We model the classic
// PDAD-SN (sequence number) and PDAD-LP (locality/physics) hints over a
// simulated proactive routing substrate:
//
//   * each configured node periodically floods a routing update carrying
//     (address, monotonically increasing sequence number, originator hop
//     coordinates);
//   * PDAD-SN: seeing a sequence number for an address that is lower than
//     one already seen — impossible for a single originator — flags a
//     duplicate;
//   * PDAD-NH (neighborhood): two updates for the same address observed in
//     the same beacon round with incompatible hop distances flags a
//     duplicate.
//
// Configuration itself is a local random pick (like Weak DAD, but without
// keys); the detector is the contribution.  The routing substrate's floods
// are metered as hello traffic — they exist with or without PDAD, which is
// the protocol's whole selling point.
#pragma once

#include <map>
#include <set>
#include <unordered_map>

#include "addr/ip_address.hpp"
#include "net/protocol.hpp"

namespace qip {

struct PdadParams {
  std::uint64_t pool_size = 1024;
  IpAddress pool_base = kPoolBase;
  /// Routing-update period of the underlying proactive protocol.
  SimTime routing_interval = 1.0;
};

class PdadProtocol : public AutoconfProtocol {
 public:
  PdadProtocol(Transport& transport, Rng& rng, PdadParams params = {});
  ~PdadProtocol() override;

  std::string name() const override { return "PDAD"; }
  /// Passive detection: duplicates exist until routing hints reveal them.
  bool audit_uniqueness() const override { return false; }

  void node_entered(NodeId id) override;
  void node_departing(NodeId) override {}
  void node_left(NodeId id) override;
  void node_vanished(NodeId id) override { node_left(id); }

  std::optional<IpAddress> address_of(NodeId id) const override;

  void start_routing();
  /// One routing round (exposed for tests).
  void routing_tick();

  /// Addresses flagged as duplicated by any node's passive analysis.
  std::uint64_t duplicates_flagged() const { return duplicates_flagged_; }
  /// Nodes that restarted configuration after their address was flagged.
  std::uint64_t reconfigurations() const { return reconfigurations_; }
  /// True duplicates currently present (omniscient harness view).
  std::uint64_t actual_duplicates() const;

 private:
  struct Observation {
    std::uint64_t highest_seq = 0;
    std::uint32_t last_hops = 0;
    std::uint64_t last_round = 0;
  };
  struct NodeState {
    bool configured = false;
    IpAddress ip{};
    std::uint64_t seq = 0;  ///< own routing sequence number
    /// Passive analysis state per overheard address.
    std::map<IpAddress, Observation> seen;
  };

  NodeState& node(NodeId id);
  bool alive(NodeId id) const { return nodes_.count(id) != 0; }
  void pick_address(NodeId id, bool count_as_attempt);
  void flag_duplicate(NodeId observer, IpAddress addr);

  PdadParams params_;
  std::unordered_map<NodeId, NodeState> nodes_;
  std::uint64_t round_ = 0;
  std::uint64_t duplicates_flagged_ = 0;
  std::uint64_t reconfigurations_ = 0;
  std::set<IpAddress> flagged_;
  EventHandle routing_timer_;
  bool routing_running_ = false;
};

}  // namespace qip
