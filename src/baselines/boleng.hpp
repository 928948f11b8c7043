// Variable-length address assignment baseline (Boleng, ICWN'02) — ref [10].
//
// Every entering node takes the next address above the current network-wide
// maximum, so assignment needs no negotiation at all — only knowledge of two
// *addressing parameters*: the highest address in use and the number of bits
// currently needed to encode it.  Both parameters piggyback on every data
// packet and are updated proactively; we model that dissemination as a
// periodic parameter beacon (metered as maintenance, since unlike PDAD this
// scheme genuinely extends each packet).
//
// Properties reproduced from [10]:
//   * constant-time, collision-free assignment while the network is
//     connected (the maximum is a consensus-free monotone counter);
//   * address length grows over time and never shrinks within one epoch —
//     addresses are not reused, so churn steadily inflates the bit-length
//     (the storage cost §III points out);
//   * partitions can issue the same "next" address on both sides; on merge
//     the later-assigned side re-takes addresses above the united maximum.
#pragma once

#include <unordered_map>

#include "addr/ip_address.hpp"
#include "net/protocol.hpp"

namespace qip {

struct BolengParams {
  IpAddress pool_base = kPoolBase;
  /// Addressing-parameter beacon period.
  SimTime beacon_interval = 1.0;
};

class BolengProtocol : public AutoconfProtocol {
 public:
  BolengProtocol(Transport& transport, Rng& rng, BolengParams params = {});
  ~BolengProtocol() override;

  std::string name() const override { return "Boleng"; }
  /// Disjoint camps assign independently; the beacon census resolves the
  /// duplicates only after contact, so instantaneous uniqueness is not part
  /// of the scheme's contract.
  bool audit_uniqueness() const override { return false; }

  void node_entered(NodeId id) override;
  void node_departing(NodeId) override {}  // addresses are never returned
  void node_left(NodeId id) override;
  void node_vanished(NodeId id) override { node_left(id); }

  std::optional<IpAddress> address_of(NodeId id) const override;

  void start_beacons();
  /// One parameter-dissemination round (exposed for tests).
  void beacon_tick();

  /// Bits needed for the highest address a node currently knows of.
  std::uint32_t address_bits(NodeId id) const;
  /// Duplicate assignments currently live (omniscient view; arise only from
  /// assignment during partitions).
  std::uint64_t actual_duplicates() const;

 private:
  struct NodeState {
    bool configured = false;
    IpAddress ip{};
    /// The two addressing parameters of [10].
    IpAddress max_seen{};
    std::uint32_t bits = 1;
  };

  NodeState& node(NodeId id);
  bool alive(NodeId id) const { return nodes_.count(id) != 0; }
  static std::uint32_t bits_for(IpAddress base, IpAddress a);

  BolengParams params_;
  std::unordered_map<NodeId, NodeState> nodes_;
  EventHandle beacon_timer_;
  bool beacons_running_ = false;
};

}  // namespace qip
