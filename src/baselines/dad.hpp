// Stateless query-based DAD baseline (Perkins et al., IETF draft) — ref [9].
//
// No node keeps allocation state.  A newcomer picks a random address and
// floods an Address Request (AREQ); any node already holding that address
// unicasts an Address Reply (AREP) back.  After AREQ_RETRIES silent floods
// the newcomer adopts the address.  Cheap state, expensive and slow
// configuration — the related-work contrast of §III.
#pragma once

#include <unordered_map>

#include "addr/ip_address.hpp"
#include "net/protocol.hpp"

namespace qip {

struct DadParams {
  std::uint64_t pool_size = 1024;
  IpAddress pool_base = kPoolBase;
  std::uint32_t areq_retries = 3;  ///< AREQ_RETRIES in the draft
  SimTime areq_wait = 0.5;         ///< wait between AREQ floods
};

class DadProtocol : public AutoconfProtocol {
 public:
  DadProtocol(Transport& transport, Rng& rng, DadParams params = {});
  ~DadProtocol() override;

  std::string name() const override { return "DAD"; }

  void node_entered(NodeId id) override;
  void node_departing(NodeId) override {}  // stateless: nothing to return
  void node_left(NodeId id) override;
  void node_vanished(NodeId id) override { node_left(id); }

  std::optional<IpAddress> address_of(NodeId id) const override;

 private:
  struct NodeState {
    bool configured = false;
    IpAddress ip{};
    IpAddress candidate{};
    std::uint32_t floods_done = 0;
    std::uint32_t picks = 0;
    bool conflicted = false;
    std::uint64_t hops = 0;
    EventHandle timer;
  };

  NodeState& node(NodeId id);
  bool alive(NodeId id) const { return nodes_.count(id) != 0; }
  void pick_candidate(NodeId id);
  void areq_round(NodeId id);

  DadParams params_;
  std::unordered_map<NodeId, NodeState> nodes_;
};

}  // namespace qip
