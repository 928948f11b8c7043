// Common interface all autoconfiguration protocols implement.
//
// The experiment harness drives QIP and every baseline through this
// interface: it adds a node to the topology, announces its entry, runs the
// simulator, and later announces graceful departures (protocol messages run)
// or abrupt vanishing (no messages — the node is simply gone, as when a
// battery dies).  Per-node configuration outcomes are recorded here so
// latency figures read uniformly across protocols.
//
// Lifecycle contract (enforced by the harness):
//   1. topology.add_node(id, pos)        — radio appears
//   2. proto.node_entered(id)            — protocol begins configuring
//   3. [mobility ticks; proto.on_mobility_tick() after each]
//   4a. proto.node_departing(id)         — graceful: protocol sends farewells
//       ... settle ...; topology.remove_node(id); proto.node_left(id)
//   4b. topology.remove_node(id); proto.node_vanished(id)   — abrupt
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "addr/ip_address.hpp"
#include "net/node_id.hpp"
#include "net/transport.hpp"
#include "sim/sim_context.hpp"
#include "util/rng.hpp"

namespace qip {

/// Outcome of one node's (latest) configuration attempt.
struct ConfigRecord {
  bool success = false;
  IpAddress address{};
  /// Critical-path hops from the first request transmission until the
  /// requestor held its address (§VI-B's "configuration time").
  std::uint64_t latency_hops = 0;
  /// Quorum-collection / flooding rounds needed (1 = first try).
  std::uint32_t attempts = 0;
  SimTime requested_at = 0.0;
  SimTime completed_at = 0.0;
};

class AutoconfProtocol {
 public:
  AutoconfProtocol(Transport& transport, Rng& rng)
      : transport_(transport), rng_(rng) {}
  virtual ~AutoconfProtocol() = default;
  AutoconfProtocol(const AutoconfProtocol&) = delete;
  AutoconfProtocol& operator=(const AutoconfProtocol&) = delete;

  virtual std::string name() const = 0;

  /// The node is in the topology and wants an address.
  virtual void node_entered(NodeId id) = 0;

  /// Graceful departure begins: the protocol returns addresses / hands off
  /// state.  The node stays in the topology until node_left().
  virtual void node_departing(NodeId id) = 0;

  /// The node has physically left after a graceful departure.
  virtual void node_left(NodeId id) = 0;

  /// Abrupt departure: the node is already out of the topology and said
  /// nothing.  Only the node's own in-memory state is discarded; peers keep
  /// whatever (now possibly stale) state they hold.
  virtual void node_vanished(NodeId id) = 0;

  /// Invoked after each mobility tick (location-update logic hooks here).
  virtual void on_mobility_tick() {}

  /// Partition-domain tag for the uniqueness auditor: at every instant, two
  /// nodes sharing a connected component AND this tag must hold distinct
  /// addresses.  The default (one domain per run) suits protocols without
  /// merge-pending semantics; QIP overrides with its network id, because two
  /// healed-but-not-yet-merged networks legitimately hold conflicting
  /// addresses until the merge procedure resolves them (§V-C).
  virtual std::uint64_t audit_domain(NodeId) const { return 0; }

  /// Whether the uniqueness auditor should enforce duplicate-freedom for
  /// this protocol.  True for allocation schemes that promise unique
  /// addresses at every instant (QIP, buddy, C-tree, strong DAD).  False
  /// for detection/tolerance schemes whose *design* admits duplicates —
  /// WeakDAD routes around them, PDAD flags them after the fact, Boleng
  /// resolves them at the beacon census — and for MANETconf, whose modeled
  /// concurrent-initiator race can assign one candidate twice (the paper's
  /// initiator mutual exclusion is not simulated).  No protocol but QIP
  /// gets a leak check: the auditor's reads QIP's engine state.
  virtual bool audit_uniqueness() const { return true; }

  bool configured(NodeId id) const {
    auto it = records_.find(id);
    return it != records_.end() && it->second.success;
  }

  virtual std::optional<IpAddress> address_of(NodeId id) const {
    auto it = records_.find(id);
    if (it == records_.end() || !it->second.success) return std::nullopt;
    return it->second.address;
  }

  const ConfigRecord* config_record(NodeId id) const {
    auto it = records_.find(id);
    return it == records_.end() ? nullptr : &it->second;
  }

  Transport& transport() { return transport_; }
  const Transport& transport() const { return transport_; }

 protected:
  Simulator& sim() { return transport_.sim(); }
  Topology& topology() { return transport_.topology(); }
  const Topology& topology() const { return transport_.topology(); }
  Rng& rng() { return rng_; }

  /// The simulation context this protocol's world runs in: trace events and
  /// metrics land here instead of any process-global.
  SimContext& ctx() const { return transport_.ctx(); }

  ConfigRecord& record_for(NodeId id) { return records_[id]; }

 private:
  Transport& transport_;
  Rng& rng_;
  std::unordered_map<NodeId, ConfigRecord> records_;
};

}  // namespace qip
