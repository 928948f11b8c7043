// The quorum-based autoconfiguration protocol (the paper's contribution).
//
// QipEngine implements AutoconfProtocol with the full §IV/§V machinery:
//
//   * on-entry clustering — a node with a head within ch_radius hops joins
//     as a common node, otherwise it is configured as a new cluster head
//     with half of its allocator's IPSpace;
//   * quorum voting — every allocation runs a read round (QUORUM_CLT /
//     QUORUM_CFM) over the owning head's replica group and a write round
//     (QUORUM_UPD) after commit.  Votes are *permissions* (mutual exclusion,
//     §II-C): a voter lends its copy of a space to one transaction at a
//     time, so two allocators can never commit the same address.  Dynamic
//     linear voting (§II-D) accepts an exactly-half quorum that includes
//     the distinguished copy — held by the group's lowest-id member, one
//     deterministic rule shared with view changes and reclamation (see
//     qip_types.hpp and DESIGN.md §6.2);
//   * address borrowing from QuorumSpace when IPSpace is exhausted, and
//     agent forwarding to the configurer when everything is exhausted (§V-A);
//   * movement: periodic UPDATE_LOC beyond update_threshold hops, or the
//     upon-leave update scheme (§IV-C);
//   * graceful departure for common nodes (RETURN_ADDR routed back to the
//     allocator) and cluster heads (block return to the configurer or the
//     smallest-block QDSet member, RESIGN, ALLOC_CHANGE to members);
//   * quorum adjustment (T_d shrink, REP_REQ probe, T_r, replica regrowth
//     below min_qdset, §V-B) and address reclamation (ADDR_REC flood,
//     REC_REP claims, §IV-D);
//   * partition & merge: network ids (lowest IP), isolated-head recovery,
//     and one-by-one rejoin of the larger-id network after a merge (§V-C).
//
// The engine is a deterministic event-driven coordinator: every inter-node
// interaction flows through the metered Transport, and a node's handlers
// touch only that node's own QipNodeState.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include <set>

#include "cluster/cluster_view.hpp"
#include "core/node_table.hpp"
#include "core/qip_node.hpp"
#include "core/qip_params.hpp"
#include "core/qip_types.hpp"
#include "net/protocol.hpp"
#include "net/reliable_channel.hpp"
#include "obs/trace_recorder.hpp"

namespace qip {

class AdversaryController;
class SwimDetector;
enum class AttackKind : std::uint8_t;

class QipEngine : public AutoconfProtocol {
 public:
  QipEngine(Transport& transport, Rng& rng, QipParams params = {});
  ~QipEngine() override;

  std::string name() const override { return "QIP"; }

  // -- AutoconfProtocol ----------------------------------------------------
  void node_entered(NodeId id) override;
  void node_departing(NodeId id) override;
  void node_left(NodeId id) override;
  void node_vanished(NodeId id) override;
  void on_mobility_tick() override;
  std::uint64_t audit_domain(NodeId id) const override;

  /// Live state, not the ConfigRecord bookkeeping: internal reconfiguration
  /// paths (merge dissolution, isolated-head recovery, heal) move a node's
  /// address without re-running the entry flow, so the record's address can
  /// go stale while the node legitimately holds a different one.
  std::optional<IpAddress> address_of(NodeId id) const override {
    const QipNodeState* st = nodes_.find(id);
    if (st == nullptr) return std::nullopt;
    return st->ip;
  }

  // -- Introspection (tests, figures) --------------------------------------
  const QipParams& params() const { return params_; }
  const ClusterView& clusters() const { return clusters_; }
  bool knows(NodeId id) const { return nodes_.contains(id); }
  const QipNodeState& state_of(NodeId id) const;

  /// Average |QDSet| over current cluster heads (Fig. 12 input).
  double average_qdset_size() const;
  /// Average visible IP space (own + QuorumSpace) per head, in addresses
  /// (§V-A's "extends the IP space of a cluster head by up to 5.5 times").
  double average_visible_space() const;
  /// Average own IPSpace per head.
  double average_own_space() const;

  std::uint64_t config_failures() const { return config_failures_; }
  std::uint64_t config_successes() const { return config_successes_; }
  std::uint64_t reclaims_started() const { return reclaims_started_; }
  std::uint64_t reclaims_completed() const { return reclaims_completed_; }
  std::uint64_t merges_handled() const { return merges_handled_; }

  /// Runs the hello/maintenance scan once (normally driven by the periodic
  /// hello timer; exposed for tests).
  void hello_tick();

  /// Starts the periodic hello timer.
  void start_hello();

  /// The ack+retransmit channel quorum-critical RPCs ride under fault
  /// injection (pass-through otherwise).  Exposed so fault tests can read
  /// retransmission counts or force-disable it.
  ReliableChannel& channel() { return channel_; }
  const ReliableChannel& channel() const { return channel_; }

  /// True for RPCs that opt into the ReliableChannel: lock/vote/commit,
  /// replica sync, liveness probes and config/departure handshakes.  Entry
  /// requests, HELLO beacons, location updates and flood-borne messages stay
  /// best-effort (their own periodic retries tolerate loss).
  static bool quorum_critical(QipMsg m);

  /// All configured addresses: node -> address (sorted for determinism).
  std::map<NodeId, IpAddress> configured_addresses() const;

  /// fn(id, address) for every node holding an address, in ascending id
  /// order: configured_addresses() without building the map.
  template <typename Fn>
  void for_each_configured(Fn&& fn) const {
    nodes_.for_each([&](NodeId id, const QipNodeState& st) {
      if (st.ip) fn(id, *st.ip);
    });
  }

  // -- Adversary hardening (qip_hardening.cpp, docs/ADVERSARY.md) -----------

  /// Installs a SWIM failure detector (not owned; must outlive the engine's
  /// run).  The engine feeds each head's QDSet watch-list into it every
  /// hello scan and treats a suspected member as uncontactable.  With no
  /// detector the built-in topology oracle stands alone, and the run is
  /// byte-identical to one that never called this.  Wires the detector's
  /// responder to serves_probes().
  void set_failure_detector(SwimDetector* detector);

  /// Whether `id` currently answers detector probe pings: configured, radio
  /// up, and not silently defecting.  SwimDetector's responder callback.
  bool serves_probes(NodeId id) const;

  /// Peers expelled by hardened mode (network-wide revocation): their claims
  /// are void, they are excluded from allocation, voting and replica groups.
  bool is_quarantined(NodeId id) const { return quarantined_.count(id) != 0; }
  std::uint64_t quarantines() const { return quarantines_; }
  std::uint64_t challenges_sent() const { return challenges_sent_; }

 private:
  // ---- helpers -----------------------------------------------------------
  QipNodeState& node(NodeId id);
  const QipNodeState& node(NodeId id) const;
  bool alive(NodeId id) const { return nodes_.contains(id); }
  bool is_head(NodeId id) const {
    const QipNodeState* st = nodes_.find(id);
    return st != nullptr && st->role == Role::kClusterHead;
  }

  /// What a message adds to its `qip` trace instant beside `to` and `hops`
  /// (docs/OBSERVABILITY.md): an address as `addr`, a block as `lo`/`hi`
  /// plus its `ranges` count (a fragmented block never reads as one range),
  /// a vote as `vote`, a reason as `reason`.  Integers and literals only, so
  /// an untraced send formats nothing.  Implicit, so a call site passes the
  /// address, block, vote or literal itself.
  struct MsgDetail {
    MsgDetail() = default;
    MsgDetail(IpAddress addr);              // NOLINT(google-explicit-constructor)
    MsgDetail(const AddressBlock& block);   // NOLINT(google-explicit-constructor)
    MsgDetail(Vote vote);                   // NOLINT(google-explicit-constructor)
    MsgDetail(const char* reason);          // NOLINT(google-explicit-constructor)
    /// Unused slots stay Kind::kNone, which the recorder skips.
    obs::Arg args[3];
  };

  /// Records `msg` as a `qip` instant (name = the paper's message
  /// vocabulary) when tracing is on.
  void trace(QipMsg msg, NodeId from, NodeId to, std::uint32_t hops,
             const MsgDetail& detail = {});

  /// Metered unicast carrying cumulative critical-path hops; returns false
  /// when unreachable.  `fn` runs at the receiver with total path hops.
  /// Templated so the receiver closure lands directly in the transport's
  /// small-buffer Receiver — no std::function box per send.  `this` is
  /// deliberately not captured: hops_base + a typical `this`-plus-ids
  /// handler fits Transport::Receiver's 32-byte inline buffer exactly.
  template <typename F>
  bool send(NodeId from, NodeId to, QipMsg msg, Traffic traffic,
            std::uint64_t hops_base, F&& fn, const MsgDetail& detail = {}) {
    Transport::Receiver deliver =
        [hops_base, fn = std::forward<F>(fn)](NodeId,
                                              std::uint32_t d) mutable {
          fn(hops_base + d);
        };
    // Quorum-critical RPCs ride the reliable channel; under the paper's
    // reliable model (no active fault plan) it is a plain unicast either way.
    const auto hops =
        quorum_critical(msg)
            ? channel_.send(from, to, traffic, std::move(deliver))
            : transport().unicast(from, to, traffic, std::move(deliver));
    if (!hops) return false;
    trace(msg, from, to, *hops, detail);
    return true;
  }

  // ---- entry & configuration (qip_engine.cpp) ----------------------------
  void begin_bootstrap(NodeId id);
  void bootstrap_attempt(NodeId id);
  void become_first_head(NodeId id);
  void start_configuration(NodeId id);
  std::optional<NodeId> choose_common_allocator(NodeId requestor,
                                                std::uint64_t& extra_hops);

  void enqueue_request(NodeId allocator, PendingRequest req);
  void pump_pending(NodeId allocator);
  void begin_txn(NodeId allocator, const PendingRequest& req);

  /// Picks the next proposal for `txn` (own IPSpace first, then borrowed
  /// QuorumSpace addresses §V-A).  Returns false when nothing is available;
  /// `blocked_by_lock` distinguishes "space exists but another transaction
  /// holds it" (worth waiting) from genuine exhaustion.
  bool propose_next(ConfigTxn& txn, bool* blocked_by_lock = nullptr);
  /// Forwards the request to the allocator's configurer as a last resort
  /// ("acts as an agent", §V-A).  Returns false if no agent path exists.
  bool agent_forward(ConfigTxn& txn);

  void start_quorum_round(ConfigTxn& txn);
  void handle_quorum_clt(NodeId voter, NodeId allocator, NodeId owner,
                         std::uint64_t txn_id, std::uint32_t round,
                         const AddressBlock& proposal,
                         std::uint64_t hops_so_far);
  void handle_vote(std::uint64_t txn_id, std::uint32_t round, NodeId voter,
                   Vote vote, std::uint64_t timestamp,
                   std::uint64_t hops_so_far);
  std::uint32_t quorum_needed(const ConfigTxn& txn) const;
  void round_failed(ConfigTxn& txn, bool conflict);
  void release_grants(ConfigTxn& txn);
  void commit_config(ConfigTxn& txn);
  void finish_config_failure(ConfigTxn& txn);
  void complete_common(NodeId id, NodeId allocator, IpAddress addr,
                       NetworkId network_id, std::uint64_t total_hops,
                       std::uint32_t attempts);
  void complete_head(NodeId id, NodeId allocator, AddressBlock block,
                     NetworkId network_id, std::uint64_t total_hops,
                     std::uint32_t attempts);
  void join_qdsets(NodeId new_head);
  void end_txn(ConfigTxn& txn);

  /// Write round: pushes a fresh snapshot of `owner`'s space (as known by
  /// `source`, the owner itself or a replica holder) to the replica group.
  /// `txn_id`, when nonzero, also releases that transaction's permission at
  /// each recipient (the write round doubles as lock release).
  void replicate_update(NodeId source, NodeId owner, Traffic traffic,
                        std::uint64_t txn_id = 0);
  /// Delivers `snapshot` (of snapshot.owner's space) from `source` to the
  /// owner's replica group.  replicate_update = snapshot_space + this; the
  /// split exists so the adversary layer can push a *corrupted* snapshot
  /// through the same delivery path honest updates use.  All recipients,
  /// and every retransmitted copy, share one immutable snapshot.
  void push_snapshot(NodeId source, ReplicaCopy snapshot, Traffic traffic,
                     std::uint64_t txn_id = 0);
  /// Snapshot of `owner`'s space as seen from `source`.
  ReplicaCopy snapshot_space(NodeId source, NodeId owner) const;
  /// Applies an incoming snapshot at `holder`.  `source` is the sender
  /// (hardened mode screens demotions arriving from non-owners).
  void adopt_replica(NodeId holder, const ReplicaCopy& snapshot,
                     NodeId source);

  // ---- departure (qip_departure.cpp) --------------------------------------
  void depart_common(NodeId id);
  void depart_head(NodeId id);
  void handle_return_addr(NodeId receiver, NodeId leaver, NodeId configurer,
                          IpAddress addr, std::uint64_t hops,
                          std::uint32_t ttl);
  void free_owned_address(NodeId owner, IpAddress addr, Traffic traffic);

  // ---- maintenance (qip_maintenance.cpp) ----------------------------------
  void location_update_scan();
  /// A head the hello tick's census counts: a live, unquarantined
  /// ClusterView head in the topology.
  bool census_head(NodeId id) const;
  /// Whether the census leaves a head of `head`'s network outside `head`
  /// and its QDSet: without one, no QDSet link can form this tick.
  bool census_candidate_left(NodeId head) const;
  void head_neighborhood_scan(NodeId head);
  void suspect(NodeId head, NodeId missing);
  void unsuspect(NodeId head, NodeId member);
  void shrink_quorum(NodeId head, NodeId missing);
  void grow_quorum(NodeId head);
  void add_qdset_link(NodeId a, NodeId b, Traffic traffic);
  void refresh_network_ids();
  void start_reclamation(NodeId initiator, NodeId dead_head);
  void handle_rec_rep(NodeId head, NodeId claimant, NodeId dead_head,
                      IpAddress addr, std::uint64_t hops);
  void finish_reclamation(NodeId dead_head);

  // ---- adversary & hardening (qip_hardening.cpp) --------------------------
  bool harden_on() const { return params_.harden.enabled; }
  /// The context's adversary controller when an active plan is installed,
  /// else nullptr — the one branch honest runs pay.
  AdversaryController* adversary_ctl() const;
  /// Is `id` running attack `kind` right now (per the active plan)?
  bool attack_active(NodeId id, AttackKind kind) const;
  /// Executes scheduled attacks once per hello tick (squats fire once,
  /// poison pushes repeat every tick their window is open).
  void run_adversary_tick();
  /// One-shot address theft: claim a victim's address + network id without
  /// any quorum round.  Returns true if a victim existed.
  bool perform_squat(NodeId attacker);
  /// Pushes corrupted replica snapshots (allocations demoted to free with
  /// boosted timestamps) for every space `attacker` holds a copy of.
  void perform_poison(NodeId attacker);
  /// Hardened hello-scan pass at `head`: challenge any nearby same-network
  /// claim its tables bind to a different live holder.
  void detect_squats(NodeId head);
  /// Sends kAddrChallenge to `claimant`; no kChallengeAck within
  /// challenge_timeout quarantines it.
  void challenge_claim(NodeId head, NodeId claimant);
  /// Tallies one suspicion point at `accuser` against `peer`; crossing
  /// HardenParams::suspicion_threshold quarantines the peer.
  void add_suspicion(NodeId accuser, NodeId peer, const char* why);
  /// Expels `culprit` network-wide (revocation flood charged to the
  /// accuser's component): excluded from clusters, groups and audits.
  void quarantine(NodeId accuser, NodeId culprit, const char* why);
  /// Hardened per-round deadline: closes a stalled quorum round, charging
  /// suspicion to voters that never answered.
  void harden_round_expired(std::uint64_t txn_id, std::uint32_t round);
  /// Hardened owner-side table merge: demotions (allocated -> free) in an
  /// incoming non-owner snapshot are verified against the recorded holder
  /// (one charged round trip) and stripped — with suspicion — when false.
  void merge_table_hardened(NodeId owner, NodeId source,
                            const AllocationTable& incoming);

  // ---- partition & merge (qip_partition.cpp) ------------------------------
  void merge_scan();
  void absorb_network(NodeId detector, NetworkId loser_id);
  /// Reconciles two reconnected partitions of the same pool (same epoch
  /// nonce): duplicate addresses resolve by freshest record, losing holders
  /// reconfigure, head universes stay in the pool.
  void heal_partition(NodeId detector);
  void isolated_head_recovery(NodeId head);

  // ---- data ---------------------------------------------------------------
  QipParams params_;
  ReliableChannel channel_;
  ClusterView clusters_;
  /// SoA-style slab keyed by dense rank (docs/SCALE.md): O(1) lookup and
  /// contiguous ascending-id scans, replacing a std::map tree walk.
  NodeTable nodes_;
  std::map<std::uint64_t, ConfigTxn> txns_;
  std::map<NodeId, ReclaimTxn> reclaims_;
  /// Cooldown: last time a reclamation for this head was attempted, so a
  /// blocked (minority) reclamation is not retried every failed allocation.
  std::map<NodeId, SimTime> reclaim_attempted_;
  std::uint64_t next_txn_ = 1;
  /// Reused quorum-round scratch: the voting group under construction
  /// (sorted; cleared per round, capacity retained — docs/SCALE.md).
  std::vector<NodeId> round_group_;
  /// The hello tick's head census: one network id per census head, sorted,
  /// so a network's head count is an equal_range (capacity retained).
  std::vector<NetworkId> head_census_;
  std::uint64_t config_failures_ = 0;
  std::uint64_t config_successes_ = 0;
  std::uint64_t reclaims_started_ = 0;
  std::uint64_t reclaims_completed_ = 0;
  std::uint64_t merges_handled_ = 0;
  EventHandle hello_timer_;
  bool hello_running_ = false;
  SwimDetector* detector_ = nullptr;
  std::set<NodeId> quarantined_;
  std::uint64_t quarantines_ = 0;
  std::uint64_t challenges_sent_ = 0;
};

}  // namespace qip
