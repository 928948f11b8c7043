// Shared value types of the QIP engine: wire-message kinds (for tracing),
// replica copies, and in-flight transaction state.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "addr/address_block.hpp"
#include "addr/allocation_table.hpp"
#include "addr/ip_address.hpp"
#include "net/node_id.hpp"
#include "sim/event_queue.hpp"

namespace qip {

/// Message vocabulary of §IV/§V (plus the replica-exchange messages the
/// protocol description implies).  Used for traces and the Table-1 bench.
enum class QipMsg : std::uint8_t {
  kHello,
  kComReq,    ///< common node requests an address
  kComCfg,    ///< allocator configures common node
  kComAck,
  kChReq,     ///< entering node requests a cluster-head block
  kChPrp,     ///< allocator proposes a block
  kChCnf,     ///< requestor confirms the proposal
  kChCfg,     ///< allocator hands over the block
  kChAck,
  kQuorumClt, ///< read-round vote collection (doubles as lock acquire)
  kQuorumCfm, ///< vote: grant / busy / conflict
  kQuorumUpd, ///< write-round replica update (doubles as lock release)
  kQuorumRel, ///< abort-path lock release
  kQdJoin,    ///< new head distributes its replica to a QDSet member
  kQdWelcome, ///< QDSet member replies with its own replica
  kUpdateLoc,
  kReturnAddr,
  kReturnAck,
  kBlockReturn,
  kResign,      ///< departing head leaves its QDSet memberships
  kAllocChange, ///< new allocator informs adopted members
  kAddrRec,
  kRecRep,
  kRepReq,    ///< liveness probe before reclaiming a head
  kRepAck,
  kReclaimDone,
  kMergePoll, ///< merge coordination after partition detection
  kAddrChallenge, ///< hardened mode: prove ownership of a claimed address
  kChallengeAck,  ///< claimant's reply carrying its configurer's endorsement
};

const char* to_string(QipMsg m);

/// A copy of another cluster head's IP state, kept by its QDSet members
/// (§II-C: "storing a physical copy of an allocator's IP space at its
/// adjacent cluster heads").
struct ReplicaCopy {
  NodeId owner = kNoNode;
  /// Addresses the owner is responsible for.
  AddressBlock universe;
  /// Mirror of the owner's free pool (its IPSpace).
  AddressBlock free_pool;
  /// Per-address records with timestamps.
  AllocationTable table;
  /// Owner's version at last refresh.
  std::uint64_t version = 0;
  /// The owner's QDSet as of the last refresh — identifies the other voters
  /// for addresses in this universe.
  std::set<NodeId> owner_qdset;
};

/// Identity of a logical network (§V-C).  The paper uses the lowest IP in
/// the network; two networks bootstrapped independently both start at the
/// pool base, so a creation nonce disambiguates them.  Merge arbitration
/// picks the smallest (low, nonce) pair.
struct NetworkId {
  IpAddress low{};
  std::uint64_t nonce = 0;

  friend auto operator<=>(const NetworkId&, const NetworkId&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const NetworkId& id) {
  return os << id.low << '#' << (id.nonce & 0xffff);
}

/// Free pool derived from a universe and its allocation table: every address
/// without an allocated record.
inline AddressBlock derive_free_pool(const AddressBlock& universe,
                                     const AllocationTable& table) {
  return universe.minus(table.allocated_block());
}

/// A quorum vote (§II-C implements mutual exclusion: a vote is a permission
/// the voter holds for one transaction at a time).
enum class Vote : std::uint8_t {
  kGrant = 0,    ///< record free, permission granted
  kBusy = 1,     ///< another transaction holds this voter's permission
  kConflict = 2, ///< voter's replica says the proposal is already allocated
};

/// In-flight configuration of one requestor, coordinated by its allocator.
struct ConfigTxn {
  std::uint64_t id = 0;
  /// Vote round within the transaction; stale-round votes are ignored.
  std::uint32_t round = 0;
  NodeId requestor = kNoNode;
  NodeId allocator = kNoNode;
  bool for_cluster_head = false;

  /// Proposal under vote: a single address (common node) or a block (new
  /// cluster head).
  IpAddress proposed{};
  AddressBlock proposed_block;
  /// Head whose IPSpace owns the proposal (== allocator except when
  /// borrowing from QuorumSpace, §V-A).
  NodeId owner = kNoNode;

  /// Copy-holders of the owner's space this round: owner + owner_qdset.
  std::uint32_t group_size = 0;
  std::vector<NodeId> voters;  ///< CLT recipients this round
  std::uint32_t confirms = 0;
  std::uint32_t busy = 0;
  std::uint32_t conflicts = 0;
  std::uint32_t outstanding = 0;
  /// Dynamic linear voting (§II-D): the distinguished copy is held by the
  /// group's lowest-id member — one deterministic rule shared by
  /// allocation, quorum-set view changes and reclamation, so two
  /// exactly-half sides can never both act.  (The paper nominates the
  /// owner's copy; the lowest-id member behaves identically except in
  /// two-member groups, where the owner's rule would deadlock against
  /// reclamation — see DESIGN.md.)
  NodeId distinguished = kNoNode;
  /// True once the distinguished copy is among the counted confirmations
  /// (immediately, when the allocator holds it).
  bool distinguished_ok = false;
  std::uint64_t latest_ts = 0;
  /// Voters currently holding our permission (released by UPD or REL).
  std::set<NodeId> granted;

  /// Critical-path hop accounting: hops accumulated before this round, and
  /// the cumulative hops when the quorum completed.
  std::uint64_t base_hops = 0;
  std::uint64_t commit_hops = 0;

  std::uint32_t attempt = 0;       ///< distinct proposals tried
  std::uint32_t busy_retries = 0;  ///< rounds abandoned to lock contention
  EventHandle retry_timer;

  /// Hardened mode (docs/ADVERSARY.md): voters that answered this round
  /// (any vote counts — suspicion attaches to silence, not dissent), which
  /// of them vetoed with kConflict (checked against the owner's own table
  /// when the round fails), and the per-round deadline that closes a
  /// stalled round early.  All empty/inert when hardening is off.
  std::set<NodeId> responded;
  std::set<NodeId> conflict_voters;
  EventHandle round_timer;
  bool round_open = false;

  /// Observability: open trace-span ids (0 = none) and the outcome label the
  /// transaction span closes with.  Written only behind ctx().tracing_on().
  std::uint64_t obs_span = 0;        ///< "config_txn" parent span
  std::uint64_t obs_round_span = 0;  ///< current "quorum_round" child span
  const char* obs_outcome = "handoff";
};

/// Reclamation of a vanished cluster head's address space (§IV-D).
struct ReclaimTxn {
  NodeId dead_head = kNoNode;
  NodeId initiator = kNoNode;
  /// address -> surviving holder that claimed it via REC_REP.
  std::map<IpAddress, NodeId> claims;
  EventHandle settle_timer;
  /// Observability: open "reclamation" trace-span id (0 = none).
  std::uint64_t obs_span = 0;
};

}  // namespace qip
