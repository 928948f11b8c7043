// Tunable parameters of the QIP protocol (§IV–§V).
//
// Defaults follow the paper where it gives values (cluster-head rule: no
// head within two hops; QDSet: adjacent heads within three hops; location
// update beyond three hops; replica floor |QDSet| >= 3) and sensible
// simulation constants where it does not (timer durations).
#pragma once

#include <cstdint>

#include "addr/ip_address.hpp"
#include "quorum/quorum_policy.hpp"
#include "sim/event_queue.hpp"

namespace qip {

struct QipParams {
  /// Total number of addresses in the network's pool.
  std::uint64_t pool_size = 1024;
  /// First address of the pool.
  IpAddress pool_base = kPoolBase;

  /// A new node becomes a common node iff a cluster head exists within this
  /// many hops (§II-B: "within two hops"); otherwise it becomes a head.
  std::uint32_t ch_radius = 2;

  /// QDSet membership radius: adjacent cluster heads within this many hops
  /// (§IV-A: "within three hops").
  std::uint32_t qdset_radius = 3;

  /// A common node sends UPDATE_LOC when it drifts more than this many hops
  /// from its configurer/administrator (§IV-C.1).
  std::uint32_t update_threshold = 3;

  /// Replica floor: heads recruit more QDSet members below this (§V-B).
  std::uint32_t min_qdset = 3;

  /// Hello beacon period, seconds (§IV-B).
  SimTime hello_interval = 1.0;

  /// First-node bootstrap: wait T_e between request broadcasts, give up and
  /// self-elect after max_r tries (§IV-B).  T_e is generous so a node that
  /// merely drifted out of range does not mint a second full pool.
  SimTime te = 1.0;
  std::uint32_t max_r = 3;

  /// Requestor-side retries after a failed configuration, and the backoff
  /// between them.
  std::uint32_t max_entry_retries = 5;
  SimTime entry_retry_backoff = 1.0;

  /// Quorum adjustment: T_d before shrinking the quorum set around an
  /// uncontactable head, then T_r for its REP_REQ liveness probe (§V-B).
  SimTime td = 2.0;
  SimTime tr = 2.0;

  /// Wait for REC_REP claims to arrive before closing a reclamation (s).
  SimTime reclaim_settle = 1.0;

  /// Reclamation probes each recorded-but-unclaimed holder before declaring
  /// its address vacant (a member may sit beyond the ADDR_REC flood).  The
  /// paper's protocol frees unclaimed addresses outright — cheaper, but it
  /// can re-issue a live node's address; the duplicate then persists until
  /// a partition-heal reconciliation notices it.
  bool reclaim_probe = true;

  /// ADDR_REC flood radius in hops.  §VI-E: "address reclamation is realized
  /// locally for our protocol" — the dead head's members live near where it
  /// served, so a scoped flood suffices (vs. [3]'s root-driven global one).
  std::uint32_t reclaim_radius = 3;

  /// Voter-side permission expiry: a granted vote auto-releases after this
  /// long so a dead allocator cannot wedge a space (s).
  SimTime lock_timeout = 1.0;

  /// Overall deadline for one configuration transaction (s).
  SimTime txn_timeout = 10.0;

  /// Backoff before retrying a round that lost to lock contention (s), and
  /// how many such retries are tolerated before the request fails.
  SimTime busy_backoff = 0.2;
  std::uint32_t max_busy_retries = 10;

  /// Distinct proposed addresses an allocator will try before giving up on
  /// one configuration request.
  std::uint32_t max_config_attempts = 8;

  /// Consecutive hello scans a head must see no other head before declaring
  /// itself isolated and restarting as a fresh network (§V-C).  Generous by
  /// default: mobility causes frequent transient disconnections.
  std::uint32_t isolation_patience = 10;

  /// §IV-C.1: periodic location updates (true) or the lighter upon-leave
  /// update scheme (false).  Figures 10/11 compare the two.
  bool periodic_location_update = true;

  /// §IV-B alternative: pick the neighborhood allocator with the largest
  /// available block rather than the nearest one.
  bool pick_largest_block = false;

  /// Quorum backend for every quorum-critical decision (vote tallying,
  /// maintenance quorate checks, hardened veto cross-checks).  kDynamicLinear
  /// is §II-D's rule — dynamic linear voting with the address owner as
  /// distinguished node; kMajority is the strict-majority fallback the
  /// figures compare against (docs/QUORUM.md).
  QuorumBackend quorum = QuorumBackend::kDynamicLinear;

  /// §V-A address borrowing from QuorumSpace (false = IPSpace only, with
  /// agent forwarding as the sole fallback — the ablation bench measures
  /// what borrowing buys).
  bool enable_borrowing = true;

  /// Hello cross-checking: a node that hears a same-network neighbor claim
  /// its own address — or a head that hears a claim its table binds to a
  /// different holder, or overlaps universes with a same-network head —
  /// runs the component-wide freshness reconciliation of a heal (§V-C
  /// resolves conflicts at contact).  Off by default: the paper's reliable
  /// model leaves such reclamation-reissue races to settle through the
  /// ordinary merge machinery, and the figure benches reproduce those exact
  /// message flows.  Fault experiments turn it on, because lost REC_REP /
  /// replica-sync messages make stranded-holder conflicts common enough to
  /// need active repair.
  bool heal_on_conflict_evidence = false;

  /// Quorum-critical RPCs (lock/vote/commit, replica sync, REP_REQ, config
  /// handshakes) ride the ack+retransmit ReliableChannel.  The channel only
  /// engages while the transport's fault plan is active — under the paper's
  /// reliable model it is a zero-overhead pass-through — so this knob
  /// matters only to fault experiments (the ablation: what does reliability
  /// buy under loss?).  HELLO beacons and floods always stay best-effort.
  bool reliable_rpcs = true;

  /// ReliableChannel tuning: first ack deadline, per-retry backoff factor,
  /// and retransmissions after the initial attempt.  The defaults retire a
  /// message in ~2.5 s worst case, well inside txn_timeout.
  SimTime rpc_retry_timeout = 0.08;
  double rpc_retry_backoff = 2.0;
  std::uint32_t rpc_max_retries = 5;

  /// Adversary hardening (docs/ADVERSARY.md).  Off by default: honest runs
  /// do see stalled quorum rounds (a voter drifting out of range mid-round
  /// leaves the CFM undeliverable until txn_timeout), so the hardened round
  /// timer would fire — and perturb message flows — in every figure bench.
  /// The adversary tests and ablation_adversary enable it explicitly.
  struct HardenParams {
    bool enabled = false;
    /// Hardened per-round deadline: a quorum round whose votes have not all
    /// arrived by then is closed early, non-responders gain suspicion, and
    /// the round retries through the ordinary busy-backoff path.
    SimTime round_timeout = 2.0;
    /// Suspicion points a peer accumulates before being quarantined.
    /// Service suspicion (unanswered quorum votes, timed-out challenges)
    /// and conflict suspicion (vetoes contradicting the owner's own table)
    /// are tallied separately per accuser but share this threshold.
    std::uint32_t suspicion_threshold = 3;
    /// Deadline for a kChallengeAck after a head challenges an address
    /// claim that contradicts its table (squat detection).
    SimTime challenge_timeout = 2.0;
  };
  HardenParams harden;
};

}  // namespace qip
