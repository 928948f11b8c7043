// QipEngine: adversary interpretation and protocol hardening.
//
// Two halves, deliberately in one translation unit so the attack and the
// defense stay reviewable side by side (threat model: docs/ADVERSARY.md):
//
//   * The adversary half *executes* an AdversaryPlan: once per hello tick
//     the engine asks the context's AdversaryController who is attacking
//     and performs the discrete actions (a squat fires once per window, a
//     poison push repeats every tick).  The reactive attacks — false
//     conflict votes, silent defection — live inline in the vote/service
//     handlers and only consult attack_active() here.
//   * The hardening half implements the defenses gated by
//     QipParams::harden: per-round deadlines with suspicion for silent
//     voters, owner-verified demotions against replica poisoning,
//     challenge/ack probing of squatted addresses, and network-wide
//     quarantine once any evidence threshold is crossed.
//
// Everything here is null-gated: with no adversary attached and hardening
// off, the only residue on an honest run is one pointer check per hook —
// runs are byte-identical to a build that never had this file.
//
// Epistemic note: perform_squat() and detect_squats() scan `nodes_`
// directly.  For the attacker that is by design (an attacker cheats; it
// does not run the protocol to learn a victim).  For the detector it models
// hello gossip: a head hears the (address, network id) claims of every node
// within its beacon horizon each interval, which is exactly the knowledge
// detect_squats consumes — reading it from the state map just skips the
// per-beacon bookkeeping the aggregate hello model already elides.
#include <utility>

#include "core/qip_engine.hpp"
#include "fault/adversary.hpp"
#include "net/failure_detector.hpp"
#include "sim/sim_context.hpp"

namespace qip {

// ---------------------------------------------------------------------------
// Adversary plumbing
// ---------------------------------------------------------------------------

AdversaryController* QipEngine::adversary_ctl() const {
  AdversaryController* a = ctx().adversary();
  return (a != nullptr && a->active()) ? a : nullptr;
}

bool QipEngine::attack_active(NodeId id, AttackKind kind) const {
  AdversaryController* a = adversary_ctl();
  return a != nullptr && a->is(id, kind, transport().sim().now());
}

bool QipEngine::serves_probes(NodeId id) const {
  if (!alive(id) || !topology().has_node(id)) return false;
  if (!transport().radio_up(id)) return false;
  const QipNodeState& st = nodes_.at(id);
  if (st.role == Role::kUnconfigured) return false;
  // The defining trait of silent defection: beacons continue, service stops.
  return !attack_active(id, AttackKind::kSilentDefection);
}

void QipEngine::set_failure_detector(SwimDetector* detector) {
  detector_ = detector;
  if (detector_ == nullptr) return;
  detector_->set_responder(
      [this](NodeId target) { return serves_probes(target); });
}

// ---------------------------------------------------------------------------
// Attack execution (driven from hello_tick)
// ---------------------------------------------------------------------------

void QipEngine::run_adversary_tick() {
  AdversaryController* a = adversary_ctl();
  if (a == nullptr) return;
  const SimTime now = sim().now();

  // Squats are discrete: once per (node, window), via the claim_once latch.
  for (NodeId n : a->attackers(AttackKind::kSquat, now)) {
    if (!alive(n) || !topology().has_node(n) || is_quarantined(n)) continue;
    if (a->claim_once(n, AttackKind::kSquat, now)) perform_squat(n);
  }

  // Poison pushes repeat every tick the window is open, mimicking the
  // replica-refresh cadence so the corruption keeps re-arriving even after
  // an honest owner overwrites it.
  for (NodeId n : a->attackers(AttackKind::kReplicaPoison, now)) {
    if (!is_head(n) || !topology().has_node(n) || is_quarantined(n)) continue;
    perform_poison(n);
  }
}

bool QipEngine::perform_squat(NodeId attacker) {
  auto& st = node(attacker);
  // Victim: the lowest address currently held by another placed node —
  // deterministic, and the lowest address is disproportionately often a
  // network id carrier, which maximises the blast radius.
  NodeId victim = kNoNode;
  std::optional<IpAddress> stolen;
  nodes_.for_each([&](NodeId id, const QipNodeState& other) {
    if (id == attacker || !other.ip) return;
    if (other.role == Role::kUnconfigured) return;
    if (!topology().has_node(id)) return;
    // A realistic squatter learned the address from beacons it can hear:
    // the victim must be in the attacker's component (it is also what makes
    // the duplicate observable — cross-component conflicts are legitimate).
    if (!topology().reachable(attacker, id)) return;
    if (!stolen || *other.ip < *stolen) {
      stolen = other.ip;
      victim = id;
    }
  });
  if (!stolen) return false;

  // No quorum round, no allocator, no table update anywhere: the squatter
  // simply starts answering to the victim's address in the victim's
  // network.  The uniqueness auditor sees two holders the moment both are
  // in one component; hardened heads see a claim their tables contradict.
  st.ip = stolen;
  st.network_id = node(victim).network_id;
  if (st.role == Role::kUnconfigured) {
    st.role = Role::kCommonNode;
    st.bootstrap_timer.cancel();
  }
  ++adversary_ctl()->stats().squats;
  if (ctx().tracing_on()) {
    ctx().recorder().instant(sim().now(), "squat", "adversary", attacker,
                             {{"victim", victim}});
  }
  return true;
}

void QipEngine::perform_poison(NodeId attacker) {
  auto& st = node(attacker);
  AdversaryController* a = adversary_ctl();
  for (const auto& [owner, rep] : st.replicas) {
    if (!alive(owner) || !st.qdset.count(owner)) continue;
    ReplicaCopy bad = rep;
    bool corrupted = false;
    for (IpAddress addr : bad.table.known_addresses()) {
      const AddressRecord r = bad.table.get(addr);
      if (r.status != AddressStatus::kAllocated) continue;
      // The owner's own address stays: freeing the record every replica
      // holder can check against a live beacon one hop away would expose
      // the poisoner instantly even unhardened.
      if (r.holder == owner) continue;
      AddressRecord fake = r;
      fake.status = AddressStatus::kFree;
      fake.holder = 0;
      fake.timestamp = r.timestamp + 1000;  // outruns honest freshness wins
      bad.table.install(addr, fake);
      corrupted = true;
    }
    if (!corrupted) continue;
    bad.free_pool = derive_free_pool(bad.universe, bad.table);
    bad.version = rep.version + 1;
    ++a->stats().poisoned_snapshots;
    // Through the same delivery path honest refreshes use: recipients that
    // believe it re-issue addresses still in use.
    push_snapshot(attacker, std::move(bad), Traffic::kMaintenance);
  }
}

// ---------------------------------------------------------------------------
// Squat detection (hardened hello-scan pass)
// ---------------------------------------------------------------------------

void QipEngine::detect_squats(NodeId head) {
  auto& st = node(head);
  nodes_.for_each([&](NodeId id, const QipNodeState& other) {
    if (id == head || !other.ip || is_quarantined(id)) return;
    if (other.role == Role::kUnconfigured) return;
    if (!topology().has_node(id)) return;
    // Only same-network claims within the beacon horizon: cross-network
    // duplicates are legitimate pending merges (§V-C), and a head cannot
    // hear hellos from beyond ch_radius.
    if (!(other.network_id == st.network_id)) return;
    const auto d = topology().hop_distance(head, id);
    if (!d || *d > params_.ch_radius) return;

    const IpAddress addr = *other.ip;
    // What do our authoritative table / replicas bind this address to?
    AddressRecord rec;
    bool known = false;
    if (st.owned_universe.contains(addr)) {
      rec = st.table.get(addr);
      known = true;
    } else {
      for (const auto& [owner, rep] : st.replicas) {
        if (!rep.universe.contains(addr)) continue;
        rec = rep.table.get(addr);
        known = true;
        break;
      }
    }
    if (!known || rec.status != AddressStatus::kAllocated) return;
    const NodeId holder = rec.holder;
    if (holder == id) return;  // the claim matches our record: honest
    // Our record could be the stale side (the claimant reconfigured
    // elsewhere).  Challenge only when the recorded holder still answers
    // for the address — then two live nodes claim it and one is lying.
    if (!alive(holder) || !node(holder).ip || !(*node(holder).ip == addr))
      return;
    challenge_claim(head, id);
  });
}

void QipEngine::challenge_claim(NodeId head, NodeId claimant) {
  auto& st = node(head);
  if (st.challenge_timers.count(claimant)) return;  // one in flight per peer

  const bool sent = send(
      head, claimant, QipMsg::kAddrChallenge, Traffic::kMaintenance, 0,
      [this, head, claimant](std::uint64_t) {
        if (!alive(claimant)) return;
        // An honest claimant proves its claim by echoing its configurer's
        // endorsement.  A squatter has none to echo; a silent defector
        // does not serve challenges.  Both stay silent.
        if (attack_active(claimant, AttackKind::kSquat) ||
            attack_active(claimant, AttackKind::kSilentDefection)) {
          if (AdversaryController* a = adversary_ctl())
            ++a->stats().dropped_services;
          return;
        }
        send(claimant, head, QipMsg::kChallengeAck, Traffic::kMaintenance, 0,
             [this, head, claimant](std::uint64_t) {
               if (!alive(head)) return;
               auto& s = node(head);
               auto it = s.challenge_timers.find(claimant);
               if (it == s.challenge_timers.end()) return;
               it->second.cancel();
               s.challenge_timers.erase(it);
             });
      });
  if (!sent) return;  // unreachable: the liveness machinery's business

  ++challenges_sent_;
  // Delivery is strictly asynchronous (>= 2 hop delays round trip), so the
  // ack can never race arming this deadline.
  st.challenge_timers[claimant] =
      sim().after(params_.harden.challenge_timeout, [this, head, claimant] {
        if (!alive(head)) return;
        auto& s = node(head);
        if (s.challenge_timers.erase(claimant) == 0) return;
        quarantine(head, claimant, "unanswered_challenge");
      });
}

// ---------------------------------------------------------------------------
// Suspicion and quarantine
// ---------------------------------------------------------------------------

void QipEngine::add_suspicion(NodeId accuser, NodeId peer, const char* why) {
  if (!harden_on()) return;
  if (!alive(accuser) || peer == kNoNode || is_quarantined(peer)) return;
  auto& st = node(accuser);
  const std::uint32_t points = ++st.suspicion[peer];
  if (points >= params_.harden.suspicion_threshold)
    quarantine(accuser, peer, why);
}

void QipEngine::quarantine(NodeId accuser, NodeId culprit, const char* why) {
  if (!harden_on()) return;
  if (culprit == kNoNode || is_quarantined(culprit)) return;

  quarantined_.insert(culprit);
  ++quarantines_;
  if (ctx().tracing_on()) {
    ctx().recorder().instant(sim().now(), "quarantine", "adversary", accuser,
                             {{"culprit", culprit}, {"why", why}});
  }

  // Revocation broadcast: the expulsion must reach every honest node, or
  // quorum groups would disagree on who may vote.  Charged like any flood.
  transport().flood_component_view(accuser, Traffic::kMaintenance,
                              [](NodeId, std::uint32_t) {});

  // The culprit keeps running (it is an attacker, not a crash), but the
  // honest network stops seeing it: out of the cluster map, out of every
  // future voting group and watch-list, audited in its own domain.
  clusters_.remove(culprit);
  if (detector_) detector_->forget(culprit);
  nodes_.for_each(
      [&](NodeId, QipNodeState& s) { s.suspicion.erase(culprit); });
}

// ---------------------------------------------------------------------------
// Hardened round deadline
// ---------------------------------------------------------------------------

void QipEngine::harden_round_expired(std::uint64_t txn_id,
                                     std::uint32_t round) {
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  ConfigTxn& txn = it->second;
  if (!txn.round_open || txn.round != round) return;
  txn.round_open = false;

  // Close the round *before* charging suspicion: bumping the round makes
  // handle_vote drop any straggler CFM for the expired round (it would
  // otherwise decrement an already-zeroed outstanding count).
  ++txn.round;

  for (NodeId v : txn.voters) {
    if (txn.responded.count(v)) continue;
    // A voter the oracle itself cannot reach stalled the round honestly
    // (drift, crash); only reachable-but-silent earns suspicion.
    if (!alive(v) || !topology().has_node(v) ||
        !topology().reachable(txn.allocator, v))
      continue;
    add_suspicion(txn.allocator, v, "vote_silence");
  }

  txn.outstanding = 0;
  // Retry through the ordinary failure path: conflict if any veto arrived,
  // else the busy/backoff route (bounded by max_busy_retries).
  round_failed(txn, txn.conflicts > 0);
}

// ---------------------------------------------------------------------------
// Hardened owner-side merge (anti-poison)
// ---------------------------------------------------------------------------

void QipEngine::merge_table_hardened(NodeId owner, NodeId source,
                                     const AllocationTable& incoming) {
  auto& st = node(owner);
  for (IpAddress a : incoming.known_addresses()) {
    const AddressRecord theirs = incoming.get(a);
    const AddressRecord ours = st.table.get(a);
    if (theirs.timestamp <= ours.timestamp) continue;
    const bool demotes = ours.status == AddressStatus::kAllocated &&
                         theirs.status != AddressStatus::kAllocated;
    if (demotes) {
      // Verify with the recorded holder before believing a non-owner
      // demotion of our own record: one charged round trip.  A holder that
      // still answers for the address exposes the demotion as a lie.
      const NodeId holder = ours.holder;
      if (holder != kNoNode && alive(holder) && topology().has_node(holder) &&
          topology().reachable(owner, holder)) {
        if (const auto d = topology().hop_distance(owner, holder))
          transport().stats().record(Traffic::kMaintenance, 2ULL * *d, 2);
        if (node(holder).ip && *node(holder).ip == a) {
          add_suspicion(owner, source, "false_demotion");
          continue;
        }
      }
    }
    st.table.install(a, theirs);
  }
}

}  // namespace qip
