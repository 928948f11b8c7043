// QipEngine: construction, node entry, configuration transactions, quorum
// voting, and commit.  Departure, maintenance, and partition handling live
// in their own translation units.
#include "core/qip_engine.hpp"

#include <algorithm>
#include <memory>

#include "fault/adversary.hpp"
#include "sim/sim_context.hpp"

namespace qip {

namespace {
const char* vote_label(Vote v) {
  switch (v) {
    case Vote::kGrant: return "grant";
    case Vote::kBusy: return "busy";
    case Vote::kConflict: return "conflict";
  }
  return "?";
}

/// Closes the transaction's open "quorum_round" span, if any.  Safe to call
/// on every resolution path: a round that never opened a span (tracing off,
/// or failed before forming a group) is a no-op.
void obs_close_round(obs::TraceRecorder& rec, double now, ConfigTxn& txn,
                     const char* result) {
  if (txn.obs_round_span == 0) return;
  rec.end_span(
      now, txn.obs_round_span, "quorum_round", "qip", txn.allocator,
      {{"result", result},
       {"confirms", txn.confirms},
       {"busy", txn.busy},
       {"conflicts", txn.conflicts}});
  txn.obs_round_span = 0;
}
}  // namespace

const char* to_string(QipMsg m) {
  switch (m) {
    case QipMsg::kHello: return "HELLO";
    case QipMsg::kComReq: return "COM_REQ";
    case QipMsg::kComCfg: return "COM_CFG";
    case QipMsg::kComAck: return "COM_ACK";
    case QipMsg::kChReq: return "CH_REQ";
    case QipMsg::kChPrp: return "CH_PRP";
    case QipMsg::kChCnf: return "CH_CNF";
    case QipMsg::kChCfg: return "CH_CFG";
    case QipMsg::kChAck: return "CH_ACK";
    case QipMsg::kQuorumClt: return "QUORUM_CLT";
    case QipMsg::kQuorumCfm: return "QUORUM_CFM";
    case QipMsg::kQuorumUpd: return "QUORUM_UPD";
    case QipMsg::kQuorumRel: return "QUORUM_REL";
    case QipMsg::kQdJoin: return "QD_JOIN";
    case QipMsg::kQdWelcome: return "QD_WELCOME";
    case QipMsg::kUpdateLoc: return "UPDATE_LOC";
    case QipMsg::kReturnAddr: return "RETURN_ADDR";
    case QipMsg::kReturnAck: return "RETURN_ACK";
    case QipMsg::kBlockReturn: return "BLOCK_RETURN";
    case QipMsg::kResign: return "RESIGN";
    case QipMsg::kAllocChange: return "ALLOC_CHANGE";
    case QipMsg::kAddrRec: return "ADDR_REC";
    case QipMsg::kRecRep: return "REC_REP";
    case QipMsg::kRepReq: return "REP_REQ";
    case QipMsg::kRepAck: return "REP_ACK";
    case QipMsg::kReclaimDone: return "RECLAIM_DONE";
    case QipMsg::kMergePoll: return "MERGE_POLL";
    case QipMsg::kAddrChallenge: return "ADDR_CHALLENGE";
    case QipMsg::kChallengeAck: return "CHALLENGE_ACK";
  }
  return "?";
}

QipEngine::QipEngine(Transport& transport, Rng& rng, QipParams params)
    : AutoconfProtocol(transport, rng),
      params_(params),
      channel_(transport, ReliableParams{params.rpc_retry_timeout,
                                         params.rpc_retry_backoff,
                                         params.rpc_max_retries}),
      clusters_(transport.topology()) {
  QIP_ASSERT(params_.pool_size >= 4);
  channel_.set_enabled(params_.reliable_rpcs);
}

bool QipEngine::quorum_critical(QipMsg m) {
  switch (m) {
    case QipMsg::kQuorumClt:   // lock acquire / read round
    case QipMsg::kQuorumCfm:   // vote
    case QipMsg::kQuorumUpd:   // commit / write round
    case QipMsg::kQuorumRel:   // abort-path release
    case QipMsg::kQdJoin:      // replica sync
    case QipMsg::kQdWelcome:
    case QipMsg::kRepReq:      // liveness probe gating reclamation
    case QipMsg::kRepAck:
    case QipMsg::kReclaimDone:
    case QipMsg::kComCfg:      // configuration handover
    case QipMsg::kComAck:
    case QipMsg::kChPrp:
    case QipMsg::kChCnf:
    case QipMsg::kChCfg:
    case QipMsg::kChAck:
    case QipMsg::kReturnAddr:  // departure: losing one leaks an address
    case QipMsg::kReturnAck:
    case QipMsg::kBlockReturn:
    case QipMsg::kResign:
    case QipMsg::kAllocChange:
      return true;
    case QipMsg::kHello:       // periodic — the next beacon retries for free
    case QipMsg::kComReq:      // entry retries cover these
    case QipMsg::kChReq:
    case QipMsg::kUpdateLoc:   // soft state, refreshed every scan
    case QipMsg::kAddrRec:     // flood-borne
    case QipMsg::kRecRep:      // reclamation probes unclaimed holders anyway
    case QipMsg::kMergePoll:   // periodic merge scan
    case QipMsg::kAddrChallenge:  // challenge timeout IS the signal; an
    case QipMsg::kChallengeAck:   // acked retry would mask real silence
      return false;
  }
  return false;
}

std::uint64_t QipEngine::audit_domain(NodeId id) const {
  const QipNodeState* st = nodes_.find(id);
  if (st == nullptr) return 0;
  // A quarantined peer was expelled by the hardened protocol: the network
  // revoked its claim, so whatever address it keeps squatting on no longer
  // collides *as far as the protocol's service is concerned*.  A per-node
  // domain models that expulsion for the uniqueness audit.
  if (quarantined_.count(id) != 0) {
    return 0xAD5E'0000'0000'0000ULL ^ static_cast<std::uint64_t>(id);
  }
  const NetworkId& nid = st->network_id;
  // Two healed partitions share a nonce but disagree on the low address
  // until the merge resolves, so both fields feed the tag.
  return (static_cast<std::uint64_t>(nid.low.value()) << 32) ^
         (nid.nonce * 0x9e3779b97f4a7c15ULL);
}

QipEngine::~QipEngine() {
  hello_timer_.cancel();
  nodes_.for_each([](NodeId, QipNodeState& st) { st.cancel_timers(); });
  for (auto& [id, txn] : txns_) {
    txn.retry_timer.cancel();
    txn.round_timer.cancel();
  }
  for (auto& [id, rec] : reclaims_) rec.settle_timer.cancel();
}

QipNodeState& QipEngine::node(NodeId id) { return nodes_.at(id); }

const QipNodeState& QipEngine::node(NodeId id) const { return nodes_.at(id); }

const QipNodeState& QipEngine::state_of(NodeId id) const { return node(id); }

QipEngine::MsgDetail::MsgDetail(IpAddress addr) {
  args[0] = {"addr", addr.value()};
}

QipEngine::MsgDetail::MsgDetail(const AddressBlock& block) {
  if (!block.empty()) {
    args[0] = {"lo", block.lowest().value()};
    args[1] = {"hi", block.highest().value()};
  }
  args[2] = {"ranges", static_cast<std::uint64_t>(block.ranges().size())};
}

QipEngine::MsgDetail::MsgDetail(Vote vote) {
  args[0] = {"vote", vote_label(vote)};
}

QipEngine::MsgDetail::MsgDetail(const char* reason) {
  args[0] = {"reason", reason};
}

void QipEngine::trace(QipMsg msg, NodeId from, NodeId to, std::uint32_t hops,
                      const MsgDetail& detail) {
  // Every protocol message is one instant named in the paper's message
  // vocabulary, so `qip-trace summary` reports the same mix Table 1 does,
  // and Table 1 prints its details.
  if (!ctx().tracing_on()) return;
  ctx().recorder().instant(sim().now(), to_string(msg), "qip", from,
                           {{"to", to}, {"hops", hops}, detail.args[0],
                            detail.args[1], detail.args[2]});
}

// ---------------------------------------------------------------------------
// Entry
// ---------------------------------------------------------------------------

void QipEngine::node_entered(NodeId id) {
  QIP_ASSERT_MSG(topology().has_node(id), "node " << id << " not placed");
  auto [st, fresh] = nodes_.ensure(id);
  if (!fresh) {
    // Re-entry (merge rejoin): reset to unconfigured, keep the slot.
    st.cancel_timers();
    st = QipNodeState{};
    clusters_.remove(id);
  }
  auto& rec = record_for(id);
  rec = ConfigRecord{};
  rec.requested_at = sim().now();
  start_configuration(id);
}

void QipEngine::start_configuration(NodeId id) {
  if (!alive(id) || !topology().has_node(id)) return;
  auto& st = node(id);
  if (st.role != Role::kUnconfigured) return;
  st.last_entry_attempt = sim().now();

  // A crashed radio can neither request nor bootstrap-broadcast, yet it may
  // still *see* nearby heads — without this park the entry flow would cycle
  // start_configuration -> (sends fail) -> bootstrap_attempt -> (head
  // visible) -> start_configuration forever at one instant.  Stay
  // unconfigured; the hello rescue scan retries after recovery.
  if (!transport().radio_up(id)) return;

  // §IV-B: join as a common node when a head is within ch_radius hops; the
  // entering node learns nearby heads from their periodic hello messages.
  std::uint64_t extra_hops = 0;
  if (auto allocator = choose_common_allocator(id, extra_hops)) {
    const PendingRequest req{id, /*for_cluster_head=*/false, extra_hops};
    if (send(id, *allocator, QipMsg::kComReq, Traffic::kConfiguration,
             extra_hops,
             [this, a = *allocator, req](std::uint64_t h) {
               PendingRequest r = req;
               r.hops_base = h;
               enqueue_request(a, r);
             })) {
      return;
    }
  }

  // No head within two hops: ask the nearest head anywhere for a block.
  if (auto nearest = clusters_.nearest_head(id)) {
    const PendingRequest req{id, /*for_cluster_head=*/true, 0};
    if (send(id, *nearest, QipMsg::kChReq, Traffic::kConfiguration, 0,
             [this, a = *nearest, req](std::uint64_t h) {
               PendingRequest r = req;
               r.hops_base = h;
               enqueue_request(a, r);
             })) {
      return;
    }
  }

  // No configured network reachable: bootstrap as the first node (§IV-B).
  begin_bootstrap(id);
}

std::optional<NodeId> QipEngine::choose_common_allocator(
    NodeId requestor, std::uint64_t& extra_hops) {
  auto heads = clusters_.heads_within(requestor, params_.ch_radius);
  std::erase_if(heads,
                [&](NodeId h) { return !alive(h) || is_quarantined(h); });
  if (heads.empty()) return std::nullopt;
  if (!params_.pick_largest_block || heads.size() == 1) {
    return heads.front();  // nearest (heads_within sorts by distance)
  }
  // §IV-B alternative: poll each candidate for its available block size and
  // pick the largest.  The poll costs one request/reply pair per candidate.
  NodeId best = heads.front();
  std::uint64_t best_size = 0;
  std::uint64_t max_rtt = 0;
  for (NodeId h : heads) {
    const auto d = topology().hop_distance(requestor, h);
    if (!d) continue;
    transport().stats().record(Traffic::kConfiguration, 2ULL * *d, 2);
    max_rtt = std::max<std::uint64_t>(max_rtt, 2ULL * *d);
    const std::uint64_t size = node(h).visible_free();
    if (size > best_size || (size == best_size && h < best)) {
      best = h;
      best_size = size;
    }
  }
  extra_hops = max_rtt;  // polls run in parallel; slowest reply gates
  return best;
}

// ---------------------------------------------------------------------------
// Bootstrap (first node in an empty network)
// ---------------------------------------------------------------------------

void QipEngine::begin_bootstrap(NodeId id) {
  auto& st = node(id);
  st.bootstrap_tries = 0;
  bootstrap_attempt(id);
}

void QipEngine::bootstrap_attempt(NodeId id) {
  if (!alive(id) || !topology().has_node(id)) return;
  auto& st = node(id);
  if (st.role != Role::kUnconfigured) return;
  if (!transport().radio_up(id)) {
    // Radio crashed while the retry timer was pending: park (see
    // start_configuration) instead of burning retries into become_first_head.
    st.last_entry_attempt = sim().now();
    return;
  }

  // A head may have appeared (another bootstrapper won, or we moved into a
  // configured network): fall back to normal configuration.
  if (clusters_.nearest_head(id) ||
      !clusters_.heads_within(id, params_.ch_radius).empty()) {
    start_configuration(id);
    return;
  }

  if (st.bootstrap_tries >= params_.max_r) {
    become_first_head(id);
    return;
  }
  ++st.bootstrap_tries;
  // One broadcast transmission asking for a configured neighbor.
  transport().stats().record(Traffic::kConfiguration, 1);
  trace(QipMsg::kComReq, id, kNoNode, 1, "bootstrap broadcast");
  st.bootstrap_timer =
      sim().after(params_.te, [this, id] { bootstrap_attempt(id); });
}

void QipEngine::become_first_head(NodeId id) {
  auto& st = node(id);
  QIP_ASSERT(st.role == Role::kUnconfigured);
  st.role = Role::kClusterHead;
  st.owned_universe =
      AddressBlock::contiguous(params_.pool_base, params_.pool_size);
  st.ip_space = st.owned_universe;
  const IpAddress self_ip = st.ip_space.pop_lowest();
  st.ip = self_ip;
  st.table.commit_allocate(self_ip, id, 0);
  st.version = 1;
  st.network_id = NetworkId{self_ip, rng().next()};
  st.configurer = id;
  clusters_.set_head(id);

  auto& rec = record_for(id);
  rec.success = true;
  rec.address = self_ip;
  rec.latency_hops = params_.max_r;  // the unanswered request broadcasts
  rec.attempts = params_.max_r;
  rec.completed_at = sim().now();
  ++config_successes_;
  if (ctx().tracing_on()) {
    ctx().recorder().instant(
        sim().now(), "head_elected", "cluster", id,
        {{"first", std::uint32_t{1}},
         {"universe", static_cast<std::uint64_t>(st.owned_universe.size())}});
  }
}

// ---------------------------------------------------------------------------
// Request queueing (one transaction per allocator at a time)
// ---------------------------------------------------------------------------

void QipEngine::enqueue_request(NodeId allocator, PendingRequest req) {
  if (!alive(allocator)) return;
  // Silent defection: the attacker head accepts the request and drops it on
  // the floor.  The requestor's own retries (and eventually the rescue
  // scan) route around it; hardened mode additionally quarantines the head
  // once the failure detector catches its dropped probe service.
  if (attack_active(allocator, AttackKind::kSilentDefection)) {
    ++adversary_ctl()->stats().dropped_services;
    return;
  }
  auto& st = node(allocator);
  if (st.role != Role::kClusterHead) {
    // The chosen allocator demoted/dissolved meanwhile; let the requestor
    // pick again.
    if (alive(req.requestor)) {
      sim().post(params_.busy_backoff,
                  [this, r = req.requestor] { start_configuration(r); });
    }
    return;
  }
  st.pending.push_back(req);
  pump_pending(allocator);
}

void QipEngine::pump_pending(NodeId allocator) {
  if (!alive(allocator)) return;
  auto& st = node(allocator);
  if (st.active_txn != 0 || st.pending.empty()) return;
  const PendingRequest req = st.pending.front();
  st.pending.erase(st.pending.begin());
  if (!alive(req.requestor) || !topology().has_node(req.requestor)) {
    pump_pending(allocator);
    return;
  }
  begin_txn(allocator, req);
}

void QipEngine::begin_txn(NodeId allocator, const PendingRequest& req) {
  auto& st = node(allocator);
  const std::uint64_t id = next_txn_++;
  ConfigTxn txn;
  txn.id = id;
  txn.requestor = req.requestor;
  txn.allocator = allocator;
  txn.for_cluster_head = req.for_cluster_head;
  txn.base_hops = req.hops_base;
  st.active_txn = id;
  auto [it, inserted] = txns_.emplace(id, std::move(txn));
  QIP_ASSERT(inserted);
  ConfigTxn& t = it->second;

  if (ctx().tracing_on()) {
    t.obs_span = ctx().recorder().begin_span(
        sim().now(), "config_txn", "qip", allocator,
        {{"txn", id},
         {"requestor", req.requestor},
         {"for_head", static_cast<std::uint32_t>(req.for_cluster_head)}});
  }

  // Overall transaction deadline: if the exchange wedges (requestor died
  // mid-handshake, voters unreachable), fail and move on.
  t.retry_timer = sim().after(params_.txn_timeout, [this, id] {
    auto it = txns_.find(id);
    if (it != txns_.end()) finish_config_failure(it->second);
  });

  bool blocked = false;
  if (!propose_next(t, &blocked)) {
    if (blocked) {
      // A remote borrower holds our space; wait for its release rather than
      // burning an agent hop or failing.  Re-queue at the front and retry
      // after a backoff (lock releases also pump the queue).
      t.retry_timer.cancel();
      st.active_txn = 0;
      txns_.erase(id);
      st.pending.insert(st.pending.begin(), req);
      sim().post(params_.busy_backoff,
                  [this, allocator] { pump_pending(allocator); });
      return;
    }
    if (!agent_forward(t)) finish_config_failure(t);
    return;
  }

  if (t.for_cluster_head) {
    // Table 1 handshake: CH_PRP down, CH_CNF back, then quorum collection.
    const AddressBlock prp = t.proposed_block;
    if (!send(allocator, t.requestor, QipMsg::kChPrp, Traffic::kConfiguration,
              t.base_hops,
              [this, id, allocator](std::uint64_t h1) {
                auto it = txns_.find(id);
                if (it == txns_.end()) return;
                const NodeId requestor = it->second.requestor;
                if (!send(requestor, allocator, QipMsg::kChCnf,
                          Traffic::kConfiguration, h1,
                          [this, id](std::uint64_t h2) {
                            auto it2 = txns_.find(id);
                            if (it2 == txns_.end()) return;
                            it2->second.base_hops = h2;
                            start_quorum_round(it2->second);
                          })) {
                  finish_config_failure(it->second);
                }
              },
              prp)) {
      finish_config_failure(t);
    }
    return;
  }
  start_quorum_round(t);
}

// ---------------------------------------------------------------------------
// Proposal selection (IPSpace first, then QuorumSpace borrowing, §V-A)
// ---------------------------------------------------------------------------

bool QipEngine::propose_next(ConfigTxn& txn, bool* blocked_by_lock) {
  auto& a = node(txn.allocator);
  if (blocked_by_lock) *blocked_by_lock = false;
  if (txn.attempt >= params_.max_config_attempts) return false;

  auto self_lock_free = [&](NodeId owner) {
    auto it = a.space_locks.find(owner);
    const bool free =
        it == a.space_locks.end() || it->second.txn_id == txn.id;
    if (!free && blocked_by_lock) *blocked_by_lock = true;
    return free;
  };
  auto take_self_lock = [&](NodeId owner) {
    auto& lock = a.space_locks[owner];
    lock.txn_id = txn.id;
    lock.expiry.cancel();  // the allocator's own lock expires with the txn
  };

  if (txn.for_cluster_head) {
    // A new head receives half the allocator's own IPSpace; blocks are never
    // borrowed (§IV-B).
    if (a.ip_space.size() < 2 || !self_lock_free(txn.allocator)) return false;
    AddressBlock lower = a.ip_space;
    txn.proposed_block = lower.split_half();
    txn.owner = txn.allocator;
    take_self_lock(txn.owner);
    ++txn.attempt;
    return true;
  }

  // Own IPSpace first.
  if (!a.ip_space.empty() && self_lock_free(txn.allocator)) {
    txn.proposed = a.ip_space.lowest();
    txn.proposed_block = AddressBlock(txn.proposed, txn.proposed);
    txn.owner = txn.allocator;
    take_self_lock(txn.owner);
    ++txn.attempt;
    return true;
  }

  if (!params_.enable_borrowing) return false;

  // Borrow from QuorumSpace: pick the replica with the largest free pool
  // whose owner group is at least partly reachable.
  NodeId best = kNoNode;
  std::uint64_t best_size = 0;
  for (const auto& [owner, rep] : a.replicas) {
    if (rep.free_pool.empty() || !self_lock_free(owner)) continue;
    if (rep.free_pool.size() > best_size) {
      best = owner;
      best_size = rep.free_pool.size();
    }
  }
  if (best == kNoNode) return false;
  const auto& rep = a.replicas.at(best);
  txn.proposed = rep.free_pool.lowest();
  txn.proposed_block = AddressBlock(txn.proposed, txn.proposed);
  txn.owner = best;
  take_self_lock(best);
  ++txn.attempt;
  return true;
}

bool QipEngine::agent_forward(ConfigTxn& txn) {
  // §V-A: when even QuorumSpace is depleted, the head relays the request to
  // its own configurer rather than starting a reclamation right away.
  auto& a = node(txn.allocator);
  const NodeId agent_target = a.configurer;
  if (agent_target == kNoNode || agent_target == txn.allocator ||
      !alive(agent_target) || !is_head(agent_target)) {
    return false;
  }
  const PendingRequest req{txn.requestor, txn.for_cluster_head, txn.base_hops};
  const QipMsg kind = txn.for_cluster_head ? QipMsg::kChReq : QipMsg::kComReq;
  if (!send(txn.allocator, agent_target, kind, Traffic::kConfiguration,
            txn.base_hops,
            [this, agent_target, req](std::uint64_t h) {
              PendingRequest r = req;
              r.hops_base = h;
              enqueue_request(agent_target, r);
            },
            "agent forward")) {
    return false;
  }
  // Hand the transaction off: close ours without recording failure.
  end_txn(txn);
  return true;
}

// ---------------------------------------------------------------------------
// Quorum rounds
// ---------------------------------------------------------------------------

void QipEngine::start_quorum_round(ConfigTxn& txn) {
  auto& a = node(txn.allocator);
  ++txn.round;
  txn.confirms = 0;
  txn.busy = 0;
  txn.conflicts = 0;
  txn.latest_ts = 0;
  txn.voters.clear();
  txn.round_timer.cancel();
  txn.round_open = false;
  txn.responded.clear();
  txn.conflict_voters.clear();

  // The replica group for `owner`'s space: the owner plus its QDSet.  When
  // the allocator owns the space that is its own QDSet; when borrowing, the
  // group comes from the replica's owner_qdset snapshot.  Built in a reused
  // sorted scratch vector — rounds run on every allocation, and a per-round
  // std::set was one tree-node allocation per member (docs/SCALE.md).
  auto& group = round_group_;
  const auto insert_sorted = [&group](NodeId v) {
    const auto it = std::lower_bound(group.begin(), group.end(), v);
    if (it == group.end() || *it != v) group.insert(it, v);
  };
  group.clear();
  if (txn.owner == txn.allocator) {
    group.assign(a.qdset.begin(), a.qdset.end());  // set order = sorted
    insert_sorted(txn.allocator);
  } else {
    auto rep_it = a.replicas.find(txn.owner);
    if (rep_it == a.replicas.end()) {
      // The replica was dropped mid-transaction (reclamation / RESIGN):
      // the borrowed proposal is void.
      round_failed(txn, /*conflict=*/true);
      return;
    }
    group.assign(rep_it->second.owner_qdset.begin(),
                 rep_it->second.owner_qdset.end());
    insert_sorted(txn.owner);
    insert_sorted(txn.allocator);  // we hold a copy too
  }
  // Hardened mode: expelled peers hold no vote — the revocation was itself
  // a network-wide decision, so every honest allocator excludes the same
  // set and quorum intersection is preserved.  (No-op while nobody is
  // quarantined, which is always the case without an adversary.)
  group.erase(std::remove_if(group.begin(), group.end(),
                             [&](NodeId v) {
                               return v != txn.allocator && is_quarantined(v);
                             }),
              group.end());
  txn.group_size = static_cast<std::uint32_t>(group.size());
  txn.distinguished = group.front();  // lowest-id member (kept sorted)
  txn.distinguished_ok = (txn.distinguished == txn.allocator);

  // Our own copy always votes yes (the lock was taken in propose_next).
  if (txn.owner == txn.allocator) {
    // Latest local timestamp over the proposal.
    for (const auto& r : txn.proposed_block.ranges()) {
      txn.latest_ts =
          std::max(txn.latest_ts, a.table.max_timestamp(r.lo, r.hi));
    }
  } else {
    txn.latest_ts = a.replicas.at(txn.owner).table.get(txn.proposed).timestamp;
  }

  for (NodeId v : group) {
    if (v == txn.allocator) continue;
    txn.voters.push_back(v);
  }

  txn.outstanding = 0;
  const std::uint64_t id = txn.id;
  const std::uint32_t round = txn.round;
  if (ctx().tracing_on()) {
    // Child span of "config_txn": same txn id arg ties them together; the
    // QDSet state rides along so a trace shows how the voting group evolved
    // across rounds (quorum adjustment, §V-B).
    txn.obs_round_span = ctx().recorder().begin_span(
        sim().now(), "quorum_round", "qip", txn.allocator,
        {{"txn", id},
         {"round", round},
         {"group_size", txn.group_size},
         {"quorum_needed", quorum_needed(txn)},
         {"distinguished", txn.distinguished},
         {"voters", static_cast<std::uint64_t>(txn.voters.size())}});
  }
  for (NodeId v : txn.voters) {
    if (!alive(v)) continue;
    const AddressBlock proposal = txn.proposed_block;
    if (send(txn.allocator, v, QipMsg::kQuorumClt, Traffic::kConfiguration,
             txn.base_hops,
             [this, v, alloc = txn.allocator, owner = txn.owner, id, round,
              proposal](std::uint64_t h) {
               handle_quorum_clt(v, alloc, owner, id, round, proposal, h);
             },
             txn.proposed_block)) {
      ++txn.outstanding;
    }
  }

  // Hardened per-round deadline: a stalled round (voters that accepted the
  // CLT but never answer) closes early instead of wedging until
  // txn_timeout, and the silent voters gain suspicion.  Off by default —
  // honest rounds do stall benignly when a voter drifts out of range.
  if (harden_on() && txn.outstanding > 0) {
    txn.round_open = true;
    txn.round_timer = sim().after(
        params_.harden.round_timeout,
        [this, id, round] { harden_round_expired(id, round); });
  }

  // Decide immediately if the quorum is already satisfied (single-head
  // networks, tiny QDSets) or provably unreachable.
  handle_vote(id, round, kNoNode, Vote::kGrant, 0, txn.base_hops);
}

std::uint32_t QipEngine::quorum_needed(const ConfigTxn& txn) const {
  // Confirmations required *including our own copy's vote*.  The group is a
  // symmetric QDSet, so the backend's counting rule decides (docs/QUORUM.md).
  return quorum_threshold(params_.quorum, txn.group_size,
                          txn.distinguished_ok);
}

void QipEngine::handle_quorum_clt(NodeId voter, NodeId allocator,
                                  NodeId owner, std::uint64_t txn_id,
                                  std::uint32_t round,
                                  const AddressBlock& proposal,
                                  std::uint64_t hops_so_far) {
  if (!alive(voter)) return;

  // Silent defection: the voter swallows the CLT — no vote ever comes back,
  // the allocator's round stalls.  Unhardened it wedges until txn_timeout;
  // hardened the round deadline closes it and suspicion accrues.
  if (attack_active(voter, AttackKind::kSilentDefection)) {
    ++adversary_ctl()->stats().dropped_services;
    return;
  }
  // False-conflict flooding: veto every proposal sight unseen.  Each veto
  // makes the allocator surrender the proposed address, so an unhardened
  // allocator bleeds its pool dry; a hardened one cross-checks vetoes
  // against its own table (round_failed) and quarantines the flooder.
  if (attack_active(voter, AttackKind::kConflictFlood)) {
    ++adversary_ctl()->stats().false_conflicts;
    send(voter, allocator, QipMsg::kQuorumCfm, Traffic::kConfiguration,
         hops_so_far,
         [this, txn_id, round, voter](std::uint64_t h) {
           handle_vote(txn_id, round, voter, Vote::kConflict, 0, h);
         },
         Vote::kConflict);
    return;
  }

  auto& v = node(voter);

  Vote vote = Vote::kGrant;
  std::uint64_t ts = 0;

  // Find this voter's copy of the owner's space: its own authoritative state
  // when it *is* the owner, else its replica.
  const AddressBlock* free_pool = nullptr;
  const AllocationTable* table = nullptr;
  if (voter == owner) {
    if (v.role == Role::kClusterHead) {
      free_pool = &v.ip_space;
      table = &v.table;
    }
  } else {
    auto it = v.replicas.find(owner);
    if (it != v.replicas.end()) {
      free_pool = &it->second.free_pool;
      table = &it->second.table;
    }
  }

  if (free_pool == nullptr) {
    // No copy: cannot vouch for the proposal.
    vote = Vote::kConflict;
  } else {
    for (const auto& r : proposal.ranges()) {
      ts = std::max(ts, table->max_timestamp(r.lo, r.hi));
    }
    if (!free_pool->contains_all(proposal)) {
      vote = Vote::kConflict;
    } else {
      auto lock = v.space_locks.find(owner);
      if (lock != v.space_locks.end() && lock->second.txn_id != txn_id) {
        vote = Vote::kBusy;
      } else {
        // Grant: lend this copy to the transaction until UPD/REL/expiry.
        auto& l = v.space_locks[owner];
        l.txn_id = txn_id;
        l.expiry.cancel();
        l.expiry = sim().after(params_.lock_timeout, [this, voter, owner,
                                                      txn_id] {
          if (!alive(voter)) return;
          auto& st = node(voter);
          auto it = st.space_locks.find(owner);
          if (it != st.space_locks.end() && it->second.txn_id == txn_id) {
            st.space_locks.erase(it);
            pump_pending(voter);  // a waiting local transaction may resume
          }
        });
      }
    }
  }

  send(voter, allocator, QipMsg::kQuorumCfm, Traffic::kConfiguration,
       hops_so_far,
       [this, txn_id, round, voter, vote, ts](std::uint64_t h) {
         handle_vote(txn_id, round, voter, vote, ts, h);
       },
       vote);
}

void QipEngine::handle_vote(std::uint64_t txn_id, std::uint32_t round,
                            NodeId voter, Vote vote, std::uint64_t timestamp,
                            std::uint64_t hops_so_far) {
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  ConfigTxn& txn = it->second;
  if (round != txn.round) return;  // stale round

  if (voter != kNoNode) {
    QIP_ASSERT(txn.outstanding > 0);
    --txn.outstanding;
    if (harden_on()) {
      txn.responded.insert(voter);
      if (vote == Vote::kConflict) txn.conflict_voters.insert(voter);
    }
    if (ctx().tracing_on()) {
      ctx().recorder().instant(
          sim().now(), "vote", "quorum", voter,
          {{"txn", txn_id}, {"round", round}, {"vote", vote_label(vote)}});
    }
    switch (vote) {
      case Vote::kGrant:
        ++txn.confirms;
        txn.granted.insert(voter);
        txn.latest_ts = std::max(txn.latest_ts, timestamp);
        if (voter == txn.distinguished) txn.distinguished_ok = true;
        break;
      case Vote::kBusy:
        ++txn.busy;
        break;
      case Vote::kConflict:
        ++txn.conflicts;
        txn.latest_ts = std::max(txn.latest_ts, timestamp);
        break;
    }
  }

  const std::uint32_t yes = txn.confirms + 1;  // + our own copy
  if (yes >= quorum_needed(txn)) {
    txn.commit_hops = std::max(txn.base_hops, hops_so_far);
    obs_close_round(ctx().recorder(), sim().now(), txn, "quorum");
    commit_config(txn);
    return;
  }
  if (txn.outstanding == 0) {
    round_failed(txn, txn.conflicts > 0);
  }
}

void QipEngine::round_failed(ConfigTxn& txn, bool conflict) {
  txn.round_timer.cancel();
  txn.round_open = false;
  auto& a = node(txn.allocator);

  // Hardened veto cross-check: when the allocator owns the proposed space
  // and its *own authoritative table* says the address is free, a conflict
  // veto contradicts the one copy that cannot be stale.  Tally suspicion
  // against each vetoer and retry through the busy path instead of
  // surrendering the address — the poisoned-vote path to pool exhaustion.
  // (An honest fresher replica can veto here only transiently, while a
  // borrowed commit races back to the owner; the busy retry absorbs it.)
  if (conflict && harden_on() && !txn.for_cluster_head &&
      txn.owner == txn.allocator && !txn.conflict_voters.empty() &&
      !a.table.allocated(txn.proposed)) {
    for (NodeId cv : txn.conflict_voters)
      add_suspicion(txn.allocator, cv, "veto_contradicts_owner");
    conflict = false;
  }

  obs_close_round(ctx().recorder(), sim().now(), txn,
                  conflict ? "conflict" : "busy");
  release_grants(txn);

  if (conflict) {
    // The read found the proposal (partly) taken somewhere fresher: drop the
    // proposal from our pools and try the next address.
    if (!txn.for_cluster_head) {
      if (txn.owner == txn.allocator) {
        if (a.ip_space.contains(txn.proposed)) a.ip_space.erase(txn.proposed);
      } else {
        auto it = a.replicas.find(txn.owner);
        if (it != a.replicas.end() &&
            it->second.free_pool.contains(txn.proposed)) {
          it->second.free_pool.erase(txn.proposed);
        }
      }
    }
    // Release our own lock on the owner's space before re-proposing.
    auto lock = a.space_locks.find(txn.owner);
    if (lock != a.space_locks.end() && lock->second.txn_id == txn.id)
      a.space_locks.erase(lock);
    if (propose_next(txn)) {
      start_quorum_round(txn);
      return;
    }
    if (agent_forward(txn)) return;
    finish_config_failure(txn);
    return;
  }

  // Contention or unreachable voters: back off and retry the same proposal;
  // quorum adjustment (§V-B) may shrink the group meanwhile.
  if (txn.busy_retries < params_.max_busy_retries) {
    ++txn.busy_retries;
    const std::uint64_t id = txn.id;
    sim().post(params_.busy_backoff, [this, id] {
      auto it = txns_.find(id);
      if (it == txns_.end()) return;
      if (!is_head(it->second.allocator)) {
        finish_config_failure(it->second);  // allocator died mid-transaction
        return;
      }
      start_quorum_round(it->second);
    });
    return;
  }
  finish_config_failure(txn);
}

void QipEngine::release_grants(ConfigTxn& txn) {
  for (NodeId v : txn.granted) {
    if (!alive(v)) continue;
    const NodeId owner = txn.owner;
    const std::uint64_t id = txn.id;
    send(txn.allocator, v, QipMsg::kQuorumRel, Traffic::kConfiguration, 0,
         [this, v, owner, id](std::uint64_t) {
           if (!alive(v)) return;
           auto& st = node(v);
           auto it = st.space_locks.find(owner);
           if (it != st.space_locks.end() && it->second.txn_id == id) {
             it->second.expiry.cancel();
             st.space_locks.erase(it);
             pump_pending(v);
           }
         });
  }
  txn.granted.clear();
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

void QipEngine::commit_config(ConfigTxn& txn) {
  auto& a = node(txn.allocator);
  const NodeId requestor = txn.requestor;
  const NetworkId net_id = a.network_id;

  // Hardened veto cross-check, commit side: the quorum granted the very
  // address this voter vetoed.  Quorum redundancy absorbs a minority of
  // false vetoes without failing the round, so a flooder below the blocking
  // threshold would otherwise stay invisible forever — but a veto
  // contradicted by the committed grant is exactly as suspect as one
  // contradicted by the owner's table in round_failed.  (An honest veto can
  // land here only through a stale replica racing a borrowed commit;
  // the suspicion threshold absorbs those.)
  if (harden_on()) {
    for (NodeId cv : txn.conflict_voters)
      add_suspicion(txn.allocator, cv, "veto_contradicts_commit");
  }

  if (txn.for_cluster_head) {
    // Transfer the upper half of our IPSpace to the new head.  Re-validate
    // at commit time: a voter-lock expiry can let state move under a slow
    // round, in which case this is just a conflict and we re-propose.
    QIP_ASSERT(txn.owner == txn.allocator);
    if (!a.ip_space.contains_all(txn.proposed_block)) {
      round_failed(txn, /*conflict=*/true);
      return;
    }
    a.ip_space.erase_all(txn.proposed_block);
    a.owned_universe.erase_all(txn.proposed_block);
    ++a.version;
    replicate_update(txn.allocator, txn.allocator, Traffic::kConfiguration,
                     txn.id);
    const AddressBlock block = txn.proposed_block;
    const std::uint64_t hops = txn.commit_hops;
    const std::uint32_t attempts = txn.attempt;
    if (!send(txn.allocator, requestor, QipMsg::kChCfg,
              Traffic::kConfiguration, hops,
              [this, requestor, alloc = txn.allocator, block, net_id,
               attempts](std::uint64_t h) {
                complete_head(requestor, alloc, block, net_id, h, attempts);
              },
              block)) {
      // Requestor unreachable at hand-over: the block stays with us.
      a.ip_space.merge(block);
      a.owned_universe.merge(block);
      ++a.version;
      replicate_update(txn.allocator, txn.allocator, Traffic::kConfiguration);
      txn.obs_outcome = "handover_failed";
    } else {
      txn.obs_outcome = "committed";
    }
    end_txn(txn);
    return;
  }

  const IpAddress addr = txn.proposed;
  if (txn.owner == txn.allocator) {
    if (!a.ip_space.contains(addr)) {
      round_failed(txn, /*conflict=*/true);  // state moved under the round
      return;
    }
    a.table.commit_allocate(addr, requestor, txn.latest_ts);
    a.ip_space.erase(addr);
    ++a.version;
    replicate_update(txn.allocator, txn.allocator, Traffic::kConfiguration,
                     txn.id);
  } else {
    // Borrowed commit: update our replica, then propagate through the owner
    // when reachable, else directly to the surviving replica group.
    auto rep_it = a.replicas.find(txn.owner);
    if (rep_it == a.replicas.end()) {
      round_failed(txn, /*conflict=*/true);
      return;
    }
    auto& rep = rep_it->second;
    if (!rep.free_pool.contains(addr) || rep.table.allocated(addr)) {
      round_failed(txn, /*conflict=*/true);
      return;
    }
    const AddressRecord rec = rep.table.commit_allocate(addr, requestor,
                                                        txn.latest_ts);
    if (rep.free_pool.contains(addr)) rep.free_pool.erase(addr);
    // Versions are minted by the owner only (they gate structural state —
    // universe and QDSet); a holder-side commit travels via the record's
    // timestamp, never by outbidding the owner's version.
    const NodeId owner = txn.owner;
    const std::uint64_t txn_id = txn.id;
    bool via_owner = false;
    if (alive(owner) && is_head(owner)) {
      via_owner = send(
          txn.allocator, owner, QipMsg::kQuorumUpd, Traffic::kConfiguration, 0,
          [this, owner, addr, rec, requestor, txn_id](std::uint64_t) {
            if (!is_head(owner)) return;
            auto& o = node(owner);
            o.table.adopt_if_newer(addr, rec);
            if (o.ip_space.contains(addr) && o.table.allocated(addr))
              o.ip_space.erase(addr);
            auto lock = o.space_locks.find(owner);
            if (lock != o.space_locks.end() && lock->second.txn_id == txn_id) {
              lock->second.expiry.cancel();
              o.space_locks.erase(lock);
              pump_pending(owner);
            }
            replicate_update(owner, owner, Traffic::kConfiguration);
          },
          addr);
    }
    if (!via_owner) {
      // Owner gone: push our replica snapshot to its surviving group.
      replicate_update(txn.allocator, owner, Traffic::kConfiguration, txn.id);
    }
  }

  const std::uint64_t hops = txn.commit_hops;
  const std::uint32_t attempts = txn.attempt;
  if (!send(txn.allocator, requestor, QipMsg::kComCfg, Traffic::kConfiguration,
            hops,
            [this, requestor, alloc = txn.allocator, addr, net_id,
             attempts](std::uint64_t h) {
              complete_common(requestor, alloc, addr, net_id, h, attempts);
            },
            addr)) {
    // Requestor vanished before configuration: free the address again.
    free_owned_address(txn.owner == txn.allocator ? txn.allocator : txn.owner,
                       addr, Traffic::kConfiguration);
    txn.obs_outcome = "handover_failed";
  } else {
    txn.obs_outcome = "committed";
  }
  end_txn(txn);
}

void QipEngine::complete_common(NodeId id, NodeId allocator, IpAddress addr,
                                NetworkId network_id, std::uint64_t total_hops,
                                std::uint32_t attempts) {
  if (!alive(id)) return;
  auto& st = node(id);
  if (st.role != Role::kUnconfigured) return;  // duplicate delivery guard
  st.role = Role::kCommonNode;
  st.ip = addr;
  st.configurer = allocator;
  st.administrator = kNoNode;
  st.network_id = network_id;
  // An allocator that stopped being a head while COM_CFG was in flight
  // leaves the node orphaned, as a removed head leaves its members; a later
  // ALLOC_CHANGE reassigns it.
  if (clusters_.is_head(allocator)) {
    clusters_.set_member(id, allocator);
  } else {
    clusters_.set_orphan(id);
  }

  auto& rec = record_for(id);
  rec.success = true;
  rec.address = addr;
  rec.latency_hops = total_hops;
  rec.attempts = attempts;
  rec.completed_at = sim().now();
  ++config_successes_;

  send(id, allocator, QipMsg::kComAck, Traffic::kConfiguration, 0,
       [](std::uint64_t) {});
}

void QipEngine::complete_head(NodeId id, NodeId allocator, AddressBlock block,
                              NetworkId network_id, std::uint64_t total_hops,
                              std::uint32_t attempts) {
  if (!alive(id)) return;
  auto& st = node(id);
  if (st.role != Role::kUnconfigured) return;
  st.role = Role::kClusterHead;
  st.owned_universe = block;
  st.ip_space = block;
  const IpAddress self_ip = st.ip_space.pop_lowest();
  st.ip = self_ip;
  st.table.commit_allocate(self_ip, id, 0);
  st.version = 1;
  st.configurer = allocator;
  st.network_id = network_id;
  clusters_.set_head(id);

  auto& rec = record_for(id);
  rec.success = true;
  rec.address = self_ip;
  rec.latency_hops = total_hops;
  rec.attempts = attempts;
  rec.completed_at = sim().now();
  ++config_successes_;

  if (ctx().tracing_on()) {
    ctx().recorder().instant(
        sim().now(), "head_elected", "cluster", id,
        {{"first", std::uint32_t{0}},
         {"universe", static_cast<std::uint64_t>(st.owned_universe.size())},
         {"allocator", allocator}});
  }

  send(id, allocator, QipMsg::kChAck, Traffic::kConfiguration, 0,
       [](std::uint64_t) {});

  // Build the QDSet and distribute replicas (§IV-A, §V-B).
  join_qdsets(id);
}

void QipEngine::join_qdsets(NodeId new_head) {
  auto heads = clusters_.heads_within(new_head, params_.qdset_radius);
  for (NodeId h : heads) {
    if (!alive(h)) continue;
    add_qdset_link(new_head, h, Traffic::kConfiguration);
  }
}

void QipEngine::end_txn(ConfigTxn& txn) {
  const std::uint64_t id = txn.id;
  const NodeId allocator = txn.allocator;
  txn.retry_timer.cancel();
  txn.round_timer.cancel();
  // A round abandoned without resolving (txn timeout) closes here.
  obs_close_round(ctx().recorder(), sim().now(), txn, "abort");
  if (txn.obs_span != 0) {
    ctx().recorder().end_span(
        sim().now(), txn.obs_span, "config_txn", "qip", allocator,
        {{"outcome", txn.obs_outcome},
         {"attempts", txn.attempt},
         {"rounds", txn.round}});
    txn.obs_span = 0;
  }
  if (alive(allocator)) {
    auto& a = node(allocator);
    if (a.active_txn == id) a.active_txn = 0;
    // Drop any self locks still held by this transaction.
    for (auto it = a.space_locks.begin(); it != a.space_locks.end();) {
      if (it->second.txn_id == id) {
        it->second.expiry.cancel();
        it = a.space_locks.erase(it);
      } else {
        ++it;
      }
    }
  }
  txns_.erase(id);
  if (alive(allocator)) {
    sim().after(0.0, [this, allocator] { pump_pending(allocator); });
  }
}

void QipEngine::finish_config_failure(ConfigTxn& txn) {
  txn.obs_outcome = "failed";
  release_grants(txn);
  const NodeId requestor = txn.requestor;
  ++config_failures_;
  // A failing transaction only counts against a requestor that is still
  // unconfigured — a duplicate request (retry racing the original) must not
  // overwrite the successful record.
  if (alive(requestor) &&
      node(requestor).role == Role::kUnconfigured) {
    auto& rec = record_for(requestor);
    if (!rec.success) {
      rec.attempts = txn.attempt;
      rec.completed_at = sim().now();
    }
    // The requestor retries from scratch after a backoff (it may pick a
    // different allocator by then).
    auto& rs = node(requestor);
    if (rs.entry_retries < params_.max_entry_retries) {
      ++rs.entry_retries;
      sim().post(params_.entry_retry_backoff,
                  [this, requestor] { start_configuration(requestor); });
    }
  }
  // An allocator that cannot satisfy requests even via QuorumSpace starts
  // address reclamation for vanished heads it still holds replicas of
  // (§IV-D: "or running out of IP addresses in both IPSpace and
  // QuorumSpace").
  if (alive(txn.allocator)) {
    auto& a = node(txn.allocator);
    if (a.visible_free() == 0) {
      for (const auto& [owner, rep] : a.replicas) {
        if (!alive(owner) && !reclaims_.count(owner)) {
          start_reclamation(txn.allocator, owner);
          break;
        }
      }
    }
  }
  end_txn(txn);
}

// ---------------------------------------------------------------------------
// Replica snapshots / write rounds
// ---------------------------------------------------------------------------

ReplicaCopy QipEngine::snapshot_space(NodeId source, NodeId owner) const {
  const auto& s = node(source);
  ReplicaCopy copy;
  copy.owner = owner;
  if (source == owner) {
    copy.universe = s.owned_universe;
    copy.free_pool = s.ip_space;
    copy.table = s.table;
    copy.version = s.version;
    copy.owner_qdset = s.qdset;
  } else {
    copy = s.replicas.at(owner);
  }
  return copy;
}

void QipEngine::adopt_replica(NodeId holder, const ReplicaCopy& snapshot,
                              NodeId source) {
  if (!alive(holder)) return;
  auto& h = node(holder);
  if (h.role != Role::kClusterHead) return;
  // Hardened: a first-time replica must come from its owner (QD_JOIN /
  // QD_WELCOME do); adopting a stranger's copy wholesale would hand a
  // poisoner a blank slate.  Existing replicas reconcile below, where
  // non-owner demotions are verified record by record.
  if (params_.harden.enabled && source != snapshot.owner &&
      !h.replicas.count(snapshot.owner)) {
    return;
  }

  // Self-healing stewardship: if the arriving snapshot claims addresses we
  // also believe we own (a reclamation raced the owner across a partition),
  // both sides apply the same deterministic rule — newest record wins, ties
  // go to the smaller id — so contact alone reconverges stewardship.
  if (snapshot.owner != holder &&
      !h.owned_universe.disjoint_with(snapshot.universe)) {
    const AddressBlock overlap =
        h.owned_universe.minus(h.owned_universe.minus(snapshot.universe));
    for (const auto& r : overlap.ranges()) {
      for (std::uint32_t v = r.lo.value();; ++v) {
        const IpAddress addr(v);
        const auto mine = h.table.get(addr);
        const auto theirs = snapshot.table.get(addr);
        const bool i_win = mine.timestamp > theirs.timestamp ||
                           (mine.timestamp == theirs.timestamp &&
                            holder < snapshot.owner);
        if (!i_win) {
          h.owned_universe.erase(addr);
          if (h.ip_space.contains(addr)) h.ip_space.erase(addr);
          h.table.erase(addr);
          ++h.version;
        }
        if (v == r.hi.value()) break;
      }
    }
  }

  auto [it, fresh] = h.replicas.try_emplace(snapshot.owner, snapshot);
  if (fresh) return;
  ReplicaCopy& mine = it->second;
  // Reconcile rather than replace: structural fields (universe, QDSet) come
  // from the newer version, per-address records merge by timestamp so a
  // stale snapshot can never roll back a committed allocation.
  if (snapshot.version > mine.version) {
    mine.universe = snapshot.universe;
    mine.owner_qdset = snapshot.owner_qdset;
    mine.version = snapshot.version;
  }
  if (params_.harden.enabled && source != snapshot.owner) {
    // Hardened holder-side merge: promotions (new allocations) are adopted
    // as usual, but a non-owner snapshot demoting an allocated record to
    // free is checked with the owner — the one copy that cannot be rolled
    // back — before being believed.  One charged round trip per demotion;
    // a contradicted demotion is stripped and earns the sender suspicion.
    const NodeId owner = snapshot.owner;
    const bool owner_up = alive(owner) && is_head(owner) &&
                          topology().has_node(owner) &&
                          topology().reachable(holder, owner);
    for (IpAddress a : snapshot.table.known_addresses()) {
      const AddressRecord theirs = snapshot.table.get(a);
      const AddressRecord ours = mine.table.get(a);
      if (theirs.timestamp <= ours.timestamp) continue;
      const bool demotes = ours.status == AddressStatus::kAllocated &&
                           theirs.status != AddressStatus::kAllocated;
      if (demotes && owner_up) {
        const auto d = topology().hop_distance(holder, owner);
        if (d) {
          transport().stats().record(Traffic::kMaintenance, 2ULL * *d, 2);
          if (node(owner).table.allocated(a)) {
            add_suspicion(holder, source, "false_demotion");
            continue;
          }
        }
      }
      mine.table.install(a, theirs);
    }
  } else {
    mine.table.merge_newer(snapshot.table);
  }
  mine.free_pool = derive_free_pool(mine.universe, mine.table);
}

void QipEngine::replicate_update(NodeId source, NodeId owner, Traffic traffic,
                                 std::uint64_t txn_id) {
  if (!alive(source)) return;
  push_snapshot(source, snapshot_space(source, owner), traffic, txn_id);
}

void QipEngine::push_snapshot(NodeId source, ReplicaCopy snapshot,
                              Traffic traffic, std::uint64_t txn_id) {
  const auto shared =
      std::make_shared<const ReplicaCopy>(std::move(snapshot));
  const NodeId owner = shared->owner;
  // Recipients: the owner's replica group as the source knows it.
  std::set<NodeId> group = shared->owner_qdset;
  if (source != owner && alive(owner)) group.insert(owner);
  for (NodeId h : group) {
    if (h == source || !alive(h)) continue;
    send(source, h, QipMsg::kQuorumUpd, traffic, 0,
         [this, h, shared, owner, source, txn_id](std::uint64_t) {
           const ReplicaCopy& snapshot = *shared;
           if (!alive(h)) return;
           // Hardened: an expelled peer's snapshots are discarded unread.
           if (params_.harden.enabled && is_quarantined(source)) return;
           auto& st = node(h);
           if (h == owner && st.role == Role::kClusterHead) {
             // The owner itself reconciles the fresher view of its own
             // space: structure from the newer version, records by
             // timestamp (no wholesale replace, so its own committed
             // updates survive).
             if (snapshot.version > st.version) {
               st.owned_universe = snapshot.universe;
               st.version = snapshot.version;
             }
             if (params_.harden.enabled && source != owner) {
               merge_table_hardened(h, source, snapshot.table);
             } else {
               st.table.merge_newer(snapshot.table);
             }
             st.ip_space = derive_free_pool(st.owned_universe, st.table);
           } else {
             adopt_replica(h, snapshot, source);
           }
           if (txn_id != 0) {
             auto lock = st.space_locks.find(owner);
             if (lock != st.space_locks.end() &&
                 lock->second.txn_id == txn_id) {
               lock->second.expiry.cancel();
               st.space_locks.erase(lock);
               pump_pending(h);
             }
           }
         });
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

double QipEngine::average_qdset_size() const {
  double sum = 0;
  std::size_t n = 0;
  nodes_.for_each([&](NodeId, const QipNodeState& st) {
    if (st.role != Role::kClusterHead) return;
    sum += static_cast<double>(st.qdset.size());
    ++n;
  });
  return n ? sum / static_cast<double>(n) : 0.0;
}

double QipEngine::average_visible_space() const {
  double sum = 0;
  std::size_t n = 0;
  nodes_.for_each([&](NodeId, const QipNodeState& st) {
    if (st.role != Role::kClusterHead) return;
    sum += static_cast<double>(st.visible_free());
    ++n;
  });
  return n ? sum / static_cast<double>(n) : 0.0;
}

double QipEngine::average_own_space() const {
  double sum = 0;
  std::size_t n = 0;
  nodes_.for_each([&](NodeId, const QipNodeState& st) {
    if (st.role != Role::kClusterHead) return;
    sum += static_cast<double>(st.ip_space.size());
    ++n;
  });
  return n ? sum / static_cast<double>(n) : 0.0;
}

std::map<NodeId, IpAddress> QipEngine::configured_addresses() const {
  std::map<NodeId, IpAddress> out;
  for_each_configured(
      [&](NodeId id, IpAddress addr) { out.emplace(id, addr); });
  return out;
}

}  // namespace qip
