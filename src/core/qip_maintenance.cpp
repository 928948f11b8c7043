// QipEngine: periodic hello processing, location updates, quorum adjustment
// (§V-B) and address reclamation (§IV-D).
#include "core/qip_engine.hpp"

#include <algorithm>

#include "fault/adversary.hpp"
#include "net/failure_detector.hpp"
#include "obs/profile.hpp"
#include "sim/sim_context.hpp"
#include "util/flat_hash.hpp"

namespace qip {

// ---------------------------------------------------------------------------
// Hello / periodic maintenance
// ---------------------------------------------------------------------------

void QipEngine::start_hello() {
  if (hello_running_) return;
  hello_running_ = true;
  hello_timer_ = sim().after(params_.hello_interval, [this] {
    hello_tick();
    hello_running_ = false;
    start_hello();
  });
}

void QipEngine::hello_tick() {
  obs::ProfileScope prof("qip_hello_tick", ctx().recorder(), ctx().metrics());
  // Scheduled attacks fire first (null-gated: a run with no adversary plan
  // takes one pointer check and is byte-identical to the seed behavior).
  run_adversary_tick();

  // Every configured node beacons once per interval.  Hellos are metered in
  // their own category and excluded from the paper's overhead figures (all
  // compared protocols beacon equivalently).
  std::uint64_t beacons = 0;
  nodes_.for_each([&](NodeId id, const QipNodeState& st) {
    if (st.role != Role::kUnconfigured && topology().has_node(id)) ++beacons;
  });
  if (beacons > 0) {
    transport().stats().record(Traffic::kHello, beacons, beacons);
    if (ctx().tracing_on()) {
      // Hellos are aggregated per tick, not sent individually; mirror the
      // aggregate so the trace's message mix covers beacon traffic too.
      ctx().recorder().instant(
          sim().now(), "hello", "net", 0,
          {{"traffic", "hello"}, {"hops", beacons}, {"count", beacons}});
    }
  }

  // The head census that steps 2 and 3 of head_neighborhood_scan consult.
  const std::vector<NodeId> heads = clusters_.heads();
  head_census_.clear();
  for (NodeId h : heads) {
    if (census_head(h)) head_census_.push_back(node(h).network_id);
  }
  std::sort(head_census_.begin(), head_census_.end());
  for (NodeId h : heads) {
    if (alive(h) && topology().has_node(h)) head_neighborhood_scan(h);
  }
  merge_scan();
  refresh_network_ids();

  // Rescue scan: a node stranded unconfigured (exhausted retries during a
  // merge storm, allocator died mid-handshake) tries again once its last
  // attempt is stale.  Hello reception is what tells it the network is
  // there to join.
  nodes_.for_each([&](NodeId id, QipNodeState& st) {
    if (st.role != Role::kUnconfigured || !topology().has_node(id)) return;
    if (st.bootstrap_timer.pending()) return;
    // Stale means older than a full transaction timeout: rescuing earlier
    // could start a second transaction for a request still in flight.
    if (sim().now() - st.last_entry_attempt < params_.txn_timeout + 2.0)
      return;
    st.entry_retries = 0;
    start_configuration(id);
  });
}

void QipEngine::refresh_network_ids() {
  // §II/§V-C: the network id is the lowest IP *currently in the network*,
  // disseminated by the hello exchange.  After a partition, the side that
  // lost its lowest node adopts a higher id, which is exactly what lets a
  // later heal be detected as a merge.  The refresh runs after merge_scan
  // so a freshly healed boundary is detected before ids unify.
  //
  // Epoch nonces separate pools born independently; each epoch group in a
  // component tracks its own minimum.  A component can hold thousands of
  // groups: isolated arrivals each start a network and merge_scan dissolves
  // one network per tick, so in the n=100k city day the giant component
  // holds 7,000-7,750 groups from t=15 s to the end (a 4,000-node city's,
  // up to ~300).  Groups are therefore found by hash, in one flat table
  // reused across components.
  struct Group {
    IpAddress lowest;            // lowest IP held in the group
    IpAddress first_low;         // the first member's network-id low
    bool lows_disagree = false;  // some member carries a different low
  };
  FlatHashMap<std::uint64_t, Group> groups;  // epoch nonce -> group
  for (const auto& component : topology().components_view()) {
    groups.clear();
    for (NodeId id : component) {
      const QipNodeState* st = nodes_.find(id);
      if (st == nullptr || st->role == Role::kUnconfigured || !st->ip) continue;
      const NetworkId& net = st->network_id;
      auto [g, fresh] = groups.emplace(net.nonce, Group{*st->ip, net.low});
      if (fresh) continue;
      if (*st->ip < g->lowest) g->lowest = *st->ip;
      if (net.low != g->first_low) g->lows_disagree = true;
    }
    for (NodeId id : component) {
      QipNodeState* st = nodes_.find(id);
      if (st == nullptr || st->role == Role::kUnconfigured || !st->ip) continue;
      // A nonce group whose members disagree on the low is a *pending
      // merge* (two healed partitions): leave the ids divergent so
      // merge_scan can still detect the boundary on a later tick —
      // unifying them here would hide the merge and with it the
      // duplicate-address resolution.
      const Group& g = *groups.find(st->network_id.nonce);
      if (!g.lows_disagree) st->network_id.low = g.lowest;
    }
  }
}

void QipEngine::on_mobility_tick() {
  if (params_.periodic_location_update) location_update_scan();
}

// ---------------------------------------------------------------------------
// Location updates (§IV-C.1)
// ---------------------------------------------------------------------------

void QipEngine::location_update_scan() {
  nodes_.for_each([&](NodeId id, QipNodeState& st) {
    if (st.role != Role::kCommonNode || !topology().has_node(id)) return;
    const NodeId anchor =
        st.administrator != kNoNode ? st.administrator : st.configurer;
    bool too_far = true;
    if (anchor != kNoNode && alive(anchor) && topology().has_node(anchor)) {
      const auto d = topology().hop_distance(id, anchor);
      too_far = !d || *d > params_.update_threshold;
    }
    if (!too_far) return;
    const auto nearest = clusters_.nearest_head(id);
    if (!nearest || *nearest == anchor || !alive(*nearest)) return;
    const NodeId c = *nearest;
    const NodeId configurer = st.configurer;
    st.administrator = c;
    send(id, c, QipMsg::kUpdateLoc, Traffic::kMovement, 0,
         [this, c, id, configurer](std::uint64_t) {
           if (!is_head(c)) return;
           node(c).administered[id] = configurer;
         });
  });
}

// ---------------------------------------------------------------------------
// Quorum adjustment (§V-B)
// ---------------------------------------------------------------------------

bool QipEngine::census_head(NodeId id) const {
  return alive(id) && clusters_.is_head(id) && !is_quarantined(id) &&
         topology().has_node(id);
}

bool QipEngine::census_candidate_left(NodeId head) const {
  const QipNodeState& st = node(head);
  const auto [lo, hi] = std::equal_range(head_census_.begin(),
                                         head_census_.end(), st.network_id);
  const auto counted = static_cast<std::size_t>(hi - lo);
  // What the loop below subtracts is at most the QDSet plus the head, so a
  // network holding more census heads answers without it.
  if (counted > st.qdset.size() + 1) return true;
  // Subtract only what the census counted: the head itself and the QDSet
  // members that are still census heads of its network (a demoted or
  // quarantined member was never a candidate).
  std::size_t linked = census_head(head) ? 1 : 0;
  for (NodeId m : st.qdset) {
    if (census_head(m) && node(m).network_id == st.network_id) ++linked;
  }
  return counted > linked;
}

void QipEngine::head_neighborhood_scan(NodeId head) {
  auto& st = node(head);

  // 1. Liveness of current QDSet members.  The topology oracle is the
  // paper's crash-only detector; an installed SwimDetector layers
  // *service* evidence on top — a member the oracle can reach but the
  // detector cannot raise is treated as missing (and, hardened, expelled:
  // reachable-but-silent is exactly what a silent defector looks like).
  const std::vector<NodeId> members(st.qdset.begin(), st.qdset.end());
  if (detector_) detector_->observe(head, members);
  for (NodeId v : members) {
    bool contactable = alive(v) && topology().has_node(v) &&
                       topology().reachable(head, v) && !is_quarantined(v);
    if (!contactable && detector_) {
      // The oracle already accounts for a crashed or drifted member; probe
      // evidence accumulated across an outage is uninterpretable and would
      // condemn an honest member on stale misses the tick it returns.
      detector_->clear(head, v);
    }
    if (contactable && detector_ && detector_->suspects(head, v)) {
      // Reachable-but-silent is a silent defector's signature — but it is
      // evidence, not a verdict: quarantine only once the suspicion
      // threshold accrues (an honest recoverer clears itself with the next
      // acked probe before reaching it).
      add_suspicion(head, v, "probe_silence");
      contactable = false;
    }
    if (contactable) {
      unsuspect(head, v);
    } else {
      suspect(head, v);
    }
  }

  // Steps 2 and 3 search for heads to link, and add_qdset_link refuses
  // every head of another network, so they run only while the tick's head
  // census leaves a same-network head outside the QDSet.  Skipping is
  // exact: during the heads loop no node becomes a head, turns eligible or
  // joins a network.  The loop's only changes are isolated_head_recovery
  // moving a head into a fresh network (a new nonce no other head holds)
  // and hardened quarantine removing a head; both shrink a network's
  // eligible set, so the census can only over-count candidates, and a
  // skipped search could not have added a link.
  //
  // 2. Newly adjacent heads expand the quorum set.
  if (census_candidate_left(head)) {
    for (NodeId h : clusters_.heads_within(head, params_.qdset_radius)) {
      if (!alive(h) || is_quarantined(h) || st.qdset.count(h)) continue;
      add_qdset_link(head, h, Traffic::kMaintenance);
    }
  }

  // Hardened squat detection: challenge nearby same-network claims our
  // tables bind to a different live holder.
  if (harden_on()) detect_squats(head);

  // 3. Replica floor: recruit farther heads when the QDSet got too small.
  if (st.qdset.size() < params_.min_qdset && census_candidate_left(head))
    grow_quorum(head);

  // 4. Isolation (§V-C): a head that once had a quorum group but can reach
  // no other head at all cannot assemble any quorum; after a few patient
  // scans it restarts as a fresh network.  Any other head in its component
  // counts, whatever its network: §V-C's isolated head reaches none.
  if (!st.replicas.empty() && !clusters_.other_head_reachable(head)) {
    if (++st.isolation_ticks >= params_.isolation_patience) {
      st.isolation_ticks = 0;
      isolated_head_recovery(head);
    }
  } else {
    st.isolation_ticks = 0;
  }
}

void QipEngine::suspect(NodeId head, NodeId missing) {
  auto& st = node(head);
  if (st.suspect_timers.count(missing) || st.probe_timers.count(missing))
    return;
  st.suspect_timers[missing] =
      sim().after(params_.td, [this, head, missing] {
        if (!alive(head)) return;
        auto& s = node(head);
        if (!s.suspect_timers.count(missing)) return;  // recovered meanwhile
        s.suspect_timers.erase(missing);
        shrink_quorum(head, missing);
      });
}

void QipEngine::unsuspect(NodeId head, NodeId member) {
  auto& st = node(head);
  auto it = st.suspect_timers.find(member);
  if (it != st.suspect_timers.end()) {
    it->second.cancel();
    st.suspect_timers.erase(it);
  }
  auto pt = st.probe_timers.find(member);
  if (pt != st.probe_timers.end()) {
    pt->second.cancel();
    st.probe_timers.erase(pt);
  }
}

void QipEngine::shrink_quorum(NodeId head, NodeId missing) {
  auto& st = node(head);

  // View-change safety: removing a member from the quorum group is itself an
  // update that must be committed by a quorum of the current group,
  // otherwise a minority partition could shrink itself into a solo quorum
  // and allocate addresses the majority also allocates.  Dynamic linear
  // voting breaks exact-half ties with the group's smallest member as the
  // distinguished node (§II-D) — without it, a two-member group could never
  // shrink at all.  The commit costs a round trip per reachable member.
  const std::uint32_t group = static_cast<std::uint32_t>(st.qdset.size()) + 1;
  std::uint32_t reachable = 1;  // ourselves
  NodeId distinguished = head;
  for (NodeId m : st.qdset) distinguished = std::min(distinguished, m);
  bool distinguished_reachable = (distinguished == head);
  for (NodeId m : st.qdset) {
    if (m == missing || !alive(m) || !topology().has_node(m) ||
        is_quarantined(m)) {
      continue;
    }
    const auto d = topology().hop_distance(head, m);
    if (!d) continue;
    transport().stats().record(Traffic::kMaintenance, 2ULL * *d, 2);
    ++reachable;
    if (m == distinguished) distinguished_reachable = true;
  }
  const bool quorate =
      reachable >=
      quorum_threshold(params_.quorum, group, distinguished_reachable);
  if (!quorate) {
    return;  // re-suspected on the next hello scan if still unreachable
  }

  // Exclude the unresponsive head from the quorum set; its replica is kept
  // so a later reclamation can restore the space.
  st.qdset.erase(missing);

  // Verify its existence with REP_REQ; no reply within T_r starts address
  // reclamation for it.  An expelled (quarantined) member is not probed at
  // all — its reachability is exactly what must NOT rescue it — so its
  // space proceeds straight to reclamation.
  const bool sent =
      !is_quarantined(missing) &&
      send(head, missing, QipMsg::kRepReq, Traffic::kMaintenance, 0,
           [this, head, missing](std::uint64_t) {
             // The head is actually reachable again: rejoin.
             if (!alive(head) || !alive(missing)) return;
             // A silent defector lets the probe die in its queue, so the
             // T_r timer below runs out and reclamation proceeds.
             if (attack_active(missing, AttackKind::kSilentDefection)) {
               ++adversary_ctl()->stats().dropped_services;
               return;
             }
             send(missing, head, QipMsg::kRepAck, Traffic::kMaintenance, 0,
                  [this, head, missing](std::uint64_t) {
                    if (!alive(head) || !alive(missing)) return;
                    add_qdset_link(head, missing, Traffic::kMaintenance);
                  });
           });
  if (sent) return;  // reachable after all; REP_ACK path handles rejoin

  st.probe_timers[missing] = sim().after(params_.tr, [this, head, missing] {
    if (!alive(head)) return;
    auto& s = node(head);
    s.probe_timers.erase(missing);
    if (s.qdset.count(missing)) return;  // rejoined meanwhile
    if (!s.replicas.count(missing)) return;
    // Deduplicate initiators: the smallest-id surviving member of the dead
    // head's replica group starts the reclamation.
    const auto& rep = s.replicas.at(missing);
    NodeId min_alive = head;
    for (NodeId m : rep.owner_qdset) {
      if (m != missing && alive(m) && is_head(m) && !is_quarantined(m) &&
          topology().has_node(m) && topology().reachable(head, m)) {
        min_alive = std::min(min_alive, m);
      }
    }
    if (min_alive == head) start_reclamation(head, missing);
  });
}

void QipEngine::grow_quorum(NodeId head) {
  // §V-B: "cluster heads begin to increase replicas once |QDSet| is lower
  // than 3" — recruit beyond the normal adjacency radius.
  auto& st = node(head);
  for (NodeId h :
       clusters_.heads_within(head, params_.qdset_radius + 2)) {
    if (st.qdset.size() >= params_.min_qdset) break;
    if (!alive(h) || is_quarantined(h) || st.qdset.count(h)) continue;
    add_qdset_link(head, h, Traffic::kMaintenance);
  }
}

void QipEngine::add_qdset_link(NodeId a, NodeId b, Traffic traffic) {
  if (!is_head(a) || !is_head(b) || a == b) return;
  // Expelled peers can neither hold nor receive replicas.
  if (is_quarantined(a) || is_quarantined(b)) return;
  auto& sa = node(a);
  if (sa.qdset.count(b)) return;
  // Heads of different logical networks never pool replicas: the merge
  // procedure (§V-C) reconfigures one side first.
  if (node(a).network_id != node(b).network_id) return;

  // `a` offers its replica; `b` accepts, reciprocates with its own.
  sa.qdset.insert(b);
  const ReplicaCopy mine = snapshot_space(a, a);
  send(a, b, QipMsg::kQdJoin, traffic, 0,
       [this, a, b, mine, traffic](std::uint64_t) {
         if (!is_head(b)) return;
         auto& sb = node(b);
         sb.qdset.insert(a);
         adopt_replica(b, mine, a);
         const ReplicaCopy theirs = snapshot_space(b, b);
         send(b, a, QipMsg::kQdWelcome, traffic, 0,
              [this, a, b, theirs](std::uint64_t) {
                if (!is_head(a)) return;
                adopt_replica(a, theirs, b);
              });
       });
}

// ---------------------------------------------------------------------------
// Address reclamation (§IV-D)
// ---------------------------------------------------------------------------

void QipEngine::start_reclamation(NodeId initiator, NodeId dead_head) {
  if (reclaims_.count(dead_head)) return;
  if (!is_head(initiator)) return;
  auto attempted = reclaim_attempted_.find(dead_head);
  if (attempted != reclaim_attempted_.end() &&
      sim().now() - attempted->second < 10.0) {
    return;  // a recent attempt was blocked (no majority); don't spin
  }
  reclaim_attempted_[dead_head] = sim().now();
  auto& ini = node(initiator);
  if (!ini.replicas.count(dead_head)) return;
  ++reclaims_started_;

  ReclaimTxn rec;
  rec.dead_head = dead_head;
  rec.initiator = initiator;
  rec.settle_timer = sim().after(params_.reclaim_settle, [this, dead_head] {
    finish_reclamation(dead_head);
  });
  if (ctx().tracing_on()) {
    rec.obs_span = ctx().recorder().begin_span(
        sim().now(), "reclamation", "qip", initiator,
        {{"dead_head", dead_head}});
  }
  reclaims_.emplace(dead_head, std::move(rec));

  // ADDR_REC floods the initiator's neighborhood (reclamation is local,
  // §VI-E); every common node configured (or administered) by the dead head
  // claims its address via REC_REP.
  transport().flood_view(
      initiator, params_.reclaim_radius, Traffic::kReclamation,
      [this, dead_head](NodeId receiver, std::uint32_t hops) {
        if (!alive(receiver)) return;
        auto& st = node(receiver);
        if (st.role != Role::kCommonNode || !st.ip) return;
        if (st.configurer != dead_head && st.administrator != dead_head)
          return;
        const auto nearest = clusters_.nearest_head(receiver);
        if (!nearest || !alive(*nearest)) return;
        const NodeId w = *nearest;
        const IpAddress addr = *st.ip;
        send(receiver, w, QipMsg::kRecRep, Traffic::kReclamation, hops,
             [this, w, receiver, dead_head, addr](std::uint64_t h) {
               handle_rec_rep(w, receiver, dead_head, addr, h);
             },
             addr);
      });
  trace(QipMsg::kAddrRec, initiator, kNoNode, 0, "flood");
}

void QipEngine::handle_rec_rep(NodeId head, NodeId claimant, NodeId dead_head,
                               IpAddress addr, std::uint64_t hops) {
  if (!is_head(head)) return;
  auto it = reclaims_.find(dead_head);
  if (it != reclaims_.end() && it->second.initiator == head) {
    it->second.claims[addr] = claimant;
    return;
  }
  // Not the initiator: forward the claim toward it ("it will forward the
  // message to its adjacent cluster heads until the allocation information
  // is updated").
  if (it == reclaims_.end()) return;
  const NodeId initiator = it->second.initiator;
  if (!alive(initiator)) return;
  send(head, initiator, QipMsg::kRecRep, Traffic::kReclamation, hops,
       [this, initiator, claimant, dead_head, addr](std::uint64_t h) {
         handle_rec_rep(initiator, claimant, dead_head, addr, h);
       },
       addr);
}

void QipEngine::finish_reclamation(NodeId dead_head) {
  auto it = reclaims_.find(dead_head);
  if (it == reclaims_.end()) return;
  ReclaimTxn txn = std::move(it->second);
  reclaims_.erase(it);

  auto close_span = [&](const char* result) {
    if (txn.obs_span == 0) return;
    ctx().recorder().end_span(
        sim().now(), txn.obs_span, "reclamation", "qip", txn.initiator,
        {{"result", result},
         {"claims", static_cast<std::uint64_t>(txn.claims.size())}});
    txn.obs_span = 0;
  };

  const NodeId initiator = txn.initiator;
  if (!is_head(initiator)) {
    close_span("initiator_lost");
    return;
  }
  auto& ini = node(initiator);
  auto rep_it = ini.replicas.find(dead_head);
  if (rep_it == ini.replicas.end()) {
    close_span("replica_gone");
    return;
  }
  const ReplicaCopy rep = rep_it->second;

  // Majority guard (§V-C): only the partition holding the majority of the
  // dead head's replica group may reclaim, otherwise two partitions could
  // both hand out the same space.  Polling each surviving member costs one
  // round trip.
  std::set<NodeId> full_group = rep.owner_qdset;
  full_group.insert(dead_head);
  full_group.insert(initiator);
  const auto group = static_cast<std::uint32_t>(full_group.size());
  const NodeId distinguished = *full_group.begin();
  std::uint32_t reachable_copies = 1;  // our own replica
  bool distinguished_reachable = (distinguished == initiator);
  for (NodeId m : full_group) {
    if (m == initiator || m == dead_head) continue;
    if (alive(m) && is_head(m) && topology().has_node(m) &&
        topology().reachable(initiator, m)) {
      const auto d = topology().hop_distance(initiator, m);
      transport().stats().record(Traffic::kReclamation, 2ULL * *d, 2);
      ++reachable_copies;
      if (m == distinguished) distinguished_reachable = true;
    }
  }
  // Reclamation is a write on the dead head's space and needs a quorum of
  // its replica group under the configured backend — e.g. a strict
  // majority, or under dynamic linear voting exactly half including the
  // distinguished (lowest-id) copy.  The same rule gates allocations, so
  // two partitioned halves can never both act.
  const bool quorate =
      reachable_copies >=
      quorum_threshold(params_.quorum, group, distinguished_reachable);
  if (!quorate) {
    close_span("no_quorum");
    return;
  }

  // The dead head may have reappeared during the settle window (transient
  // unreachability, not death): abandon the reclamation, the REP_ACK path
  // rejoins it.  A quarantined head gets no such reprieve — expulsion is
  // final and its space must be recovered.
  if (!is_quarantined(dead_head) && alive(dead_head) &&
      topology().has_node(dead_head) &&
      topology().reachable(initiator, dead_head)) {
    close_span("head_returned");
    return;
  }

  // Adopt stewardship of the addresses we do not already own (overlap can
  // occur after an isolated-head recovery re-issued the pool, §V-C).
  const AddressBlock adopted = rep.universe.minus(ini.owned_universe);
  ini.owned_universe.merge(adopted);
  for (const auto& r : adopted.ranges()) {
    for (std::uint32_t v = r.lo.value();; ++v) {
      const IpAddress addr(v);
      auto claim = txn.claims.find(addr);
      AddressRecord record = rep.table.get(addr);
      // A recorded holder that sent no claim may simply sit beyond the
      // scoped ADDR_REC flood (it drifted, §IV-C).  Probe it before
      // declaring the address vacant: freeing a live node's address is the
      // one mistake reclamation must never make.
      if (params_.reclaim_probe && claim == txn.claims.end() &&
          record.status == AddressStatus::kAllocated && record.holder != 0) {
        const NodeId holder = record.holder;
        if (alive(holder) && topology().has_node(holder)) {
          const auto d = topology().hop_distance(initiator, holder);
          if (d) {
            transport().stats().record(Traffic::kReclamation, 2ULL * *d, 2);
            const auto& hs = node(holder);
            if (hs.ip == addr) {
              txn.claims.emplace(addr, holder);
              claim = txn.claims.find(addr);
            }
          }
        }
      }
      if (claim != txn.claims.end()) {
        record.status = AddressStatus::kAllocated;
        record.holder = claim->second;
        ++record.timestamp;
        ini.table.install(addr, record);
        // Adopt the claimant into our cluster.
        const NodeId m = claim->second;
        if (alive(m)) {
          send(initiator, m, QipMsg::kAllocChange, Traffic::kReclamation, 0,
               [this, m, initiator](std::uint64_t) {
                 if (!alive(m)) return;
                 auto& ms = node(m);
                 if (ms.role != Role::kCommonNode) return;
                 ms.configurer = initiator;
                 ms.administrator = kNoNode;
                 if (clusters_.is_head(initiator))
                   clusters_.reassign_member(m, initiator);
               });
        }
      } else {
        // Unclaimed: the holder is presumed gone; the address returns to
        // the free pool.
        record.status = AddressStatus::kFree;
        record.holder = 0;
        ++record.timestamp;
        ini.table.install(addr, record);
        if (!ini.ip_space.contains(addr)) ini.ip_space.insert(addr);
      }
      if (v == r.hi.value()) break;
    }
  }
  ++ini.version;
  ini.replicas.erase(dead_head);
  ini.qdset.erase(dead_head);
  replicate_update(initiator, initiator, Traffic::kReclamation);

  // Tell the other survivors of the dead head's group to drop their stale
  // replicas.
  for (NodeId m : rep.owner_qdset) {
    if (m == initiator || !alive(m)) continue;
    send(initiator, m, QipMsg::kReclaimDone, Traffic::kReclamation, 0,
         [this, m, dead_head](std::uint64_t) {
           if (!alive(m)) return;
           auto& ms = node(m);
           ms.replicas.erase(dead_head);
           ms.qdset.erase(dead_head);
           ms.suspect_timers.erase(dead_head);
           ms.probe_timers.erase(dead_head);
         });
  }
  ++reclaims_completed_;
  close_span("reclaimed");
}

}  // namespace qip
