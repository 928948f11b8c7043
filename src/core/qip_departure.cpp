// QipEngine: node movement-out and departure handling (§IV-C, graceful and
// abrupt).
#include "core/qip_engine.hpp"

#include <limits>

namespace qip {

void QipEngine::node_departing(NodeId id) {
  if (!alive(id)) return;
  auto& st = node(id);
  switch (st.role) {
    case Role::kUnconfigured:
      break;  // nothing to return
    case Role::kCommonNode:
      depart_common(id);
      break;
    case Role::kClusterHead:
      depart_head(id);
      break;
  }
}

void QipEngine::node_left(NodeId id) {
  QipNodeState* st = nodes_.find(id);
  if (st == nullptr) return;
  st->cancel_timers();
  nodes_.erase(id);
  clusters_.remove(id);
  // Transactions this node was coordinating die with it; their requestors
  // retry through the failure path.
  std::vector<std::uint64_t> orphaned;
  for (const auto& [txn_id, txn] : txns_) {
    if (txn.allocator == id) orphaned.push_back(txn_id);
  }
  for (std::uint64_t txn_id : orphaned) {
    auto txn_it = txns_.find(txn_id);
    if (txn_it != txns_.end()) finish_config_failure(txn_it->second);
  }
  // The ConfigRecord is kept: latency figures aggregate over every
  // configuration ever completed, including departed nodes.
}

void QipEngine::node_vanished(NodeId id) {
  // Abrupt: identical local cleanup, but no messages were sent — peers keep
  // stale state about `id` until hello scans and reclamation catch up.
  node_left(id);
}

// ---------------------------------------------------------------------------
// Common node departure (§IV-C.1)
// ---------------------------------------------------------------------------

void QipEngine::depart_common(NodeId id) {
  auto& st = node(id);
  QIP_ASSERT(st.ip.has_value());
  const IpAddress addr = *st.ip;
  const NodeId configurer = st.configurer;

  // RETURN_ADDR (configurer, IP) to the nearest cluster head; the address is
  // then routed back to its allocator or a QDSet member of the allocator.
  auto nearest = clusters_.nearest_head(id);
  if (!nearest || !alive(*nearest)) return;  // leaks until reclamation
  const NodeId d = *nearest;
  send(id, d, QipMsg::kReturnAddr, Traffic::kDeparture, 0,
       [this, d, id, configurer, addr](std::uint64_t h) {
         handle_return_addr(d, id, configurer, addr, h, /*ttl=*/4);
       },
       addr);
  // The head acknowledges; the node leaves once the ack arrives (the harness
  // keeps it in the topology for the settle window).
  send(d, id, QipMsg::kReturnAck, Traffic::kDeparture, 0,
       [](std::uint64_t) {});
}

void QipEngine::handle_return_addr(NodeId receiver, NodeId leaver,
                                   NodeId configurer, IpAddress addr,
                                   std::uint64_t hops, std::uint32_t ttl) {
  if (!is_head(receiver)) return;
  auto& r = node(receiver);

  // Case 1: we own the address — free it and run the write round.
  if (r.owned_universe.contains(addr)) {
    free_owned_address(receiver, addr, Traffic::kDeparture);
    return;
  }

  // Case 2: we hold a replica of the owner: forward to the owner when alive,
  // else update the replica group directly (we are "a cluster head E which
  // belongs to the QDSet of the configurer", §IV-C.1).
  for (auto& [owner, rep] : r.replicas) {
    if (!rep.universe.contains(addr)) continue;
    if (alive(owner) && is_head(owner)) {
      send(receiver, owner, QipMsg::kReturnAddr, Traffic::kDeparture, hops,
           [this, owner, leaver, configurer, addr, ttl](std::uint64_t h) {
             handle_return_addr(owner, leaver, configurer, addr, h,
                                ttl > 0 ? ttl - 1 : 0);
           },
           addr);
    } else {
      rep.table.commit_free(addr, rep.table.get(addr).timestamp);
      // The replica may already consider the address free (e.g. a
      // reclamation missed this holder's claim); freeing is idempotent.
      // The version stays: only owners mint versions, the freed record
      // travels by its timestamp.
      if (!rep.free_pool.contains(addr)) rep.free_pool.insert(addr);
      replicate_update(receiver, owner, Traffic::kDeparture);
    }
    return;
  }

  // Case 3: forward toward the reported configurer.  An address that cannot
  // be routed leaks until reclamation.
  if (ttl > 0 && configurer != receiver && alive(configurer) &&
      is_head(configurer)) {
    send(receiver, configurer, QipMsg::kReturnAddr, Traffic::kDeparture, hops,
         [this, configurer, leaver, addr, ttl](std::uint64_t h) {
           handle_return_addr(configurer, leaver, configurer, addr, h,
                              ttl - 1);
         },
         addr);
  }
}

void QipEngine::free_owned_address(NodeId owner, IpAddress addr,
                                   Traffic traffic) {
  if (!is_head(owner)) return;
  auto& o = node(owner);
  if (!o.owned_universe.contains(addr)) return;
  if (o.ip_space.contains(addr)) return;  // already free
  o.table.commit_free(addr, o.table.get(addr).timestamp);
  o.ip_space.insert(addr);
  ++o.version;
  replicate_update(owner, owner, traffic);
}

// ---------------------------------------------------------------------------
// Cluster head departure (§IV-C.2)
// ---------------------------------------------------------------------------

void QipEngine::depart_head(NodeId id) {
  auto& st = node(id);

  // Choose the recipient of our IP block: the configurer when still within
  // qdset_radius hops, else the QDSet member with the smallest IPSpace.
  NodeId target = kNoNode;
  if (st.configurer != id && alive(st.configurer) && is_head(st.configurer)) {
    auto d = topology().hop_distance(id, st.configurer);
    if (d && *d <= params_.qdset_radius) target = st.configurer;
  }
  if (target == kNoNode) {
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (NodeId h : st.qdset) {
      if (!alive(h) || !is_head(h)) continue;
      auto it = st.replicas.find(h);
      const std::uint64_t size =
          it != st.replicas.end() ? it->second.free_pool.size()
                                  : std::numeric_limits<std::uint64_t>::max();
      if (size < best) {
        best = size;
        target = h;
      }
    }
  }
  if (target == kNoNode) {
    // Fall back to any reachable head; if none, the block evaporates (last
    // head leaving the network).
    auto nearest = clusters_.nearest_head(id);
    if (nearest && alive(*nearest)) target = *nearest;
  }

  const auto members = clusters_.members_of(id);

  if (target != kNoNode) {
    // Hand the whole space over: universe, free pool, allocation records.
    ReplicaCopy payload = snapshot_space(id, id);
    // Our own identity address is released with us.  (It may already appear
    // free if a remote reclamation raced us and freed our record.)
    if (st.ip && payload.universe.contains(*st.ip)) {
      payload.table.commit_free(*st.ip, payload.table.get(*st.ip).timestamp);
      if (!payload.free_pool.contains(*st.ip))
        payload.free_pool.insert(*st.ip);
    }
    send(id, target, QipMsg::kBlockReturn, Traffic::kDeparture, 0,
         [this, target, members, leaver = id, payload](std::uint64_t) {
           if (!is_head(target)) return;
           auto& t = node(target);
           // Only adopt addresses we do not already own (overlap can occur
           // after an isolated-head recovery re-issued the pool, §V-C).
           const AddressBlock fresh = payload.universe.minus(t.owned_universe);
           t.owned_universe.merge(fresh);
           t.table.merge_newer(payload.table);
           t.ip_space = derive_free_pool(t.owned_universe, t.table);
           ++t.version;
           t.replicas.erase(leaver);
           t.qdset.erase(leaver);
           replicate_update(target, target, Traffic::kDeparture);
           // "Cluster head A or S will inform each node configured by U the
           // change of their allocator accordingly."
           for (NodeId m : members) {
             if (!alive(m)) continue;
             send(target, m, QipMsg::kAllocChange, Traffic::kDeparture, 0,
                  [this, m, target](std::uint64_t) {
                    if (!alive(m)) return;
                    auto& ms = node(m);
                    if (ms.role != Role::kCommonNode) return;
                    ms.configurer = target;
                    if (clusters_.is_head(target))
                      clusters_.reassign_member(m, target);
                  });
           }
         },
         st.owned_universe);
  }

  // Resign from every QDSet we are a member of.
  for (NodeId h : st.qdset) {
    if (!alive(h)) continue;
    send(id, h, QipMsg::kResign, Traffic::kDeparture, 0,
         [this, h, leaver = id](std::uint64_t) {
           if (!alive(h)) return;
           auto& hs = node(h);
           hs.qdset.erase(leaver);
           hs.replicas.erase(leaver);
           hs.suspect_timers.erase(leaver);
           hs.probe_timers.erase(leaver);
         });
  }
}

}  // namespace qip
