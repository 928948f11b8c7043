// QipEngine: network partition and merging (§V-C).
//
// Every node carries the id of its logical network (the lowest IP present
// when the network formed, inherited at configuration).  A merge is detected
// when two adjacent nodes carry different ids: the network with the larger
// id dissolves and its nodes rejoin the other network one by one through the
// ordinary configuration flow.  A cluster head isolated from every other
// head regains the full pool and starts a fresh network for its members.
#include "core/qip_engine.hpp"

#include "sim/sim_context.hpp"

namespace qip {

void QipEngine::merge_scan() {
  // Detect one boundary per tick (hello exchange carries the network id);
  // remaining boundaries surface on later ticks.  Two different pools
  // (distinct epoch nonces) merge by dissolving the larger-id network; two
  // sides of one healed pool (same nonce) reconcile in place — their
  // address blocks are fragments of the same space and must not evaporate.
  nodes_.scan([&](NodeId id, const QipNodeState& st) {
    if (st.role == Role::kUnconfigured || !topology().has_node(id))
      return false;
    for (NodeId nb : topology().neighbors_view(id)) {
      if (!alive(nb)) continue;
      const auto& other = node(nb);
      if (other.role == Role::kUnconfigured) continue;
      if (other.network_id == st.network_id) {
        if (!params_.heal_on_conflict_evidence) continue;
        // Same network id: the ids never diverged, but a reclamation may
        // still have re-issued an address a stranded node holds (the
        // stranded side kept the network's lowest IP in sight, so no
        // boundary ever forms).  The hello exchange cross-checks claims;
        // three pieces of hard evidence — each impossible while the quorum
        // invariants hold — trigger the same component-wide freshness
        // reconciliation a heal runs:
        const bool same_ip = st.ip && other.ip && *st.ip == *other.ip;
        bool stale_claim = false;
        if (st.role == Role::kClusterHead && other.ip &&
            st.owned_universe.contains(*other.ip)) {
          const auto rec = st.table.get(*other.ip);
          stale_claim =
              rec.status == AddressStatus::kAllocated && rec.holder != nb;
        }
        const bool overlap =
            st.role == Role::kClusterHead &&
            other.role == Role::kClusterHead &&
            !st.owned_universe.disjoint_with(other.owned_universe);
        if (same_ip || stale_claim || overlap) {
          heal_partition(id);
          return true;
        }
        continue;
      }
      if (other.network_id.nonce == st.network_id.nonce) {
        heal_partition(id);
        return true;
      }
      const NetworkId winner = std::min(st.network_id, other.network_id);
      const NetworkId loser = std::max(st.network_id, other.network_id);
      const NodeId detector = st.network_id == winner ? id : nb;
      absorb_network(detector, loser);
      return true;
    }
    return false;
  });
}

void QipEngine::heal_partition(NodeId detector) {
  // Two partitions of one pool reconnected (§V-C).  Quorum voting kept the
  // two sides from double-allocating, but a majority-side reclamation may
  // have re-issued an address a stranded minority node still holds, and two
  // heads may both believe they own a reclaimed block.  The sides exchange
  // allocation tables (one component flood) and resolve every conflict by
  // the freshest timestamp; losing holders reconfigure.
  ++merges_handled_;
  if (!topology().has_node(detector)) return;
  if (ctx().tracing_on()) {
    ctx().recorder().instant(sim().now(), "partition_heal",
                                           "cluster", detector);
  }
  transport().flood_component_view(detector, Traffic::kPartition,
                              [](NodeId, std::uint32_t) {});
  trace(QipMsg::kMergePoll, detector, kNoNode, 0, "partition heal");

  const auto& component = topology().component_view(detector);
  std::vector<NodeId> heads;
  for (NodeId id : component) {
    if (is_head(id)) heads.push_back(id);
  }

  // 1. Steward conflicts: two heads whose universes overlap.  Per address,
  // the newer record wins; the loser drops the address entirely.
  for (std::size_t i = 0; i < heads.size(); ++i) {
    for (std::size_t j = i + 1; j < heads.size(); ++j) {
      auto& a = node(heads[i]);
      auto& b = node(heads[j]);
      if (a.owned_universe.disjoint_with(b.owned_universe)) continue;
      const AddressBlock overlap =
          a.owned_universe.minus(a.owned_universe.minus(b.owned_universe));
      transport().stats().record(Traffic::kPartition, 2, 2);  // table swap
      for (const auto& r : overlap.ranges()) {
        for (std::uint32_t v = r.lo.value();; ++v) {
          const IpAddress addr(v);
          const auto ra = a.table.get(addr);
          const auto rb = b.table.get(addr);
          // Tie-break by id so the outcome is deterministic.
          const bool a_wins = ra.timestamp > rb.timestamp ||
                              (ra.timestamp == rb.timestamp &&
                               heads[i] < heads[j]);
          auto& loser = a_wins ? b : a;
          loser.owned_universe.erase(addr);
          if (loser.ip_space.contains(addr)) loser.ip_space.erase(addr);
          loser.table.erase(addr);
          ++loser.version;
          if (v == r.hi.value()) break;
        }
      }
    }
  }

  // 2. Holder conflicts: a configured node whose address the (single)
  // steward has re-issued or freed must acquire a new address.
  for (NodeId id : component) {
    if (!alive(id)) continue;
    auto& st = node(id);
    if (!st.ip || st.role == Role::kUnconfigured) continue;
    NodeId steward = kNoNode;
    for (NodeId h : heads) {
      if (alive(h) && node(h).owned_universe.contains(*st.ip)) {
        steward = h;
        break;  // universes are disjoint after step 1
      }
    }
    if (steward == kNoNode) continue;  // stewardless: no conflict possible
    const auto rec = node(steward).table.get(*st.ip);
    if (rec.status == AddressStatus::kAllocated && rec.holder == id) continue;
    if (rec.status == AddressStatus::kFree) {
      // Not a conflict: a write round still in flight, or a reclamation
      // that freed a stranded member's address without re-issuing it.  The
      // steward simply reinstates the record (one repair exchange).
      auto& sw = node(steward);
      sw.table.commit_allocate(*st.ip, id, rec.timestamp);
      if (sw.ip_space.contains(*st.ip)) sw.ip_space.erase(*st.ip);
      ++sw.version;
      transport().stats().record(Traffic::kPartition, 2, 2);
      continue;
    }
    // Allocated to someone else: the stranded copy loses and reconfigures.
    if (st.role == Role::kClusterHead) {
      // A head that lost its own identity address dissolves and rejoins;
      // its remaining universe returns to the steward.
      const ReplicaCopy payload = snapshot_space(id, id);
      auto& sw = node(steward);
      const AddressBlock fresh = payload.universe.minus(sw.owned_universe);
      sw.owned_universe.merge(fresh);
      sw.table.merge_newer(payload.table);
      sw.ip_space = derive_free_pool(sw.owned_universe, sw.table);
      ++sw.version;
      clusters_.remove(id);
    } else {
      clusters_.remove(id);
    }
    st.cancel_timers();
    st = QipNodeState{};
    const NodeId reentry = id;
    sim().post(0.1, [this, reentry] {
      if (!alive(reentry) || !topology().has_node(reentry)) return;
      // An in-flight configuration may have landed meanwhile.
      if (node(reentry).role != Role::kUnconfigured) return;
      auto& rec2 = record_for(reentry);
      rec2 = ConfigRecord{};
      rec2.requested_at = sim().now();
      start_configuration(reentry);
    });
  }

  // 3. Unify the network id across the healed epoch group (the refresh
  // would do it next tick; doing it now stops repeated heal detections).
  if (!alive(detector)) return;
  const std::uint64_t nonce = node(detector).network_id.nonce;
  std::optional<IpAddress> low;
  for (NodeId id : component) {
    if (!alive(id)) continue;
    const auto& st = node(id);
    if (st.role == Role::kUnconfigured || !st.ip) continue;
    if (st.network_id.nonce != nonce) continue;
    if (!low || *st.ip < *low) low = *st.ip;
  }
  if (low) {
    for (NodeId id : component) {
      if (!alive(id)) continue;
      auto& st = node(id);
      if (st.role == Role::kUnconfigured || !st.ip) continue;
      if (st.network_id.nonce == nonce) st.network_id.low = *low;
    }
  }
}

void QipEngine::absorb_network(NodeId detector, NetworkId loser_id) {
  ++merges_handled_;

  // The detector floods a merge poll so every node of the losing network
  // learns it must reconfigure (§V-C: "all the nodes in the network with the
  // larger network ID are required to acquire new IP addresses").
  // Only losers in the detector's component reconfigure — nodes of the
  // losing network that are out of reach cannot hear the merge flood and
  // will be detected at their own boundary when they come back.
  // The component is sorted by id, the order the rejoins are staggered in.
  std::vector<NodeId> losers;
  if (topology().has_node(detector)) {
    for (NodeId id : topology().component_view(detector)) {
      const QipNodeState* st = nodes_.find(id);
      if (st == nullptr || st->role == Role::kUnconfigured) continue;
      if (st->network_id == loser_id) losers.push_back(id);
    }
  }
  if (losers.empty()) return;
  if (ctx().tracing_on()) {
    ctx().recorder().instant(
        sim().now(), "network_merge", "cluster", detector,
        {{"losers", static_cast<std::uint64_t>(losers.size())}});
  }
  transport().flood_component_view(detector, Traffic::kPartition,
                              [](NodeId, std::uint32_t) {});
  trace(QipMsg::kMergePoll, detector, kNoNode, 0, "merge flood");

  // Dissolve the losing network: heads first drop their head state (their
  // address space belongs to the dissolved network), then everyone rejoins
  // one by one, staggered so configurations serialize naturally.
  SimTime stagger = 0.0;
  for (NodeId id : losers) {
    auto& st = node(id);
    if (st.role == Role::kClusterHead) clusters_.remove(id);
    else if (st.role == Role::kCommonNode) clusters_.remove(id);
    st.cancel_timers();
    st = QipNodeState{};
    stagger += 0.05;
    sim().post(stagger, [this, id] {
      if (!alive(id) || !topology().has_node(id)) return;
      // An in-flight configuration may have landed meanwhile.
      if (node(id).role != Role::kUnconfigured) return;
      auto& rec = record_for(id);
      rec = ConfigRecord{};
      rec.requested_at = sim().now();
      start_configuration(id);
    });
  }
}

void QipEngine::isolated_head_recovery(NodeId head) {
  // §V-C "isolated cluster head": partitioned from all other heads, unable
  // to assemble any quorum.  It becomes the first head of a fresh network,
  // regains the whole pool and reconfigures its surviving members.
  auto& st = node(head);
  QIP_ASSERT(st.role == Role::kClusterHead);
  if (ctx().tracing_on()) {
    ctx().recorder().instant(sim().now(), "isolated_head_recovery",
                                           "cluster", head);
  }

  st.qdset.clear();
  st.replicas.clear();
  st.suspect_timers.clear();
  st.probe_timers.clear();
  st.owned_universe =
      AddressBlock::contiguous(params_.pool_base, params_.pool_size);
  st.ip_space = st.owned_universe;
  st.table = AllocationTable{};
  const IpAddress self_ip = st.ip_space.pop_lowest();
  st.ip = self_ip;
  st.table.commit_allocate(self_ip, head, 0);
  ++st.version;
  st.network_id = NetworkId{self_ip, rng().next()};
  st.configurer = head;

  // Reconfigure reachable members with fresh addresses (two-hop exchange
  // each, charged to partition traffic).
  for (NodeId m : clusters_.members_of(head)) {
    if (!alive(m) || !topology().has_node(m)) continue;
    if (!topology().reachable(head, m)) continue;
    if (st.ip_space.empty()) break;
    const IpAddress addr = st.ip_space.pop_lowest();
    st.table.commit_allocate(addr, m, 0);
    ++st.version;
    send(head, m, QipMsg::kComCfg, Traffic::kPartition, 0,
         [this, m, head, addr, net = st.network_id](std::uint64_t) {
           if (!alive(m)) return;
           auto& ms = node(m);
           if (ms.role != Role::kCommonNode) return;
           ms.ip = addr;
           ms.configurer = head;
           ms.administrator = kNoNode;
           ms.network_id = net;
           auto& rec = record_for(m);
           rec.success = true;
           rec.address = addr;
         },
         addr);
  }
}

}  // namespace qip
