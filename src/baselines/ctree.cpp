#include "baselines/ctree.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qip {

CTreeProtocol::CTreeProtocol(Transport& transport, Rng& rng,
                             CTreeParams params)
    : AutoconfProtocol(transport, rng), params_(params) {}

CTreeProtocol::~CTreeProtocol() {
  update_timer_.cancel();
  for (auto& [id, st] : nodes_) st.bootstrap_timer.cancel();
}

CTreeProtocol::NodeState& CTreeProtocol::node(NodeId id) {
  auto it = nodes_.find(id);
  QIP_ASSERT_MSG(it != nodes_.end(), "unknown node " << id);
  return it->second;
}

std::optional<IpAddress> CTreeProtocol::address_of(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.configured) return std::nullopt;
  return it->second.ip;
}

bool CTreeProtocol::is_coordinator(NodeId id) const {
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.coordinator;
}

std::uint64_t CTreeProtocol::visible_space(NodeId coordinator) const {
  auto it = nodes_.find(coordinator);
  if (it == nodes_.end() || !it->second.coordinator) return 0;
  return it->second.coord.pool.size();
}

double CTreeProtocol::average_visible_space() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [id, st] : nodes_) {
    if (!st.coordinator) continue;
    sum += static_cast<double>(st.coord.pool.size());
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

std::optional<NodeId> CTreeProtocol::coordinator_within(
    NodeId id, std::uint32_t k) const {
  std::optional<std::pair<std::uint32_t, NodeId>> best;
  for (const auto& [n, d] : topology().k_hop_view(id, k)) {
    auto it = nodes_.find(n);
    if (it == nodes_.end() || !it->second.coordinator) continue;
    if (it->second.coord.pool.empty()) continue;
    const std::pair<std::uint32_t, NodeId> cand{d, n};
    if (!best || cand < *best) best = cand;
  }
  if (!best) return std::nullopt;
  return best->second;
}

std::optional<NodeId> CTreeProtocol::nearest_coordinator(NodeId id) const {
  // Fold over the cached BFS instead of materializing a distance map; the
  // minimum over (hops, node) pairs is order-independent.
  std::optional<std::pair<std::uint32_t, NodeId>> best;
  topology().for_each_reachable(id, [&](NodeId n, std::uint32_t d) {
    if (n == id) return;
    auto it = nodes_.find(n);
    if (it == nodes_.end() || !it->second.coordinator) return;
    const std::pair<std::uint32_t, NodeId> cand{d, n};
    if (!best || cand < *best) best = cand;
  });
  if (!best) return std::nullopt;
  return best->second;
}

void CTreeProtocol::node_entered(NodeId id) {
  auto [it, fresh] = nodes_.try_emplace(id);
  if (!fresh) it->second = NodeState{};
  auto& rec = record_for(id);
  rec = ConfigRecord{};
  rec.requested_at = sim().now();

  // Near coordinator: plain address assignment (request/assign, local).
  if (auto c = coordinator_within(id, params_.coord_radius)) {
    transport().unicast(
        id, *c, Traffic::kConfiguration,
        [this, id](NodeId coord, std::uint32_t d) {
          if (!alive(coord) || !alive(id)) return;
          auto& cs = node(coord);
          if (!cs.coordinator || cs.coord.pool.empty()) {
            sim().post(params_.retry_wait, [this, id] {
              if (alive(id) && !node(id).configured) node_entered(id);
            });
            return;
          }
          const IpAddress addr = cs.coord.pool.pop_lowest();
          cs.coord.allocated[addr] = id;
          transport().unicast(
              coord, id, Traffic::kConfiguration,
              [this, id, coord, addr, d](NodeId, std::uint32_t back) {
                if (!alive(id)) return;
                auto& st = node(id);
                if (st.configured) return;
                st.configured = true;
                st.ip = addr;
                st.coordinator_id = coord;
                auto& rec = record_for(id);
                rec.success = true;
                rec.address = addr;
                rec.latency_hops = std::uint64_t{d} + back;
                rec.attempts = 1;
                rec.completed_at = sim().now();
              });
        });
    return;
  }

  // No coordinator nearby: become one with half of the nearest
  // coordinator's pool (C-tree grows an edge).
  if (auto c = nearest_coordinator(id)) {
    transport().unicast(
        id, *c, Traffic::kConfiguration,
        [this, id](NodeId parent, std::uint32_t d) {
          if (!alive(parent) || !alive(id)) return;
          auto& ps = node(parent);
          if (!ps.coordinator || ps.coord.pool.size() < 2) {
            sim().post(params_.retry_wait, [this, id] {
              if (alive(id) && !node(id).configured) node_entered(id);
            });
            return;
          }
          AddressBlock half = ps.coord.pool.split_half();
          ps.coord.universe.erase_all(half);
          transport().unicast(
              parent, id, Traffic::kConfiguration,
              [this, id, parent, half, d](NodeId, std::uint32_t back) {
                if (!alive(id)) return;
                auto& st = node(id);
                if (st.configured) return;
                st.configured = true;
                st.coordinator = true;
                st.coord.universe = half;
                st.coord.pool = half;
                st.ip = st.coord.pool.pop_lowest();
                st.coord.allocated[st.ip] = id;
                st.coord.parent = parent;
                st.coordinator_id = parent;
                auto& rec = record_for(id);
                rec.success = true;
                rec.address = st.ip;
                rec.latency_hops = std::uint64_t{d} + back;
                rec.attempts = 1;
                rec.completed_at = sim().now();
              });
        });
    return;
  }

  bootstrap(id);
}

void CTreeProtocol::bootstrap(NodeId id) {
  auto& st = node(id);
  if (st.configured) return;
  if (nearest_coordinator(id)) {
    node_entered(id);
    return;
  }
  if (st.bootstrap_tries >= params_.max_r) {
    st.configured = true;
    st.coordinator = true;
    st.coord.universe =
        AddressBlock::contiguous(params_.pool_base, params_.pool_size);
    st.coord.pool = st.coord.universe;
    st.ip = st.coord.pool.pop_lowest();
    st.coord.allocated[st.ip] = id;
    st.coord.parent = kNoNode;
    if (root_ == kNoNode) root_ = id;  // the first node is the C-root
    auto& rec = record_for(id);
    rec.success = true;
    rec.address = st.ip;
    rec.latency_hops = params_.max_r;
    rec.attempts = params_.max_r;
    rec.completed_at = sim().now();
    return;
  }
  ++st.bootstrap_tries;
  transport().stats().record(Traffic::kConfiguration, 1);
  st.bootstrap_timer =
      sim().after(params_.retry_wait, [this, id] { bootstrap(id); });
}

// ---------------------------------------------------------------------------
// Periodic updates to the C-root
// ---------------------------------------------------------------------------

void CTreeProtocol::start_updates() {
  if (updates_running_) return;
  updates_running_ = true;
  update_timer_ = sim().after(params_.update_interval, [this] {
    update_tick();
    updates_running_ = false;
    start_updates();
  });
}

void CTreeProtocol::update_tick() {
  if (root_ == kNoNode || !alive(root_) || !topology().has_node(root_)) {
    // C-root gone: [3] has no recovery; the protocol limps on without
    // global state (exactly the weakness Fig. 13 probes).
    return;
  }
  // Every coordinator unicasts its allocation table to the root.
  std::set<NodeId> missing;
  for (const auto& [coordinator, view] : root_view_) missing.insert(coordinator);
  for (auto& [id, st] : nodes_) {
    if (!st.coordinator || !topology().has_node(id)) continue;
    missing.erase(id);
    if (id == root_) {
      root_view_[id] = st.coord.allocated;
      continue;
    }
    transport().unicast(
        id, root_, Traffic::kMaintenance,
        [this, id, table = st.coord.allocated](NodeId, std::uint32_t) {
          root_view_[id] = table;
        });
  }
  // Coordinators that failed to report are presumed dead: the root starts
  // address reclamation for them (§[3], root-driven).
  for (NodeId dead : missing) {
    if (alive(dead) && topology().has_node(dead) &&
        topology().reachable(root_, dead)) {
      continue;  // merely quiet this round
    }
    if (reclaimed_.insert(dead).second) root_reclaim(dead);
  }
}

void CTreeProtocol::root_reclaim(NodeId dead_coordinator) {
  // The root floods a collection request through the whole network; every
  // node configured by the dead coordinator replies to the root directly.
  auto view = root_view_.find(dead_coordinator);
  if (view == root_view_.end()) return;
  transport().flood_component_view(
      root_, Traffic::kReclamation,
      [this, dead_coordinator](NodeId n, std::uint32_t) {
        if (!alive(n)) return;
        auto& st = node(n);
        if (!st.configured || st.coordinator_id != dead_coordinator) return;
        transport().unicast(n, root_, Traffic::kReclamation,
                            [](NodeId, std::uint32_t) {});
      });
  root_view_.erase(view);
}

// ---------------------------------------------------------------------------
// Departure
// ---------------------------------------------------------------------------

void CTreeProtocol::node_departing(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.configured) return;
  auto& st = it->second;

  if (!st.coordinator) {
    // [3] returns a leaver's address to the *nearest* coordinator, not the
    // issuing one — the very behavior the paper blames for long-run address
    // fragmentation (§VI-C).  The receiver absorbs a foreign address into
    // its pool; the issuer merely forgets the allocation at the next root
    // update cycle.
    auto nearest = nearest_coordinator(id);
    if (!nearest || !alive(*nearest)) return;
    const NodeId c = *nearest;
    const NodeId issuer = st.coordinator_id;
    const IpAddress addr = st.ip;
    transport().unicast(
        id, c, Traffic::kDeparture,
        [this, c, issuer, addr](NodeId, std::uint32_t) {
          if (!alive(c)) return;
          auto& cs = node(c);
          if (!cs.coordinator) return;
          if (!cs.coord.universe.contains(addr)) cs.coord.universe.insert(addr);
          if (!cs.coord.pool.contains(addr)) cs.coord.pool.insert(addr);
          cs.coord.allocated.erase(addr);
          if (issuer != c && alive(issuer) && is_coordinator(issuer)) {
            auto& is = node(issuer);
            is.coord.allocated.erase(addr);
            if (is.coord.universe.contains(addr))
              is.coord.universe.erase(addr);
          }
        });
    return;
  }

  // Coordinator: return the pool to the parent (or any coordinator).
  NodeId target = st.coord.parent;
  if (target == kNoNode || !alive(target) || !is_coordinator(target) ||
      !topology().has_node(target) || !topology().reachable(id, target)) {
    auto nearest = nearest_coordinator(id);
    if (!nearest) return;
    target = *nearest;
  }
  AddressBlock returned = st.coord.pool;
  if (st.coord.universe.contains(st.ip) && !returned.contains(st.ip))
    returned.insert(st.ip);
  transport().unicast(
      id, target, Traffic::kDeparture,
      [this, target, returned, leaver = id](NodeId, std::uint32_t) {
        if (!alive(target)) return;
        auto& ts = node(target);
        if (!ts.coordinator) return;
        const AddressBlock fresh = returned.minus(ts.coord.pool);
        ts.coord.pool.merge(fresh);
        ts.coord.universe.merge(fresh.minus(ts.coord.universe));
        root_view_.erase(leaver);
      });
}

void CTreeProtocol::node_left(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  it->second.bootstrap_timer.cancel();
  nodes_.erase(it);
}

void CTreeProtocol::node_vanished(NodeId id) { node_left(id); }

// ---------------------------------------------------------------------------
// Information-loss accounting (Fig. 13)
// ---------------------------------------------------------------------------

AddressBlock CTreeProtocol::pool_of(NodeId coordinator) const {
  auto it = nodes_.find(coordinator);
  if (it == nodes_.end() || !it->second.coordinator) return {};
  return it->second.coord.pool;
}

std::uint64_t CTreeProtocol::allocations_of(NodeId coordinator) const {
  auto it = nodes_.find(coordinator);
  if (it == nodes_.end() || !it->second.coordinator) return 0;
  return it->second.coord.allocated.size();
}

std::uint64_t CTreeProtocol::info_loss_if_dead(
    const std::set<NodeId>& dead) const {
  const bool root_dead = dead.count(root_) != 0;
  std::uint64_t lost = 0;
  for (const auto& [id, st] : nodes_) {
    if (!st.coordinator || !dead.count(id)) continue;
    if (root_dead) {
      // No surviving copy anywhere.
      lost += st.coord.allocated.size();
      continue;
    }
    // The root's last snapshot survives; allocations made since then (or
    // never reported) are lost.
    auto view = root_view_.find(id);
    if (view == root_view_.end()) {
      lost += st.coord.allocated.size();
      continue;
    }
    for (const auto& [addr, holder] : st.coord.allocated) {
      if (!view->second.count(addr)) ++lost;
    }
  }
  return lost;
}

}  // namespace qip
