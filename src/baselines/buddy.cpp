#include "baselines/buddy.hpp"

#include "util/assert.hpp"

namespace qip {

BuddyProtocol::BuddyProtocol(Transport& transport, Rng& rng,
                             BuddyParams params)
    : AutoconfProtocol(transport, rng), params_(params) {}

BuddyProtocol::~BuddyProtocol() {
  sync_timer_.cancel();
  for (auto& [id, st] : nodes_) st.bootstrap_timer.cancel();
}

BuddyProtocol::NodeState& BuddyProtocol::node(NodeId id) {
  auto it = nodes_.find(id);
  QIP_ASSERT_MSG(it != nodes_.end(), "unknown node " << id);
  return it->second;
}

std::optional<IpAddress> BuddyProtocol::address_of(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.configured) return std::nullopt;
  return it->second.ip;
}

const AddressBlock& BuddyProtocol::block_of(NodeId id) const {
  auto it = nodes_.find(id);
  QIP_ASSERT(it != nodes_.end());
  return it->second.block;
}

std::optional<NodeId> BuddyProtocol::nearest_configured(NodeId id) const {
  // Fold over the cached BFS instead of materializing a distance map; the
  // minimum over (hops, node) pairs is order-independent.
  std::optional<std::pair<std::uint32_t, NodeId>> best;
  topology().for_each_reachable(id, [&](NodeId n, std::uint32_t d) {
    if (n == id) return;
    auto it = nodes_.find(n);
    if (it == nodes_.end() || !it->second.configured) return;
    // Prefer allocators that can still split (≥ 2 spare addresses).
    if (it->second.block.size() < 2) return;
    const std::pair<std::uint32_t, NodeId> cand{d, n};
    if (!best || cand < *best) best = cand;
  });
  if (!best) return std::nullopt;
  return best->second;
}

void BuddyProtocol::node_entered(NodeId id) {
  auto [it, fresh] = nodes_.try_emplace(id);
  if (!fresh) it->second = NodeState{};
  auto& rec = record_for(id);
  rec = ConfigRecord{};
  rec.requested_at = sim().now();

  auto alloc = nearest_configured(id);
  if (!alloc) {
    bootstrap(id);
    return;
  }
  // One request/assign exchange: the allocator splits its block in half and
  // hands the upper half over — no global coordination needed.
  transport().unicast(
      id, *alloc, Traffic::kConfiguration,
      [this, id](NodeId allocator, std::uint32_t d) {
        if (!alive(allocator) || !alive(id)) return;
        auto& a = node(allocator);
        if (!a.configured || a.block.size() < 2) {
          // Raced empty; requestor retries.
          sim().post(params_.retry_wait, [this, id] {
            if (alive(id) && !node(id).configured) node_entered(id);
          });
          return;
        }
        AddressBlock half = a.block.split_half();
        a.buddy = id;
        transport().unicast(
            allocator, id, Traffic::kConfiguration,
            [this, id, allocator, half, d,
             table = a.global_table](NodeId, std::uint32_t back) {
              if (!alive(id)) return;
              auto& st = node(id);
              if (st.configured) return;
              st.configured = true;
              st.block = half;
              st.ip = st.block.pop_lowest();
              st.buddy = allocator;
              st.global_table = table;
              st.global_table[id] = st.ip;
              auto& rec = record_for(id);
              rec.success = true;
              rec.address = st.ip;
              rec.latency_hops = std::uint64_t{d} + back;
              rec.attempts = 1;
              rec.completed_at = sim().now();
            });
      });
}

void BuddyProtocol::bootstrap(NodeId id) {
  auto& st = node(id);
  if (st.configured) return;
  if (nearest_configured(id)) {
    node_entered(id);
    return;
  }
  if (st.bootstrap_tries >= params_.max_r) {
    st.configured = true;
    st.block = AddressBlock::contiguous(params_.pool_base, params_.pool_size);
    st.ip = st.block.pop_lowest();
    st.global_table[id] = st.ip;
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
// Periodic global synchronization — the protocol's defining cost ([2]).
// ---------------------------------------------------------------------------

void BuddyProtocol::start_sync() {
  if (sync_running_) return;
  sync_running_ = true;
  sync_timer_ = sim().after(params_.sync_interval, [this] {
    sync_tick();
    sync_running_ = false;
    start_sync();
  });
}

void BuddyProtocol::sync_tick() {
  // Every configured node floods its view of the allocation table so that
  // all tables converge; one network-wide flood per node per period.
  std::vector<NodeId> configured;
  for (const auto& [id, st] : nodes_) {
    if (st.configured && topology().has_node(id)) configured.push_back(id);
  }
  for (NodeId id : configured) {
    transport().flood_component_view(
        id, Traffic::kMaintenance,
        [this, id](NodeId n, std::uint32_t) {
          if (!alive(n) || !alive(id)) return;
          auto& receiver = node(n);
          if (!receiver.configured) return;
          const auto& sender = node(id);
          for (const auto& [node_id, addr] : sender.global_table)
            receiver.global_table[node_id] = addr;
        });
  }
  // Buddy liveness: a node whose buddy became unreachable absorbs nothing
  // here (the block was the buddy's to lose) but announces the loss so
  // tables drop the entry — detection of address leaking via buddies ([2]).
  for (NodeId id : configured) {
    auto& st = node(id);
    if (st.buddy == kNoNode) continue;
    const bool gone = !alive(st.buddy) || !topology().has_node(st.buddy) ||
                      !topology().reachable(id, st.buddy);
    if (!gone) continue;
    const NodeId lost = st.buddy;
    st.buddy = kNoNode;
    transport().flood_component_view(
        id, Traffic::kReclamation, [this, lost](NodeId n, std::uint32_t) {
          if (!alive(n)) return;
          node(n).global_table.erase(lost);
        });
  }
}

// ---------------------------------------------------------------------------
// Departure
// ---------------------------------------------------------------------------

void BuddyProtocol::node_departing(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.configured) return;
  auto& st = it->second;
  // Return block + address to the buddy (or nearest configured node when the
  // buddy is gone); the periodic sync spreads the news.
  NodeId target = st.buddy;
  if (target == kNoNode || !alive(target) || !topology().has_node(target) ||
      !topology().reachable(id, target)) {
    auto nearest = nearest_configured(id);
    if (!nearest) return;  // last node leaves; pool evaporates
    target = *nearest;
  }
  AddressBlock returned = st.block;
  if (!returned.contains(st.ip)) returned.insert(st.ip);
  transport().unicast(
      id, target, Traffic::kDeparture,
      [this, leaver = id, returned](NodeId t, std::uint32_t) {
        if (!alive(t)) return;
        auto& ts = node(t);
        ts.block.merge(returned.minus(ts.block));
        ts.global_table.erase(leaver);
        if (ts.buddy == leaver) ts.buddy = kNoNode;
      });
}

void BuddyProtocol::node_left(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  it->second.bootstrap_timer.cancel();
  nodes_.erase(it);
}

void BuddyProtocol::node_vanished(NodeId id) {
  // Abrupt: the block leaks until a buddy notices at the next sync round.
  node_left(id);
}

}  // namespace qip
