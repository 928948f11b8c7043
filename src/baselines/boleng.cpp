#include "baselines/boleng.hpp"

#include <map>

#include "util/assert.hpp"

namespace qip {

BolengProtocol::BolengProtocol(Transport& transport, Rng& rng,
                               BolengParams params)
    : AutoconfProtocol(transport, rng), params_(params) {}

BolengProtocol::~BolengProtocol() { beacon_timer_.cancel(); }

BolengProtocol::NodeState& BolengProtocol::node(NodeId id) {
  auto it = nodes_.find(id);
  QIP_ASSERT_MSG(it != nodes_.end(), "unknown node " << id);
  return it->second;
}

std::optional<IpAddress> BolengProtocol::address_of(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.configured) return std::nullopt;
  return it->second.ip;
}

std::uint32_t BolengProtocol::bits_for(IpAddress base, IpAddress a) {
  const std::uint32_t offset = a.value() - base.value();
  std::uint32_t bits = 1;
  while ((offset >> bits) != 0) ++bits;
  return bits;
}

std::uint32_t BolengProtocol::address_bits(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second.bits;
}

void BolengProtocol::node_entered(NodeId id) {
  auto [slot, fresh] = nodes_.try_emplace(id);
  if (!fresh) slot->second = NodeState{};
  auto& rec = record_for(id);
  rec = ConfigRecord{};
  rec.requested_at = sim().now();

  // Learn the current maximum from one overheard packet of any configured
  // neighbor-reachable node (the parameters ride on every data packet, so a
  // single query/overhear suffices); an empty network starts at the base.
  IpAddress current_max = params_.pool_base.prev();  // "none assigned"
  std::uint64_t latency = 0;
  auto reach = topology().hop_distances_from(id);
  NodeId informant = kNoNode;
  std::uint32_t best = ~0u;
  for (const auto& [n, d] : reach) {
    if (n == id || !alive(n)) continue;
    const auto& st = node(n);
    if (!st.configured) continue;
    if (d < best) {
      best = d;
      informant = n;
    }
  }
  if (informant != kNoNode) {
    transport().stats().record(Traffic::kConfiguration, 2ULL * best, 2);
    latency = 2ULL * best;
    current_max = node(informant).max_seen;
    // The parameters ride on every packet, so the whole one-hop
    // neighborhood is heard essentially for free; take the freshest view.
    for (NodeId nb : topology().neighbors_view(id)) {
      if (!alive(nb)) continue;
      const auto& ns = node(nb);
      if (ns.configured && ns.max_seen > current_max)
        current_max = ns.max_seen;
    }
  }

  auto& st = node(id);
  st.ip = informant == kNoNode ? params_.pool_base : current_max.next();
  st.max_seen = st.ip;
  st.bits = bits_for(params_.pool_base, st.ip);
  st.configured = true;

  // Announce the new maximum right away (one transmission): neighbors adopt
  // it, which is what keeps back-to-back arrivals from reusing it.
  transport().local_broadcast_view(
      id, Traffic::kMaintenance,
      [this, max = st.ip](NodeId n, std::uint32_t) {
        if (!alive(n)) return;
        auto& ns = node(n);
        if (!ns.configured) return;
        if (max > ns.max_seen) {
          ns.max_seen = max;
          ns.bits = bits_for(params_.pool_base, max);
        }
      });

  rec.success = true;
  rec.address = st.ip;
  rec.latency_hops = latency;
  rec.attempts = 1;
  rec.completed_at = sim().now();
}

void BolengProtocol::start_beacons() {
  if (beacons_running_) return;
  beacons_running_ = true;
  beacon_timer_ = sim().after(params_.beacon_interval, [this] {
    beacon_tick();
    beacons_running_ = false;
    start_beacons();
  });
}

void BolengProtocol::beacon_tick() {
  // The addressing parameters ride on ordinary packets; we model one local
  // broadcast per node per period carrying (max address, bit count).  A
  // node that learns a higher maximum adopts it; a node that detects its
  // OWN address at-or-below a neighbor's maximum issued elsewhere cannot —
  // detection of duplicates happens only at merge via the max ordering.
  std::vector<NodeId> configured;
  for (const auto& [id, st] : nodes_) {
    if (st.configured && topology().has_node(id)) configured.push_back(id);
  }
  for (NodeId id : configured) {
    const auto& st = node(id);
    transport().local_broadcast_view(
        id, Traffic::kMaintenance,
        [this, max = st.max_seen](NodeId n, std::uint32_t) {
          if (!alive(n)) return;
          auto& ns = node(n);
          if (!ns.configured) return;
          if (max > ns.max_seen) {
            ns.max_seen = max;
            ns.bits = bits_for(params_.pool_base, max);
          }
        });
  }
  // Merge handling: nodes holding an address someone else also holds (only
  // possible after a partition assigned on both sides) re-take a fresh
  // address above the united maximum — modelled with the harness's
  // omniscient duplicate census standing in for [10]'s merge beacons.
  std::map<IpAddress, std::vector<NodeId>> census;
  IpAddress global_max = params_.pool_base;
  for (NodeId id : configured) {
    census[node(id).ip].push_back(id);
    global_max = std::max(global_max, node(id).max_seen);
  }
  // Strictly increasing fresh assignments so one correction round converges
  // (re-picking "own max + 1" hands several losers the same value).
  IpAddress fresh = global_max;
  for (const auto& [addr, holders] : census) {
    if (holders.size() < 2) continue;
    // All but the lowest-id holder re-assign.
    for (std::size_t i = 1; i < holders.size(); ++i) {
      const NodeId n = holders[i];
      // Check they can actually hear each other (merged); separate
      // partitions keep their duplicates until they meet.
      if (!topology().reachable(holders[0], n)) continue;
      fresh = fresh.next();
      auto& st = node(n);
      st.max_seen = fresh;
      st.ip = fresh;
      st.bits = bits_for(params_.pool_base, st.ip);
      transport().stats().record(Traffic::kConfiguration, 2, 2);
      auto& rec = record_for(n);
      rec.address = st.ip;
      ++rec.attempts;
    }
  }
}

std::uint64_t BolengProtocol::actual_duplicates() const {
  std::map<IpAddress, std::uint64_t> census;
  for (const auto& [id, st] : nodes_) {
    if (st.configured) ++census[st.ip];
  }
  std::uint64_t dups = 0;
  for (const auto& [addr, count] : census) {
    if (count > 1) dups += count - 1;
  }
  return dups;
}

void BolengProtocol::node_left(NodeId id) { nodes_.erase(id); }

}  // namespace qip
