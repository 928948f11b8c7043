#include "baselines/weak_dad.hpp"

#include <map>

#include "util/assert.hpp"

namespace qip {

WeakDadProtocol::WeakDadProtocol(Transport& transport, Rng& rng,
                                 WeakDadParams params)
    : AutoconfProtocol(transport, rng), params_(params) {
  QIP_ASSERT(params_.key_bits >= 1 && params_.key_bits <= 63);
}

WeakDadProtocol::~WeakDadProtocol() { update_timer_.cancel(); }

WeakDadProtocol::NodeState& WeakDadProtocol::node(NodeId id) {
  auto it = nodes_.find(id);
  QIP_ASSERT_MSG(it != nodes_.end(), "unknown node " << id);
  return it->second;
}

std::optional<IpAddress> WeakDadProtocol::address_of(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.configured) return std::nullopt;
  return it->second.ip;
}

std::uint64_t WeakDadProtocol::key_of(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second.key;
}

void WeakDadProtocol::node_entered(NodeId id) {
  auto [it, fresh] = nodes_.try_emplace(id);
  if (!fresh) it->second = NodeState{};
  auto& st = it->second;
  auto& rec = record_for(id);
  rec = ConfigRecord{};
  rec.requested_at = sim().now();

  // Configuration is entirely local: random address + hardware-derived key.
  st.ip = IpAddress(params_.pool_base.value() +
                    static_cast<std::uint32_t>(rng().below(params_.pool_size)));
  st.key = rng().below(1ULL << params_.key_bits);
  st.configured = true;
  st.routing_view[st.ip].insert(st.key);

  rec.success = true;
  rec.address = st.ip;
  rec.latency_hops = 0;  // no message exchange at all
  rec.attempts = 1;
  rec.completed_at = sim().now();
}

void WeakDadProtocol::start_updates() {
  if (updates_running_) return;
  updates_running_ = true;
  update_timer_ = sim().after(params_.update_interval, [this] {
    update_tick();
    updates_running_ = false;
    start_updates();
  });
}

void WeakDadProtocol::update_tick() {
  // Each node floods its link-state (address, key) binding; receivers merge
  // it into their routing view and flag addresses with two distinct keys.
  std::vector<NodeId> configured;
  for (const auto& [id, st] : nodes_) {
    if (st.configured && topology().has_node(id)) configured.push_back(id);
  }
  for (NodeId id : configured) {
    const auto& st = node(id);
    transport().flood_component_view(
        id, Traffic::kMaintenance,
        [this, addr = st.ip, key = st.key](NodeId n, std::uint32_t) {
          if (!alive(n)) return;
          auto& ns = node(n);
          if (!ns.configured) return;
          auto& keys = ns.routing_view[addr];
          keys.insert(key);
          if (keys.size() > 1) {
            // Duplicate detected at this router; count each offending
            // (address, key) binding once globally.
            for (std::uint64_t k : keys) {
              if (flagged_.insert({addr, k}).second) ++conflicts_detected_;
            }
          }
        });
  }
}

std::uint64_t WeakDadProtocol::silent_collisions() const {
  // Omniscient check: nodes sharing both address and key can never be told
  // apart by any router — [11]'s acknowledged limitation.
  std::map<std::pair<IpAddress, std::uint64_t>, std::uint64_t> census;
  for (const auto& [id, st] : nodes_) {
    if (st.configured) ++census[{st.ip, st.key}];
  }
  std::uint64_t collisions = 0;
  for (const auto& [binding, count] : census) {
    if (count > 1) collisions += count - 1;
  }
  return collisions;
}

void WeakDadProtocol::node_left(NodeId id) { nodes_.erase(id); }

}  // namespace qip
