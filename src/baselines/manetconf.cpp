#include "baselines/manetconf.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qip {

ManetConf::ManetConf(Transport& transport, Rng& rng, ManetConfParams params)
    : AutoconfProtocol(transport, rng), params_(params) {}

ManetConf::~ManetConf() {
  for (auto& [id, st] : nodes_) st.bootstrap_timer.cancel();
}

ManetConf::NodeState& ManetConf::node(NodeId id) {
  auto it = nodes_.find(id);
  QIP_ASSERT_MSG(it != nodes_.end(), "unknown node " << id);
  return it->second;
}

std::optional<IpAddress> ManetConf::address_of(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.configured) return std::nullopt;
  return it->second.ip;
}

std::size_t ManetConf::table_size(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second.used.size();
}

std::optional<NodeId> ManetConf::nearest_configured(NodeId id) const {
  // Fold over the cached BFS instead of materializing a distance map; the
  // minimum over (hops, node) pairs is order-independent.
  std::optional<std::pair<std::uint32_t, NodeId>> best;
  topology().for_each_reachable(id, [&](NodeId n, std::uint32_t d) {
    if (n == id) return;
    auto it = nodes_.find(n);
    if (it == nodes_.end() || !it->second.configured) return;
    const std::pair<std::uint32_t, NodeId> cand{d, n};
    if (!best || cand < *best) best = cand;
  });
  if (!best) return std::nullopt;
  return best->second;
}

void ManetConf::node_entered(NodeId id) {
  auto [it, fresh] = nodes_.try_emplace(id);
  if (!fresh) it->second = NodeState{};
  auto& rec = record_for(id);
  rec = ConfigRecord{};
  rec.requested_at = sim().now();

  auto init = nearest_configured(id);
  if (!init) {
    bootstrap(id);
    return;
  }
  // Ask the nearest configured node to act as initiator.
  transport().unicast(id, *init, Traffic::kConfiguration,
                      [this, id](NodeId initiator, std::uint32_t d) {
                        initiate(initiator, id, d, 1);
                      });
}

void ManetConf::bootstrap(NodeId id) {
  auto& st = node(id);
  if (st.configured) return;
  if (nearest_configured(id)) {
    // Someone appeared: restart entry properly.
    node_entered(id);
    return;
  }
  if (st.bootstrap_tries >= params_.max_r) {
    st.configured = true;
    st.ip = params_.pool_base;
    st.used.insert(st.ip);
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

void ManetConf::initiate(NodeId initiator, NodeId requestor,
                         std::uint64_t hops, std::uint32_t attempt) {
  if (!alive(initiator) || !alive(requestor)) return;
  auto& ini = node(initiator);
  if (!ini.configured) return;
  if (attempt > 8) {
    auto& rec = record_for(requestor);
    rec.success = false;
    rec.attempts = attempt;
    rec.completed_at = sim().now();
    return;
  }

  // Lowest address the initiator believes free.
  IpAddress candidate = params_.pool_base;
  while (ini.used.count(candidate)) candidate = candidate.next();
  QIP_ASSERT_MSG(candidate.value() <
                     params_.pool_base.value() + params_.pool_size,
                 "MANETconf pool exhausted");

  const std::uint64_t pid = next_pending_++;
  Pending p;
  p.requestor = requestor;
  p.initiator = initiator;
  p.candidate = candidate;
  p.base_hops = hops;
  p.attempt = attempt;

  // Flood the query through the whole network; every configured node must
  // reply affirmatively before the address may be assigned.
  auto reached = transport().flood_component(
      initiator, Traffic::kConfiguration,
      [this, pid, candidate, initiator](NodeId n, std::uint32_t d) {
        if (!alive(n)) return;
        auto& st = node(n);
        if (!st.configured) return;
        const bool veto = st.ip == candidate;
        transport().unicast(
            n, initiator, Traffic::kConfiguration,
            [this, pid, veto, d](NodeId, std::uint32_t back) {
              auto it = pending_.find(pid);
              if (it == pending_.end()) return;
              Pending& p = it->second;
              QIP_ASSERT(p.awaiting > 0);
              --p.awaiting;
              if (veto) p.vetoed = true;
              p.max_reply_hops =
                  std::max<std::uint64_t>(p.max_reply_hops,
                                          std::uint64_t{d} + back);
              if (p.awaiting == 0) conclude(pid);
            });
      });
  // Count how many configured nodes will answer.
  std::uint32_t expected = 0;
  for (NodeId n : reached) {
    auto it = nodes_.find(n);
    if (it != nodes_.end() && it->second.configured) ++expected;
  }
  p.awaiting = expected;
  // Flood-out latency is bounded by the farthest replier; replies return by
  // unicast.  With no other configured node, decide immediately.
  pending_.emplace(pid, p);
  if (expected == 0) conclude(pid);
}

void ManetConf::conclude(std::uint64_t pending_id) {
  auto it = pending_.find(pending_id);
  QIP_ASSERT(it != pending_.end());
  const Pending p = it->second;
  pending_.erase(it);

  if (!alive(p.initiator)) return;
  auto& ini = node(p.initiator);

  if (p.vetoed) {
    // Address in use somewhere: note it and retry with the next candidate.
    ini.used.insert(p.candidate);
    initiate(p.initiator, p.requestor, p.base_hops + p.max_reply_hops,
             p.attempt + 1);
    return;
  }

  // Commit: the initiator floods the allocation so every table updates.
  ini.used.insert(p.candidate);
  transport().flood_component_view(
      p.initiator, Traffic::kConfiguration,
      [this, candidate = p.candidate](NodeId n, std::uint32_t) {
        if (!alive(n)) return;
        auto& st = node(n);
        if (st.configured) st.used.insert(candidate);
      });

  // Hand the address to the requestor.
  const std::uint64_t latency_base = p.base_hops + p.max_reply_hops;
  transport().unicast(
      p.initiator, p.requestor, Traffic::kConfiguration,
      [this, p, latency_base](NodeId requestor, std::uint32_t d) {
        if (!alive(requestor)) return;
        auto& st = node(requestor);
        if (st.configured) return;
        st.configured = true;
        st.ip = p.candidate;
        if (alive(p.initiator)) {
          st.used = node(p.initiator).used;  // copy of the full table
        }
        st.used.insert(p.candidate);
        auto& rec = record_for(requestor);
        rec.success = true;
        rec.address = p.candidate;
        rec.latency_hops = latency_base + d;
        rec.attempts = p.attempt;
        rec.completed_at = sim().now();
      });
}

void ManetConf::node_departing(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.configured) return;
  const IpAddress addr = it->second.ip;
  // Graceful leave: flood the release so every table forgets the address.
  transport().flood_component_view(
      id, Traffic::kDeparture, [this, addr](NodeId n, std::uint32_t) {
        if (!alive(n)) return;
        node(n).used.erase(addr);
      });
}

void ManetConf::node_left(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  it->second.bootstrap_timer.cancel();
  nodes_.erase(it);
}

void ManetConf::node_vanished(NodeId id) {
  // Abrupt: no release flood; the address leaks in every table.
  node_left(id);
}

}  // namespace qip
