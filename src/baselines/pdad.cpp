#include "baselines/pdad.hpp"

#include <map>

#include "util/assert.hpp"

namespace qip {

PdadProtocol::PdadProtocol(Transport& transport, Rng& rng, PdadParams params)
    : AutoconfProtocol(transport, rng), params_(params) {}

PdadProtocol::~PdadProtocol() { routing_timer_.cancel(); }

PdadProtocol::NodeState& PdadProtocol::node(NodeId id) {
  auto it = nodes_.find(id);
  QIP_ASSERT_MSG(it != nodes_.end(), "unknown node " << id);
  return it->second;
}

std::optional<IpAddress> PdadProtocol::address_of(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.configured) return std::nullopt;
  return it->second.ip;
}

void PdadProtocol::pick_address(NodeId id, bool count_as_attempt) {
  auto& st = node(id);
  st.ip = IpAddress(params_.pool_base.value() +
                    static_cast<std::uint32_t>(rng().below(params_.pool_size)));
  st.seq = 0;
  st.configured = true;
  auto& rec = record_for(id);
  rec.success = true;
  rec.address = st.ip;
  rec.latency_hops = 0;  // purely local pick
  if (count_as_attempt) ++rec.attempts;
  rec.completed_at = sim().now();
}

void PdadProtocol::node_entered(NodeId id) {
  auto [it, fresh] = nodes_.try_emplace(id);
  if (!fresh) it->second = NodeState{};
  auto& rec = record_for(id);
  rec = ConfigRecord{};
  rec.requested_at = sim().now();
  rec.attempts = 0;
  pick_address(id, /*count_as_attempt=*/true);
}

void PdadProtocol::start_routing() {
  if (routing_running_) return;
  routing_running_ = true;
  routing_timer_ = sim().after(params_.routing_interval, [this] {
    routing_tick();
    routing_running_ = false;
    start_routing();
  });
}

void PdadProtocol::flag_duplicate(NodeId observer, IpAddress addr) {
  (void)observer;
  if (!flagged_.insert(addr).second) return;
  ++duplicates_flagged_;
  // Every holder of the flagged address picks a fresh one (the paper's
  // conflict-resolution policy is protocol-specific; re-picking is the
  // minimal stateless reaction).
  for (auto& [id, st] : nodes_) {
    if (st.configured && st.ip == addr) {
      pick_address(id, /*count_as_attempt=*/true);
      ++reconfigurations_;
    }
  }
  // The flag is cleared after a grace period so the re-picked survivors can
  // use the address again if it became unique.
  const IpAddress a = addr;
  sim().post(5.0, [this, a] { flagged_.erase(a); });
}

void PdadProtocol::routing_tick() {
  ++round_;
  // The proactive routing substrate floods one update per node per round —
  // this traffic exists anyway; PDAD merely eavesdrops on it.  Metered as
  // hello so the figures exclude it, matching "PDAD generates no additional
  // protocol overhead".
  std::vector<NodeId> configured;
  for (auto& [id, st] : nodes_) {
    if (st.configured && topology().has_node(id)) configured.push_back(id);
  }
  const std::uint64_t round = round_;
  for (NodeId id : configured) {
    auto& st = node(id);
    const std::uint64_t seq = ++st.seq;
    const IpAddress addr = st.ip;
    transport().flood_component_view(
        id, Traffic::kHello,
        [this, addr, seq, round](NodeId n, std::uint32_t hops) {
          if (!alive(n)) return;
          auto& ns = node(n);
          if (!ns.configured || ns.ip == addr) {
            // PDAD-SN variant "own address": hearing an update that claims
            // to originate from *our own* address is itself a hint.
            if (ns.configured && ns.ip == addr) flag_duplicate(n, addr);
            return;
          }
          auto& obs = ns.seen[addr];
          // PDAD-SN: sequence numbers from one originator never decrease.
          if (seq < obs.highest_seq) {
            flag_duplicate(n, addr);
          }
          // PDAD-NH: two updates for one address in the same round with
          // very different hop distances cannot come from one place.
          if (obs.last_round == round &&
              (obs.last_hops > hops + 2 || hops > obs.last_hops + 2)) {
            flag_duplicate(n, addr);
          }
          obs.highest_seq = std::max(obs.highest_seq, seq);
          obs.last_hops = hops;
          obs.last_round = round;
        });
  }
}

std::uint64_t PdadProtocol::actual_duplicates() const {
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

void PdadProtocol::node_left(NodeId id) { nodes_.erase(id); }

}  // namespace qip
