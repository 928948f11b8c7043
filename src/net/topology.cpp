#include "net/topology.hpp"

#include <algorithm>

namespace qip {

Topology::Topology(Rect area, double transmission_range)
    : area_(area),
      range_(transmission_range),
      index_(transmission_range),
      cache_(transmission_range) {
  QIP_ASSERT(transmission_range > 0.0);
}

void Topology::add_node(NodeId id, const Point& pos) {
  QIP_ASSERT_MSG(area_.contains(pos), "position outside simulation area");
  index_.insert(id, pos);
  cache_.note_add(id, pos);
}

void Topology::remove_node(NodeId id) {
  index_.remove(id);
  cache_.note_remove(id);
}

void Topology::move_node(NodeId id, const Point& pos) {
  QIP_ASSERT_MSG(area_.contains(pos), "position outside simulation area");
  index_.move(id, pos);
  cache_.note_move(id, pos);
}

std::vector<NodeId> Topology::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(index_.size());
  index_.for_each([&](NodeId id, const Point&) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Topology::neighbors(NodeId id) const {
  const auto row = neighbors_view(id);
  return {row.begin(), row.end()};
}

std::span<const NodeId> Topology::neighbors_view(NodeId id) const {
  const auto& graph = cache_.csr(index_);
  const std::uint32_t slot = graph.slot_of(id);
  QIP_ASSERT_MSG(slot != TopologyCache::kUnreached, "node " << id << " absent");
  return {graph.row_begin(slot), graph.row_end(slot)};
}

bool Topology::covered(const Point& p) const {
  return !index_.query(p, range_).empty();
}

std::vector<std::pair<NodeId, std::uint32_t>> Topology::k_hop_neighbors(
    NodeId id, std::uint32_t k) const {
  return k_hop_view(id, k);
}

const std::vector<std::pair<NodeId, std::uint32_t>>& Topology::k_hop_view(
    NodeId id, std::uint32_t k) const {
  return cache_.k_hop(index_, id, k);
}

std::unordered_map<NodeId, std::uint32_t> Topology::hop_distances_from(
    NodeId from) const {
  QIP_ASSERT(has_node(from));
  std::unordered_map<NodeId, std::uint32_t> dist;
  // Emplaced in BFS discovery order over rank-ascending CSR rows (sorted
  // neighbors): the returned map's iteration order is observable through
  // protocol tie-breaks like Boleng's informant choice, so it is pinned by
  // the sorted-neighbour BFS oracle in tests/net_test.cpp.
  for_each_reachable(
      from, [&](NodeId n, std::uint32_t d) { dist.emplace(n, d); });
  return dist;
}

std::optional<std::uint32_t> Topology::hop_distance(NodeId from,
                                                    NodeId to) const {
  QIP_ASSERT(has_node(from) && has_node(to));
  if (from == to) return 0;
  const auto& graph = cache_.csr(index_);
  const auto src = graph.rank_of(from);
  const auto dst = graph.rank_of(to);
  QIP_ASSERT(src.has_value() && dst.has_value());
  return cache_.hop_distance(graph, *src, *dst);
}

bool Topology::reachable(NodeId from, NodeId to) const {
  QIP_ASSERT(has_node(from) && has_node(to));
  if (from == to) return true;
  const auto& comps = cache_.components(index_);
  const auto& graph = cache_.csr(index_);
  return comps.group_of[graph.slot_of(from)] ==
         comps.group_of[graph.slot_of(to)];
}

std::vector<NodeId> Topology::component_of(NodeId id) const {
  return component_view(id);
}

const std::vector<NodeId>& Topology::component_view(NodeId id) const {
  QIP_ASSERT(has_node(id));
  const auto& comps = cache_.components(index_);
  const auto rank = cache_.csr(index_).rank_of(id);
  QIP_ASSERT(rank.has_value());
  return comps.groups[comps.group_of[*rank]];
}

std::vector<std::vector<NodeId>> Topology::components() const {
  return components_view();
}

const std::vector<std::vector<NodeId>>& Topology::components_view() const {
  return cache_.components(index_).groups;
}

std::uint32_t Topology::eccentricity(NodeId id) const {
  std::uint32_t ecc = 0;
  for_each_reachable(
      id, [&](NodeId, std::uint32_t d) { ecc = std::max(ecc, d); });
  return ecc;
}

}  // namespace qip
