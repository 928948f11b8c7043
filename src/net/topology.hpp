// Wireless connectivity model: unit-disk graph over node positions.
//
// Two nodes are neighbors iff their distance is at most the transmission
// range (the paper's model, §VI-A).  The topology answers the queries the
// protocol and transport need: one-hop neighbors, k-hop neighborhoods, BFS
// hop distances / shortest paths, and connected components (for partition
// experiments).  Positions are indexed in a uniform grid so neighbor lookup
// is O(1) expected.
//
// Graph queries are memoized in an epoch-versioned TopologyCache: mutations
// bump the grid's epoch and are journaled, and the next query brings the
// flat CSR snapshot up to date, patching only the rows near a journaled
// position.  Every query reads that snapshot — one-hop rows are its spans —
// and the components partition and k-hop sets are computed from it once per
// epoch.  tests/net_test.cpp checks every query against an O(n^2) oracle —
// down to BFS discovery order and the emplace order of the hop-distance map
// (docs/SIMULATOR.md, "Topology cache").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/grid_index.hpp"
#include "geom/rect.hpp"
#include "net/node_id.hpp"
#include "net/topology_cache.hpp"
#include "util/assert.hpp"

namespace qip {

class Topology {
 public:
  Topology(Rect area, double transmission_range);

  const Rect& area() const { return area_; }
  double range() const { return range_; }

  void add_node(NodeId id, const Point& pos);
  void remove_node(NodeId id);
  void move_node(NodeId id, const Point& pos);
  bool has_node(NodeId id) const { return index_.contains(id); }
  const Point& position(NodeId id) const { return index_.position(id); }
  std::size_t node_count() const { return index_.size(); }
  std::vector<NodeId> all_nodes() const;

  /// Mutation epoch of the underlying grid (bumped by every add/remove/
  /// move).  Two equal epochs guarantee every query answer is unchanged.
  std::uint64_t epoch() const { return index_.epoch(); }

  /// Maintenance counters for the differential tests and fig_metro phase
  /// reports: how often the snapshot was patched vs rebuilt.
  std::uint64_t csr_full_rebuilds() const { return cache_.full_rebuilds(); }
  std::uint64_t csr_incremental_patches() const {
    return cache_.incremental_patches();
  }
  /// Always 0: the components partition is rebuilt, never repaired.  Kept
  /// only because benchmark/src/workloads.cpp still reports both counters;
  /// they go when that report drops them.
  std::uint64_t component_repairs() const { return 0; }
  std::uint64_t component_repair_bailouts() const { return 0; }

  /// Binds the cache's rebuild ProfileScopes to `ctx` (null: the process
  /// context).  Called by World; behavior-invariant either way.
  void set_context(SimContext* ctx) { cache_.set_context(ctx); }

  /// One-hop neighbors of `id` (distance <= range, excluding `id`), sorted.
  std::vector<NodeId> neighbors(NodeId id) const;

  /// Same, without the copy: the node's row in the CSR snapshot.  The span
  /// (like every *_view below) is valid until the next topology mutation;
  /// protocol handlers never mutate the topology, so holding one across a
  /// send is fine.
  std::span<const NodeId> neighbors_view(NodeId id) const;

  /// True iff at least one node lies within transmission range of `p`.
  bool covered(const Point& p) const;

  /// All nodes within `k` hops of `id`, excluding `id`, paired with their hop
  /// distance (sorted by id for determinism).
  std::vector<std::pair<NodeId, std::uint32_t>> k_hop_neighbors(
      NodeId id, std::uint32_t k) const;

  /// Same, without the copy (memoized per epoch).
  const std::vector<std::pair<NodeId, std::uint32_t>>& k_hop_view(
      NodeId id, std::uint32_t k) const;

  /// BFS hop distance, or nullopt if unreachable.
  std::optional<std::uint32_t> hop_distance(NodeId from, NodeId to) const;

  /// Hop distances from `from` to every reachable node (including itself at
  /// hop 0).
  std::unordered_map<NodeId, std::uint32_t> hop_distances_from(
      NodeId from) const;

  /// Calls `fn(node, hops)` for every node reachable from `from` (including
  /// `from` itself at hop 0) in BFS discovery order, without materializing
  /// a map.  Preferred over hop_distances_from when the caller only folds
  /// over the distances.
  template <typename Fn>
  void for_each_reachable(NodeId from, Fn&& fn) const {
    QIP_ASSERT(has_node(from));
    const auto& graph = cache_.csr(index_);
    const auto src = graph.rank_of(from);
    QIP_ASSERT(src.has_value());
    cache_.bfs(graph, *src, TopologyCache::kUnreached,
               [&](std::uint32_t r, std::uint32_t d) { fn(graph.ids[r], d); });
  }

  /// Depth-bounded for_each_reachable: visits every node within `max_depth`
  /// hops of `from` (including `from` at hop 0) in BFS discovery order.
  /// The workhorse of expanding-ring searches (ClusterView::nearest_head):
  /// a bounded BFS costs the ring, not the component.
  template <typename Fn>
  void for_each_within(NodeId from, std::uint32_t max_depth, Fn&& fn) const {
    QIP_ASSERT(has_node(from));
    const auto& graph = cache_.csr(index_);
    const auto src = graph.rank_of(from);
    QIP_ASSERT(src.has_value());
    cache_.bfs(graph, *src, max_depth,
               [&](std::uint32_t r, std::uint32_t d) { fn(graph.ids[r], d); });
  }

  /// True iff `from` and `to` share a connected component: read off the
  /// cached partition, where an early-exit BFS would explore the whole
  /// component whenever the answer is "no" or the two are far apart.
  bool reachable(NodeId from, NodeId to) const;

  /// Members of the connected component containing `id` (includes `id`),
  /// sorted by id.
  std::vector<NodeId> component_of(NodeId id) const;

  /// Same, without the copy (the cached partition's group).
  const std::vector<NodeId>& component_view(NodeId id) const;

  /// All connected components, each sorted, ordered by smallest member.
  std::vector<std::vector<NodeId>> components() const;

  /// Same, without the copy (memoized per epoch).
  const std::vector<std::vector<NodeId>>& components_view() const;

  /// Greatest hop distance from `id` to any node in its component.
  std::uint32_t eccentricity(NodeId id) const;

 private:
  Rect area_;
  double range_;
  GridIndex index_;
  // The cache holds no back-reference (methods take the index), keeping
  // Topology movable; mutable because queries are logically const.
  mutable TopologyCache cache_;
};

}  // namespace qip
