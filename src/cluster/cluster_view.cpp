#include "cluster/cluster_view.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qip {

const char* to_string(Role role) {
  switch (role) {
    case Role::kUnconfigured:
      return "unconfigured";
    case Role::kCommonNode:
      return "common-node";
    case Role::kClusterHead:
      return "cluster-head";
  }
  return "?";
}

ClusterView::Slot& ClusterView::slot(NodeId id) {
  if (id >= plane_.size()) plane_.resize(std::size_t{id} + 1);
  return plane_[id];
}

void ClusterView::set_head(NodeId id) {
  QIP_ASSERT_MSG(role(id) != Role::kClusterHead, "node " << id << " already a head");
  Slot& s = slot(id);
  // A common node promoted to head (partition recovery) leaves its cluster.
  if (s.head != kNoNode) {
    auto cluster_it = cluster_.find(s.head);
    if (cluster_it != cluster_.end()) cluster_it->second.erase(id);
  }
  s = Slot{Role::kClusterHead, kNoNode};
  ++head_set_version_;
}

void ClusterView::set_member(NodeId id, NodeId head) {
  QIP_ASSERT_MSG(is_head(head), "configuring under non-head " << head);
  QIP_ASSERT_MSG(role(id) != Role::kClusterHead,
                 "head " << id << " cannot become a member");
  slot(id) = Slot{Role::kCommonNode, head};
  cluster_[head].insert(id);
}

void ClusterView::set_orphan(NodeId id) {
  QIP_ASSERT_MSG(role(id) == Role::kUnconfigured,
                 "node " << id << " is already configured");
  slot(id) = Slot{Role::kCommonNode, kNoNode};
}

void ClusterView::reassign_member(NodeId id, NodeId new_head) {
  QIP_ASSERT(role(id) == Role::kCommonNode);
  QIP_ASSERT(is_head(new_head));
  Slot& s = plane_[id];
  if (s.head != kNoNode) {
    auto cluster_it = cluster_.find(s.head);
    if (cluster_it != cluster_.end()) cluster_it->second.erase(id);
  }
  s.head = new_head;
  cluster_[new_head].insert(id);
}

void ClusterView::remove(NodeId id) {
  const Role r = role(id);
  if (r == Role::kUnconfigured) return;
  if (r == Role::kClusterHead) {
    // Members become orphaned (kept as common nodes with no head) until the
    // protocol reassigns them.
    auto cluster_it = cluster_.find(id);
    if (cluster_it != cluster_.end()) {
      for (NodeId member : cluster_it->second) plane_[member].head = kNoNode;
      cluster_.erase(cluster_it);
    }
    ++head_set_version_;
  } else if (plane_[id].head != kNoNode) {
    auto cluster_it = cluster_.find(plane_[id].head);
    if (cluster_it != cluster_.end()) cluster_it->second.erase(id);
  }
  plane_[id] = Slot{};
}

std::optional<NodeId> ClusterView::head_of(NodeId id) const {
  if (id >= plane_.size()) return std::nullopt;
  const Slot& s = plane_[id];
  if (s.role == Role::kClusterHead) return id;
  if (s.head == kNoNode) return std::nullopt;
  return s.head;
}

std::vector<NodeId> ClusterView::members_of(NodeId head) const {
  std::vector<NodeId> out;
  auto it = cluster_.find(head);
  if (it == cluster_.end()) return out;
  out.assign(it->second.begin(), it->second.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> ClusterView::heads() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < plane_.size(); ++id) {
    if (plane_[id].role == Role::kClusterHead) out.push_back(id);
  }
  return out;
}

std::size_t ClusterView::head_count() const {
  return static_cast<std::size_t>(
      std::count_if(plane_.begin(), plane_.end(), [](const Slot& s) {
        return s.role == Role::kClusterHead;
      }));
}

std::vector<NodeId> ClusterView::heads_within(NodeId id, std::uint32_t k) const {
  // One bounded BFS that keeps only the heads: no memoized k-hop set is
  // built, and only the short head list is sorted.
  ring_.clear();
  topology_->for_each_within(id, k, [&](NodeId node, std::uint32_t dist) {
    if (dist > 0 && is_head(node)) ring_.emplace_back(dist, node);
  });
  std::sort(ring_.begin(), ring_.end());
  std::vector<NodeId> out;
  out.reserve(ring_.size());
  for (const auto& [dist, node] : ring_) out.push_back(node);
  return out;
}

std::optional<NodeId> ClusterView::nearest_head(NodeId id) const {
  // Expanding-ring search.  A BFS bounded to radius k sees every head at
  // depth <= k, so as soon as any head lands inside the ring the
  // (hops, id)-minimum over the ring IS the global minimum — identical to
  // folding over the whole component, at the cost of the ring.  In the
  // paper's density regime the nearest head is a hop or two away; the full
  // component (what the old fold always paid) is only reached when no head
  // exists at all.
  std::optional<std::pair<std::uint32_t, NodeId>> best;
  std::size_t prev_seen = 0;
  for (std::uint32_t radius = 2;; radius *= 2) {
    std::size_t seen = 0;
    topology_->for_each_within(id, radius, [&](NodeId n, std::uint32_t d) {
      ++seen;
      if (n == id || !is_head(n)) return;
      const std::pair<std::uint32_t, NodeId> cand{d, n};
      if (!best || cand < *best) best = cand;
    });
    if (best) return best->second;
    if (seen == prev_seen) return std::nullopt;  // ring covered the component
    prev_seen = seen;
  }
}

bool ClusterView::other_head_reachable(NodeId id) const {
  if (counted_epoch_ != topology_->epoch() ||
      counted_version_ != head_set_version_) {
    heads_per_component_.assign(topology_->components_view().size(), 0);
    for (NodeId head = 0; head < plane_.size(); ++head) {
      if (is_head(head) && topology_->has_node(head))
        ++heads_per_component_[topology_->component_index(head)];
    }
    counted_epoch_ = topology_->epoch();
    counted_version_ = head_set_version_;
  }
  const std::uint32_t self = is_head(id) ? 1 : 0;
  return heads_per_component_[topology_->component_index(id)] > self;
}

bool ClusterView::heads_nonadjacent() const {
  for (NodeId head = 0; head < plane_.size(); ++head) {
    if (!is_head(head) || !topology_->has_node(head)) continue;
    for (NodeId n : topology_->neighbors_view(head)) {
      if (is_head(n)) return false;
    }
  }
  return true;
}

}  // namespace qip
