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

Role ClusterView::role(NodeId id) const {
  auto it = roles_.find(id);
  return it == roles_.end() ? Role::kUnconfigured : it->second;
}

void ClusterView::set_head(NodeId id) {
  QIP_ASSERT_MSG(role(id) != Role::kClusterHead, "node " << id << " already a head");
  // A common node promoted to head (partition recovery) leaves its cluster.
  auto member_it = member_head_.find(id);
  if (member_it != member_head_.end()) {
    auto cluster_it = cluster_.find(member_it->second);
    if (cluster_it != cluster_.end()) cluster_it->second.erase(id);
    member_head_.erase(member_it);
  }
  roles_[id] = Role::kClusterHead;
  heads_.insert(id);
  cluster_.try_emplace(id);
}

void ClusterView::set_member(NodeId id, NodeId head) {
  QIP_ASSERT_MSG(heads_.count(head), "configuring under non-head " << head);
  QIP_ASSERT_MSG(role(id) != Role::kClusterHead,
                 "head " << id << " cannot become a member");
  roles_[id] = Role::kCommonNode;
  member_head_[id] = head;
  cluster_[head].insert(id);
}

void ClusterView::reassign_member(NodeId id, NodeId new_head) {
  QIP_ASSERT(role(id) == Role::kCommonNode);
  QIP_ASSERT(heads_.count(new_head));
  auto it = member_head_.find(id);
  if (it != member_head_.end()) {
    auto cluster_it = cluster_.find(it->second);
    if (cluster_it != cluster_.end()) cluster_it->second.erase(id);
  }
  member_head_[id] = new_head;
  cluster_[new_head].insert(id);
}

void ClusterView::remove(NodeId id) {
  const Role r = role(id);
  if (r == Role::kClusterHead) {
    // Members become orphaned (kept as common nodes with no head) until the
    // protocol reassigns them.
    auto cluster_it = cluster_.find(id);
    if (cluster_it != cluster_.end()) {
      for (NodeId member : cluster_it->second) member_head_.erase(member);
      cluster_.erase(cluster_it);
    }
    heads_.erase(id);
  } else if (r == Role::kCommonNode) {
    auto it = member_head_.find(id);
    if (it != member_head_.end()) {
      auto cluster_it = cluster_.find(it->second);
      if (cluster_it != cluster_.end()) cluster_it->second.erase(id);
      member_head_.erase(it);
    }
  }
  roles_.erase(id);
}

std::optional<NodeId> ClusterView::head_of(NodeId id) const {
  if (is_head(id)) return id;
  auto it = member_head_.find(id);
  if (it == member_head_.end()) return std::nullopt;
  return it->second;
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
  std::vector<NodeId> out(heads_.begin(), heads_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> ClusterView::heads_within(NodeId id, std::uint32_t k) const {
  // One bounded BFS that keeps only the heads: no memoized k-hop set is
  // built, and only the short head list is sorted.
  std::vector<std::pair<std::uint32_t, NodeId>> found;
  topology_->for_each_within(id, k, [&](NodeId node, std::uint32_t dist) {
    if (dist > 0 && heads_.count(node)) found.emplace_back(dist, node);
  });
  std::sort(found.begin(), found.end());
  std::vector<NodeId> out;
  out.reserve(found.size());
  for (const auto& [dist, node] : found) out.push_back(node);
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
      if (n == id || !heads_.count(n)) return;
      const std::pair<std::uint32_t, NodeId> cand{d, n};
      if (!best || cand < *best) best = cand;
    });
    if (best) return best->second;
    if (seen == prev_seen) return std::nullopt;  // ring covered the component
    prev_seen = seen;
  }
}

bool ClusterView::heads_nonadjacent() const {
  for (NodeId head : heads_) {
    if (!topology_->has_node(head)) continue;
    for (NodeId n : topology_->neighbors_view(head)) {
      if (heads_.count(n)) return false;
    }
  }
  return true;
}

}  // namespace qip
