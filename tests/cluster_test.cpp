// Unit tests for the cluster view (§II-B's two-layer hierarchy).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster_view.hpp"
#include "net/topology.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qip {
namespace {

struct ClusterFixture : ::testing::Test {
  // Chain 0-1-2-3-4-5-6, 100 m spacing, 120 m range.
  Topology topo{Rect{1000.0, 1000.0}, 120.0};
  ClusterView view{topo};

  void SetUp() override {
    for (std::uint32_t i = 0; i < 7; ++i) {
      topo.add_node(i, {100.0 * i, 0.0});
    }
  }
};

TEST_F(ClusterFixture, RolesStartUnconfigured) {
  EXPECT_EQ(view.role(3), Role::kUnconfigured);
  EXPECT_FALSE(view.head_of(3).has_value());
}

TEST_F(ClusterFixture, HeadAndMembers) {
  view.set_head(0);
  view.set_member(1, 0);
  view.set_member(2, 0);
  EXPECT_TRUE(view.is_head(0));
  EXPECT_EQ(view.role(1), Role::kCommonNode);
  EXPECT_EQ(view.head_of(1), 0u);
  EXPECT_EQ(view.head_of(0), 0u);
  EXPECT_EQ(view.members_of(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(view.head_count(), 1u);
}

TEST_F(ClusterFixture, ReassignMember) {
  view.set_head(0);
  view.set_head(4);
  view.set_member(2, 0);
  view.reassign_member(2, 4);
  EXPECT_EQ(view.head_of(2), 4u);
  EXPECT_TRUE(view.members_of(0).empty());
  EXPECT_EQ(view.members_of(4), (std::vector<NodeId>{2}));
}

TEST_F(ClusterFixture, RemoveHeadOrphansMembers) {
  view.set_head(0);
  view.set_member(1, 0);
  view.remove(0);
  EXPECT_EQ(view.role(0), Role::kUnconfigured);
  EXPECT_EQ(view.role(1), Role::kCommonNode);  // still configured...
  EXPECT_FALSE(view.head_of(1).has_value());   // ...but orphaned
  EXPECT_EQ(view.head_count(), 0u);
}

TEST_F(ClusterFixture, MemberPromotedToHeadLeavesCluster) {
  view.set_head(0);
  view.set_member(3, 0);
  view.set_head(3);  // partition recovery promotes a member
  EXPECT_TRUE(view.is_head(3));
  EXPECT_TRUE(view.members_of(0).empty());
}

TEST_F(ClusterFixture, HeadsWithinRadius) {
  view.set_head(0);
  view.set_head(2);
  view.set_head(5);
  // From node 1: head 0 and 2 at one hop, head 5 at 4 hops.
  EXPECT_EQ(view.heads_within(1, 2), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(view.heads_within(1, 4), (std::vector<NodeId>{0, 2, 5}));
  // Sorted by hop distance first.
  EXPECT_EQ(view.heads_within(4, 3).front(), 5u);
}

TEST_F(ClusterFixture, NearestHead) {
  view.set_head(0);
  view.set_head(6);
  EXPECT_EQ(view.nearest_head(2), 0u);
  EXPECT_EQ(view.nearest_head(5), 6u);
  // Unreachable island has no head.
  topo.add_node(42, {900.0, 900.0});
  EXPECT_FALSE(view.nearest_head(42).has_value());
}

TEST_F(ClusterFixture, HeadsNonadjacentInvariant) {
  view.set_head(0);
  view.set_head(2);
  EXPECT_TRUE(view.heads_nonadjacent());
  view.set_head(3);  // neighbor of 2
  EXPECT_FALSE(view.heads_nonadjacent());
}

TEST_F(ClusterFixture, DoubleHeadThrows) {
  view.set_head(0);
  EXPECT_THROW(view.set_head(0), InvariantViolation);
}

TEST_F(ClusterFixture, MemberUnderNonHeadThrows) {
  EXPECT_THROW(view.set_member(1, 0), InvariantViolation);
}

TEST_F(ClusterFixture, HeadCannotBecomeMember) {
  view.set_head(0);
  view.set_head(2);
  EXPECT_THROW(view.set_member(2, 0), InvariantViolation);
}

TEST_F(ClusterFixture, OrphanWaitsForReassignment) {
  // A configuration that lands after its allocator stopped being a head.
  view.set_orphan(2);
  EXPECT_EQ(view.role(2), Role::kCommonNode);
  EXPECT_FALSE(view.head_of(2).has_value());
  view.set_head(4);
  view.reassign_member(2, 4);
  EXPECT_EQ(view.head_of(2), 4u);
  EXPECT_EQ(view.members_of(4), (std::vector<NodeId>{2}));
  EXPECT_THROW(view.set_orphan(4), InvariantViolation);
}

TEST_F(ClusterFixture, HeadsSorted) {
  view.set_head(4);
  view.set_head(0);
  view.set_head(2);
  EXPECT_EQ(view.heads(), (std::vector<NodeId>{0, 2, 4}));
}

/// Reference heads_within: filter the memoized k-hop set (sorted by id) to
/// the heads, then sort by (hops, id).
std::vector<NodeId> reference_heads_within(const Topology& topo,
                                           const std::set<NodeId>& heads,
                                           NodeId id, std::uint32_t k) {
  std::vector<std::pair<std::uint32_t, NodeId>> found;
  for (const auto& [node, dist] : topo.k_hop_view(id, k)) {
    if (heads.count(node)) found.emplace_back(dist, node);
  }
  std::sort(found.begin(), found.end());
  std::vector<NodeId> out;
  for (const auto& [dist, node] : found) out.push_back(node);
  return out;
}

TEST(ClusterViewDifferential, HeadsWithinMatchesKHopReference) {
  // Random topologies and head sets, every node and radius 1..5, across
  // epochs: a few moves between rounds make the next round's queries run
  // on a patched snapshot.
  Rng rng(0xc1a5);
  for (int trial = 0; trial < 8; ++trial) {
    Topology topo(Rect{1000.0, 1000.0}, 150.0 + 10.0 * trial);
    ClusterView view(topo);
    std::set<NodeId> heads;
    const auto n = static_cast<NodeId>(40 + 5 * trial);
    for (NodeId i = 0; i < n; ++i) topo.add_node(i, topo.area().sample(rng));
    for (NodeId i = 0; i < n; ++i) {
      if (!rng.chance(0.3)) continue;
      view.set_head(i);
      heads.insert(i);
    }
    for (int round = 0; round < 3; ++round) {
      for (NodeId id = 0; id < n; ++id) {
        for (std::uint32_t k = 1; k <= 5; ++k) {
          ASSERT_EQ(view.heads_within(id, k),
                    reference_heads_within(topo, heads, id, k))
              << "trial " << trial << " round " << round << " node " << id
              << " k " << k;
        }
      }
      for (int m = 0; m < 5; ++m) {
        topo.move_node(static_cast<NodeId>(rng.index(n)),
                       topo.area().sample(rng));
      }
    }
  }
}

/// The hash-container ClusterView the dense role plane replaced, kept as
/// the oracle of the differential below (set_orphan added: a common node
/// without a member -> head entry).
class ReferenceClusterView {
 public:
  explicit ReferenceClusterView(const Topology& topology)
      : topology_(&topology) {}

  Role role(NodeId id) const {
    auto it = roles_.find(id);
    return it == roles_.end() ? Role::kUnconfigured : it->second;
  }
  bool is_head(NodeId id) const { return role(id) == Role::kClusterHead; }

  void set_head(NodeId id) {
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

  void set_member(NodeId id, NodeId head) {
    roles_[id] = Role::kCommonNode;
    member_head_[id] = head;
    cluster_[head].insert(id);
  }

  void set_orphan(NodeId id) { roles_[id] = Role::kCommonNode; }

  void reassign_member(NodeId id, NodeId new_head) {
    auto it = member_head_.find(id);
    if (it != member_head_.end()) {
      auto cluster_it = cluster_.find(it->second);
      if (cluster_it != cluster_.end()) cluster_it->second.erase(id);
    }
    member_head_[id] = new_head;
    cluster_[new_head].insert(id);
  }

  void remove(NodeId id) {
    const Role r = role(id);
    if (r == Role::kClusterHead) {
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

  std::optional<NodeId> head_of(NodeId id) const {
    if (is_head(id)) return id;
    auto it = member_head_.find(id);
    if (it == member_head_.end()) return std::nullopt;
    return it->second;
  }

  std::vector<NodeId> members_of(NodeId head) const {
    std::vector<NodeId> out;
    auto it = cluster_.find(head);
    if (it == cluster_.end()) return out;
    out.assign(it->second.begin(), it->second.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<NodeId> heads() const {
    std::vector<NodeId> out(heads_.begin(), heads_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  std::size_t head_count() const { return heads_.size(); }

  std::vector<NodeId> heads_within(NodeId id, std::uint32_t k) const {
    std::vector<std::pair<std::uint32_t, NodeId>> found;
    topology_->for_each_within(id, k, [&](NodeId node, std::uint32_t dist) {
      if (dist > 0 && heads_.count(node)) found.emplace_back(dist, node);
    });
    std::sort(found.begin(), found.end());
    std::vector<NodeId> out;
    for (const auto& [dist, node] : found) out.push_back(node);
    return out;
  }

  std::optional<NodeId> nearest_head(NodeId id) const {
    // The whole-component fold the expanding ring replaced.
    std::optional<std::pair<std::uint32_t, NodeId>> best;
    topology_->for_each_reachable(id, [&](NodeId n, std::uint32_t d) {
      if (n == id || !heads_.count(n)) return;
      const std::pair<std::uint32_t, NodeId> cand{d, n};
      if (!best || cand < *best) best = cand;
    });
    if (!best) return std::nullopt;
    return best->second;
  }

  bool heads_nonadjacent() const {
    for (NodeId head : heads_) {
      if (!topology_->has_node(head)) continue;
      for (NodeId n : topology_->neighbors_view(head)) {
        if (heads_.count(n)) return false;
      }
    }
    return true;
  }

 private:
  const Topology* topology_;
  std::unordered_map<NodeId, Role> roles_;
  std::unordered_map<NodeId, NodeId> member_head_;
  std::unordered_map<NodeId, std::unordered_set<NodeId>> cluster_;
  std::unordered_set<NodeId> heads_;
};

TEST(ClusterViewDifferential, DensePlaneMatchesHashContainers) {
  // A random script of role changes and topology moves over ids with gaps
  // (the plane must treat the holes, and ids past its end, as
  // unconfigured).  Every query is compared after every step.
  Rng rng(0xc1a55);
  const std::vector<NodeId> ids = {0,  1,  3,  4,  9,  10, 11, 17,
                                   23, 24, 31, 40, 41, 57, 64, 65,
                                   80, 99, 100, 128, 150, 151, 200, 257};
  Topology topo(Rect{700.0, 700.0}, 150.0);
  ClusterView view(topo);
  ReferenceClusterView ref(topo);
  for (NodeId id : ids) topo.add_node(id, topo.area().sample(rng));

  std::vector<NodeId> probe = ids;
  probe.push_back(2);     // a hole below the largest id
  probe.push_back(5000);  // past the plane's end
  int orphan_reassigns = 0, head_removals_with_members = 0, promotions = 0,
      far_nearest = 0, headless = 0;
  for (int step = 0; step < 600; ++step) {
    const NodeId id = ids[rng.index(ids.size())];
    const std::vector<NodeId> heads = ref.heads();
    const NodeId some_head =
        heads.empty() ? kNoNode : heads[rng.index(heads.size())];
    const Role r = ref.role(id);
    switch (rng.index(7)) {
      case 0:
        if (r == Role::kClusterHead) break;
        if (r == Role::kCommonNode) ++promotions;
        view.set_head(id);
        ref.set_head(id);
        break;
      case 1:
      case 2:
        if (some_head == kNoNode || r == Role::kClusterHead) break;
        view.set_member(id, some_head);
        ref.set_member(id, some_head);
        break;
      case 3:
        if (r != Role::kUnconfigured) break;
        view.set_orphan(id);
        ref.set_orphan(id);
        break;
      case 4:
        if (some_head == kNoNode || r != Role::kCommonNode) break;
        if (!ref.head_of(id)) ++orphan_reassigns;
        view.reassign_member(id, some_head);
        ref.reassign_member(id, some_head);
        break;
      case 5:
        if (r == Role::kClusterHead && !ref.members_of(id).empty())
          ++head_removals_with_members;
        view.remove(id);
        ref.remove(id);
        break;
      case 6:
        for (int m = 0; m < 3; ++m) {
          topo.move_node(ids[rng.index(ids.size())], topo.area().sample(rng));
        }
        break;
    }
    ASSERT_EQ(view.head_count(), ref.head_count()) << "step " << step;
    ASSERT_EQ(view.heads(), ref.heads()) << "step " << step;
    ASSERT_EQ(view.heads_nonadjacent(), ref.heads_nonadjacent())
        << "step " << step;
    for (NodeId q : probe) {
      ASSERT_EQ(view.role(q), ref.role(q)) << "step " << step << " node " << q;
      ASSERT_EQ(view.is_head(q), ref.is_head(q)) << "step " << step;
      ASSERT_EQ(view.head_of(q), ref.head_of(q))
          << "step " << step << " node " << q;
      ASSERT_EQ(view.members_of(q), ref.members_of(q))
          << "step " << step << " node " << q;
    }
    for (NodeId q : ids) {
      const std::optional<NodeId> nearest = ref.nearest_head(q);
      ASSERT_EQ(view.nearest_head(q), nearest)
          << "step " << step << " node " << q;
      // A role-only step leaves the topology epoch alone: the memoized
      // per-component head counts must notice the head set changed.
      ASSERT_EQ(view.other_head_reachable(q), nearest.has_value())
          << "step " << step << " node " << q;
      if (!nearest) {
        ++headless;
      } else if (*topo.hop_distance(q, *nearest) > 2) {
        ++far_nearest;  // the expanding ring grew past its first radius
      }
      for (std::uint32_t k = 1; k <= 5; ++k) {
        ASSERT_EQ(view.heads_within(q, k), ref.heads_within(q, k))
            << "step " << step << " node " << q << " k " << k;
      }
    }
  }
  // The script reached the branches the plane reshaped.
  EXPECT_GE(orphan_reassigns, 5);
  EXPECT_GE(head_removals_with_members, 5);
  EXPECT_GE(promotions, 5);
  EXPECT_GE(far_nearest, 50);
  EXPECT_GE(headless, 50);
}

}  // namespace
}  // namespace qip
