// Unit tests for the cluster view (§II-B's two-layer hierarchy).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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

}  // namespace
}  // namespace qip
