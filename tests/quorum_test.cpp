// Unit and property tests for quorum voting, dynamic linear voting and
// explicit quorum systems (§II-C, §II-D).
#include <gtest/gtest.h>

#include <numeric>

#include "quorum/dynamic_linear.hpp"
#include "quorum/quorum_policy.hpp"
#include "quorum/quorum_system.hpp"
#include "util/assert.hpp"

namespace qip {
namespace {

std::vector<std::uint32_t> universe(std::uint32_t n) {
  std::vector<std::uint32_t> u(n);
  std::iota(u.begin(), u.end(), 1u);
  return u;
}

// ---------------------------------------------------------------------------
// Majority quorums — w > v/2 and r + w > v (§II-C)
// ---------------------------------------------------------------------------

/// The majority backend's write threshold for `v` voters and the minimal
/// read quorum that pairs with it (r = v − w + 1).
struct MajorityQuorums {
  std::uint32_t write;
  std::uint32_t read;
};

MajorityQuorums majority_quorums(std::uint32_t v) {
  const std::uint32_t w =
      quorum_policy(QuorumBackend::kMajority).threshold(v, false);
  return {w, v - w + 1};
}

class QuorumSpecProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QuorumSpecProperty, MinimalSatisfiesPaperConditions) {
  const std::uint32_t v = GetParam();
  const auto [w, r] = majority_quorums(v);
  EXPECT_LE(w, v);
  EXPECT_GE(r, 1u);
  EXPECT_GT(2 * w, v);
  EXPECT_GT(r + w, v);
  // Minimality: one fewer write vote breaks the first condition.
  EXPECT_LE(2 * (w - 1), v);
  // The explicit read system (what the intersection checker consumes) uses
  // exactly these minimal reads.
  if (v <= QuorumSystem::kMaxUniverse) {
    const QuorumSystem reads = quorum_policy(QuorumBackend::kMajority)
                                   .read_system(universe(v), std::nullopt);
    EXPECT_EQ(reads.min_quorum_size(), r);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuorumSpecProperty,
                         ::testing::Range(1u, 26u));

TEST(QuorumSpec, KnownValues) {
  EXPECT_EQ(majority_quorums(1).write, 1u);
  EXPECT_EQ(majority_quorums(5).write, 3u);
  EXPECT_EQ(majority_quorums(5).read, 3u);
  EXPECT_EQ(majority_quorums(6).write, 4u);
  EXPECT_EQ(majority_quorums(6).read, 3u);
}

// ---------------------------------------------------------------------------
// Dynamic linear voting
// ---------------------------------------------------------------------------

TEST(DynamicLinear, ThresholdEvenOdd) {
  // Odd group: distinguished node gives no discount.
  EXPECT_EQ(quorum_threshold(5, false), 3u);
  EXPECT_EQ(quorum_threshold(5, true), 3u);
  // Even group: exactly-half acceptable with the distinguished node.
  EXPECT_EQ(quorum_threshold(6, false), 4u);
  EXPECT_EQ(quorum_threshold(6, true), 3u);
  EXPECT_EQ(quorum_threshold(1, true), 1u);
  EXPECT_EQ(quorum_threshold(2, true), 1u);
}

TEST(DynamicLinear, IsQuorumMajority) {
  EXPECT_TRUE(is_quorum(5, {1, 2, 3}));
  EXPECT_FALSE(is_quorum(5, {1, 2}));
  EXPECT_FALSE(is_quorum(4, {1, 2}));             // exactly half, no dist
  EXPECT_TRUE(is_quorum(4, {1, 2}, 1));           // half containing dist
  EXPECT_FALSE(is_quorum(4, {2, 3}, 1));          // half without dist
  EXPECT_TRUE(is_quorum(4, {2, 3, 4}, 1));        // majority wins anyway
}

TEST(DynamicLinear, TwoHalvesCannotBothBeQuorums) {
  // Complementary halves of an even group: at most one contains the
  // distinguished node, so at most one is a quorum.
  const std::vector<std::uint32_t> left{1, 2, 3};
  const std::vector<std::uint32_t> right{4, 5, 6};
  for (std::uint32_t dist = 1; dist <= 6; ++dist) {
    EXPECT_FALSE(is_quorum(6, left, dist) && is_quorum(6, right, dist));
  }
}

// ---------------------------------------------------------------------------
// QuorumSystem
// ---------------------------------------------------------------------------

TEST(QuorumSystem, MajorityExample) {
  // Figure 1's neighborhood: quorums of ⌊6/2⌋+1 = 4 over six heads.
  const auto qs = QuorumSystem::majority(universe(6));
  EXPECT_EQ(qs.min_quorum_size(), 4u);
  EXPECT_TRUE(qs.pairwise_intersecting());
  EXPECT_TRUE(qs.covers_quorum({1, 2, 3, 4}));
  EXPECT_FALSE(qs.covers_quorum({1, 2, 3}));
}

TEST(QuorumSystem, DynamicLinearAddsHalfSets) {
  // §II-D's example: with node 1 distinguished over an even universe, sets
  // of size n/2 containing node 1 become quorums.
  const auto qs = QuorumSystem::dynamic_linear(universe(6), 1);
  EXPECT_EQ(qs.min_quorum_size(), 3u);
  EXPECT_TRUE(qs.pairwise_intersecting());
  EXPECT_TRUE(qs.covers_quorum({1, 2, 3}));
  EXPECT_FALSE(qs.covers_quorum({2, 3, 4}));
}

TEST(QuorumSystem, DuplicateUniverseThrows) {
  EXPECT_THROW(QuorumSystem::majority({1, 1, 2}), InvariantViolation);
  EXPECT_THROW(QuorumSystem::majority({}), InvariantViolation);
}

TEST(QuorumSystem, DistinguishedMustBeMember) {
  EXPECT_THROW(QuorumSystem::dynamic_linear(universe(4), 9),
               InvariantViolation);
}

/// Property (Definition 1): every constructed system is pairwise
/// intersecting, for both plain majority and dynamic linear variants.
class QuorumSystemProperty : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(QuorumSystemProperty, PairwiseIntersectionHolds) {
  const std::uint32_t n = GetParam();
  const auto maj = QuorumSystem::majority(universe(n));
  EXPECT_TRUE(maj.pairwise_intersecting()) << "majority over " << n;
  for (std::uint32_t dist = 1; dist <= n; ++dist) {
    const auto dl = QuorumSystem::dynamic_linear(universe(n), dist);
    EXPECT_TRUE(dl.pairwise_intersecting())
        << "dynamic-linear over " << n << " dist " << dist;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuorumSystemProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

/// Property: quorum_threshold matches the explicit set system — a subset is
/// a quorum iff its size reaches the threshold (given whether it holds the
/// distinguished element).
class ThresholdConsistency : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ThresholdConsistency, MatchesSetSystem) {
  const std::uint32_t n = GetParam();
  const std::uint32_t dist = 1;
  const auto qs = QuorumSystem::dynamic_linear(universe(n), dist);
  // Enumerate all subsets of the universe.
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<std::uint32_t> subset;
    bool has_dist = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        subset.push_back(i + 1);
        has_dist |= (i + 1 == dist);
      }
    }
    const bool by_sets = qs.covers_quorum(subset);
    const bool by_threshold =
        subset.size() >= quorum_threshold(n, has_dist) &&
        (2 * subset.size() > n || has_dist);
    EXPECT_EQ(by_sets, by_threshold)
        << "n=" << n << " subset size=" << subset.size()
        << " has_dist=" << has_dist;
    // And is_quorum agrees too.
    EXPECT_EQ(is_quorum(n, subset, dist), by_sets);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ThresholdConsistency,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u));

}  // namespace
}  // namespace qip
