// Unit and property tests for quorum voting, dynamic linear voting and
// explicit quorum systems (§II-C, §II-D).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>

#include "quorum/quorum_policy.hpp"
#include "quorum/quorum_system.hpp"
#include "util/assert.hpp"

namespace qip {
namespace {

constexpr QuorumBackend kBackends[] = {QuorumBackend::kMajority,
                                       QuorumBackend::kDynamicLinear};

std::vector<std::uint32_t> universe(std::uint32_t n) {
  std::vector<std::uint32_t> u(n);
  std::iota(u.begin(), u.end(), 1u);
  return u;
}

/// The engine's count over explicit responders from a group of `n`: a
/// quorum iff they reach quorum_threshold(), with the distinguished bit set
/// when `dist` is among them.
bool counted_quorum(QuorumBackend backend, std::uint32_t n,
                    const std::vector<std::uint32_t>& responders,
                    std::optional<std::uint32_t> dist = std::nullopt) {
  const bool has_dist =
      dist && std::find(responders.begin(), responders.end(), *dist) !=
                  responders.end();
  return responders.size() >= quorum_threshold(backend, n, has_dist);
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
  const std::uint32_t w = quorum_threshold(QuorumBackend::kMajority, v, false);
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
    const QuorumSystem reads =
        read_system(QuorumBackend::kMajority, universe(v), 1);
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
  constexpr QuorumBackend dl = QuorumBackend::kDynamicLinear;
  // Odd group: distinguished node gives no discount.
  EXPECT_EQ(quorum_threshold(dl, 5, false), 3u);
  EXPECT_EQ(quorum_threshold(dl, 5, true), 3u);
  // Even group: exactly-half acceptable with the distinguished node.
  EXPECT_EQ(quorum_threshold(dl, 6, false), 4u);
  EXPECT_EQ(quorum_threshold(dl, 6, true), 3u);
  EXPECT_EQ(quorum_threshold(dl, 1, true), 1u);
  EXPECT_EQ(quorum_threshold(dl, 2, true), 1u);
  // Majority never discounts.
  for (std::uint32_t n = 1; n <= 20; ++n) {
    for (bool has_dist : {false, true}) {
      EXPECT_EQ(quorum_threshold(QuorumBackend::kMajority, n, has_dist),
                n / 2 + 1);
    }
  }
}

TEST(DynamicLinear, IsQuorumMajority) {
  constexpr QuorumBackend dl = QuorumBackend::kDynamicLinear;
  EXPECT_TRUE(counted_quorum(dl, 5, {1, 2, 3}));
  EXPECT_FALSE(counted_quorum(dl, 5, {1, 2}));
  EXPECT_FALSE(counted_quorum(dl, 4, {1, 2}));       // exactly half, no dist
  EXPECT_TRUE(counted_quorum(dl, 4, {1, 2}, 1));     // half containing dist
  EXPECT_FALSE(counted_quorum(dl, 4, {2, 3}, 1));    // half without dist
  EXPECT_TRUE(counted_quorum(dl, 4, {2, 3, 4}, 1));  // majority wins anyway
}

TEST(DynamicLinear, TwoHalvesCannotBothBeQuorums) {
  // Complementary halves of an even group: at most one contains the
  // distinguished node, so at most one is a quorum.
  const std::vector<std::uint32_t> left{1, 2, 3};
  const std::vector<std::uint32_t> right{4, 5, 6};
  for (QuorumBackend b : kBackends) {
    for (std::uint32_t dist = 1; dist <= 6; ++dist) {
      EXPECT_FALSE(counted_quorum(b, 6, left, dist) &&
                   counted_quorum(b, 6, right, dist))
          << to_string(b) << " dist=" << dist;
    }
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

/// Property: quorum_threshold matches the explicit write system of each
/// backend — a subset is a quorum iff its size reaches the threshold (given
/// whether it holds the distinguished element).
class ThresholdConsistency : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ThresholdConsistency, MatchesSetSystem) {
  const std::uint32_t n = GetParam();
  const std::uint32_t dist = 1;
  for (QuorumBackend b : kBackends) {
    const auto qs = write_system(b, universe(n), dist);
    // Enumerate all subsets of the universe.
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<std::uint32_t> subset;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) subset.push_back(i + 1);
      }
      EXPECT_EQ(qs.covers_quorum(subset), counted_quorum(b, n, subset, dist))
          << to_string(b) << " n=" << n << " mask=" << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ThresholdConsistency,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u));

}  // namespace
}  // namespace qip
