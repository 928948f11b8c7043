// Tests for the quorum backends: backend selection, equivalences between
// the counting rule, the explicit systems and the flat-majority slice
// declaration, federated slice semantics, enumeration-cap rejection, and the
// property-based intersection checker (docs/QUORUM.md).
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"
#include "quorum/intersection_checker.hpp"
#include "quorum/quorum_policy.hpp"
#include "quorum/quorum_system.hpp"
#include "quorum/slices.hpp"
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

std::vector<std::uint32_t> subset_of(std::uint32_t mask,
                                     const std::vector<std::uint32_t>& u) {
  std::vector<std::uint32_t> s;
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (mask & (1u << i)) s.push_back(u[i]);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Backend selection surface
// ---------------------------------------------------------------------------

TEST(QuorumBackend, NamesRoundTrip) {
  EXPECT_STREQ(to_string(QuorumBackend::kMajority), "majority");
  EXPECT_STREQ(to_string(QuorumBackend::kDynamicLinear), "dynamic_linear");
}

TEST(QuorumBackend, ParamsDefaultIgnoresEnvironment) {
  // QipParams::quorum is the only way to choose a rule: a QIP_QUORUM left
  // in the environment must not reach the engine.
  setenv("QIP_QUORUM", "majority", /*overwrite=*/1);
  const QuorumBackend chosen = QipParams{}.quorum;
  unsetenv("QIP_QUORUM");
  EXPECT_EQ(chosen, QuorumBackend::kDynamicLinear);
}

// ---------------------------------------------------------------------------
// Cross-backend equivalences (the fault-free suite of docs/QUORUM.md)
// ---------------------------------------------------------------------------

TEST(QuorumRuleEquivalence, SetFormsAgreeWithoutDistinguished) {
  // Without the distinguished voter both backends count a strict majority,
  // and so does the flat-majority slice declaration, on every subset of
  // every small universe.
  for (std::uint32_t n = 1; n <= 7; ++n) {
    const auto u = universe(n);
    const SliceConfig flat = SliceConfig::flat_majority(u);
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      const auto s = subset_of(mask, u);
      for (QuorumBackend b : kBackends) {
        EXPECT_EQ(s.size() >= quorum_threshold(b, n, false), flat.is_quorum(s))
            << to_string(b) << " n=" << n << " mask=" << mask;
      }
    }
  }
}

TEST(QuorumRuleEquivalence, MaterializedSystemsCoverIdentically) {
  for (std::uint32_t n = 1; n <= 7; ++n) {
    const auto u = universe(n);
    const QuorumSystem a = write_system(QuorumBackend::kMajority, u, u.front());
    const QuorumSystem b =
        QuorumSystem::from_slices(SliceConfig::flat_majority(u), u);
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      const auto s = subset_of(mask, u);
      EXPECT_EQ(a.covers_quorum(s), b.covers_quorum(s))
          << "n=" << n << " mask=" << mask;
    }
  }
}

TEST(QuorumRule, ReadSystemsIntersectWriteSystems) {
  for (QuorumBackend b : kBackends) {
    for (std::uint32_t n = 1; n <= 7; ++n) {
      const auto u = universe(n);
      const QuorumSystem writes = write_system(b, u, u.front());
      const QuorumSystem reads = read_system(b, u, u.front());
      EXPECT_TRUE(writes.pairwise_intersecting()) << to_string(b) << " " << n;
      for (const auto& r : reads.quorums()) {
        for (const auto& w : writes.quorums()) {
          std::vector<std::uint32_t> overlap;
          std::set_intersection(r.begin(), r.end(), w.begin(), w.end(),
                                std::back_inserter(overlap));
          EXPECT_FALSE(overlap.empty())
              << to_string(b) << " n=" << n << ": read quorum misses write";
        }
      }
    }
  }
}

TEST(QuorumRule, MajorityReadQuorumsAreMinimal) {
  // r = n − w + 1: reads are cheaper than writes on even groups.
  const QuorumSystem reads =
      read_system(QuorumBackend::kMajority, universe(6), 1);
  EXPECT_EQ(reads.min_quorum_size(), 3u);
  const QuorumSystem writes =
      write_system(QuorumBackend::kMajority, universe(6), 1);
  EXPECT_EQ(writes.min_quorum_size(), 4u);
}

// ---------------------------------------------------------------------------
// Federated slice semantics
// ---------------------------------------------------------------------------

TEST(Slices, FlatMajorityDeclarationShape) {
  const SliceConfig cfg = SliceConfig::flat_majority(universe(5));
  ASSERT_EQ(cfg.slices().size(), 5u);
  for (const auto& [node, slice] : cfg.slices()) {
    EXPECT_EQ(slice.threshold, 3u);
    EXPECT_EQ(slice.validators, universe(5));
  }
}

TEST(Slices, SatisfactionAndVBlocking) {
  QuorumSlice slice;
  slice.threshold = 2;
  slice.validators = {1, 2, 3};
  EXPECT_TRUE(SliceConfig::satisfies_slice(slice, {1, 3}));
  EXPECT_FALSE(SliceConfig::satisfies_slice(slice, {3}));
  EXPECT_TRUE(SliceConfig::satisfies_slice(slice, {1, 2, 3, 9}));
  // v-blocking: fewer than `threshold` validators survive outside the set.
  EXPECT_TRUE(SliceConfig::is_v_blocking(slice, {1, 2}));   // only 3 left
  EXPECT_FALSE(SliceConfig::is_v_blocking(slice, {1}));     // {2,3} suffice
  EXPECT_TRUE(SliceConfig::is_v_blocking(slice, {1, 2, 3}));
}

TEST(Slices, QuorumRequiresEveryMemberSatisfied) {
  // Node 4 trusts only {4,5}, so any quorum containing 4 needs both.
  SliceConfig cfg = SliceConfig::flat_majority(universe(3));
  QuorumSlice narrow;
  narrow.threshold = 2;
  narrow.validators = {4, 5};
  cfg.set(4, narrow);
  EXPECT_TRUE(cfg.is_quorum({1, 2}));        // flat majority of {1,2,3}
  EXPECT_FALSE(cfg.is_quorum({1, 2, 4}));    // 4's slice unsatisfied
  EXPECT_FALSE(cfg.is_quorum({1, 2, 5}));    // 5 never declared
  EXPECT_FALSE(cfg.is_quorum({}));
}

TEST(Slices, MaxQuorumWithinPrunesToFixpoint) {
  SliceConfig cfg = SliceConfig::flat_majority(universe(4));
  // {1,2,3} is the largest quorum inside {1,2,3}; adding undeclared 9
  // changes nothing; {1} alone prunes to empty.
  EXPECT_EQ(cfg.max_quorum_within({1, 2, 3}), universe(3));
  EXPECT_EQ(cfg.max_quorum_within({9, 3, 1, 2}), universe(3));
  EXPECT_TRUE(cfg.max_quorum_within({1}).empty());
}

TEST(Slices, MalformedDeclarationsThrow) {
  QuorumSlice slice;
  slice.threshold = 0;
  slice.validators = {1, 2};
  EXPECT_THROW(slice.validate(), InvariantViolation);
  slice.threshold = 3;
  EXPECT_THROW(slice.validate(), InvariantViolation);  // above validator count
  slice.threshold = 2;
  slice.validators = {2, 1};
  EXPECT_THROW(slice.validate(), InvariantViolation);  // unsorted
  slice.validators = {1, 1};
  EXPECT_THROW(slice.validate(), InvariantViolation);  // duplicate
  slice.validators.clear();
  EXPECT_THROW(slice.validate(), InvariantViolation);  // empty
}

TEST(QuorumSystem, FromSlicesMatchesConfigOnEverySubset) {
  SliceConfig cfg = SliceConfig::flat_majority(universe(5));
  QuorumSlice narrow;
  narrow.threshold = 1;
  narrow.validators = {1, 2};
  cfg.set(2, narrow);
  const QuorumSystem qs = QuorumSystem::from_slices(cfg, universe(5));
  for (std::uint32_t mask = 0; mask < (1u << 5); ++mask) {
    const auto s = subset_of(mask, universe(5));
    EXPECT_EQ(qs.covers_quorum(s), !cfg.max_quorum_within(s).empty())
        << "mask=" << mask;
  }
}

// ---------------------------------------------------------------------------
// Enumeration-cap rejection (FaultPlan::validate idiom)
// ---------------------------------------------------------------------------

TEST(QuorumSystemCaps, BuildersRejectOversizedUniverses) {
  const auto over = universe(QuorumSystem::kMaxUniverse + 1);
  EXPECT_THROW(QuorumSystem::majority(over), InvariantViolation);
  EXPECT_THROW(QuorumSystem::dynamic_linear(over, 1), InvariantViolation);
  EXPECT_THROW(QuorumSystem::fixed_size(over, 3), InvariantViolation);
  const auto over_slices = universe(QuorumSystem::kMaxSliceUniverse + 1);
  EXPECT_THROW(
      QuorumSystem::from_slices(SliceConfig::flat_majority(over_slices),
                                over_slices),
      InvariantViolation);
  // The caps themselves still build.
  EXPECT_NO_THROW(QuorumSystem::majority(universe(QuorumSystem::kMaxUniverse)));
  const auto at_slice_cap = universe(QuorumSystem::kMaxSliceUniverse);
  EXPECT_NO_THROW(QuorumSystem::from_slices(
      SliceConfig::flat_majority(at_slice_cap), at_slice_cap));
}

TEST(QuorumSystemCaps, RejectionNamesTheLimit) {
  try {
    QuorumSystem::majority(universe(QuorumSystem::kMaxUniverse + 4));
    FAIL() << "oversized universe was accepted";
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("24"), std::string::npos) << what;
    EXPECT_NE(what.find("enumeration cap"), std::string::npos) << what;
  }
}

TEST(QuorumSystemCaps, FixedSizeRejectsBadK) {
  EXPECT_THROW(QuorumSystem::fixed_size(universe(4), 0), InvariantViolation);
  EXPECT_THROW(QuorumSystem::fixed_size(universe(4), 5), InvariantViolation);
  EXPECT_EQ(QuorumSystem::fixed_size(universe(4), 2).quorums().size(), 6u);
}

// ---------------------------------------------------------------------------
// Intersection checker
// ---------------------------------------------------------------------------

TEST(IntersectionChecker, ExhaustivePassesOnAllBackends) {
  for (QuorumBackend b : kBackends) {
    for (std::uint32_t n = 1; n <= 6; ++n) {
      const IntersectionReport r = check_intersection_exhaustive(b, n);
      EXPECT_TRUE(r.ok) << to_string(b) << " n=" << n << ": " << r.violation;
      EXPECT_GE(r.views, 1u);
      if (n >= 3) {
        // Views beyond the starting QDSet means mid-adjustment states —
        // post-shrink views — were actually reached and checked.
        EXPECT_GT(r.views, 1u) << to_string(b) << " n=" << n;
        EXPECT_GT(r.shrinks, 0u) << to_string(b) << " n=" << n;
      }
    }
  }
}

TEST(IntersectionChecker, DynamicLinearReachesHalfSizeViews) {
  // The distinguished discount lets an even view shrink through exactly-half
  // survivorship: from {0,1,2,3}, survivors {0,1} (with distinguished 0)
  // commit the shrink — a view no majority backend can reach.
  const IntersectionReport dl =
      check_intersection_exhaustive(QuorumBackend::kDynamicLinear, 4);
  const IntersectionReport maj =
      check_intersection_exhaustive(QuorumBackend::kMajority, 4);
  EXPECT_TRUE(dl.ok) << dl.violation;
  EXPECT_TRUE(maj.ok) << maj.violation;
  EXPECT_GT(dl.views, maj.views);
}

TEST(IntersectionChecker, RandomizedPassesOnLargerUniverses) {
  for (QuorumBackend b : kBackends) {
    const IntersectionReport r = check_intersection_random(
        b, /*universe_size=*/14, /*seed=*/0x5eed, /*trials=*/64);
    EXPECT_TRUE(r.ok) << to_string(b) << ": " << r.violation;
    EXPECT_GE(r.views, 64u);
    EXPECT_GT(r.shrinks, 0u);
    EXPECT_GT(r.pairs, 0u);
  }
}

TEST(IntersectionChecker, SliceConfigAcceptsFlatMajority) {
  for (std::uint32_t n = 1; n <= 8; ++n) {
    const IntersectionReport r =
        check_slice_config(SliceConfig::flat_majority(universe(n)),
                           universe(n));
    EXPECT_TRUE(r.ok) << "n=" << n << ": " << r.violation;
  }
}

TEST(IntersectionChecker, RefutesDisjointTrustCliques) {
  // Two cliques that only trust themselves: {1,2,3} and {4,5,6} each form a
  // quorum, and they are disjoint — the checker must refuse this config.
  SliceConfig broken;
  QuorumSlice left, right;
  left.threshold = 2;
  left.validators = {1, 2, 3};
  right.threshold = 2;
  right.validators = {4, 5, 6};
  for (std::uint32_t n : {1u, 2u, 3u}) broken.set(n, left);
  for (std::uint32_t n : {4u, 5u, 6u}) broken.set(n, right);
  const IntersectionReport r = check_slice_config(broken, universe(6));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("disjoint"), std::string::npos) << r.violation;
  // The materialized system agrees: it is not pairwise intersecting.
  EXPECT_FALSE(
      QuorumSystem::from_slices(broken, universe(6)).pairwise_intersecting());
}

// ---------------------------------------------------------------------------
// Engine level: the default rule is dynamic linear, pop for pop
// ---------------------------------------------------------------------------

struct ScenarioOutcome {
  std::vector<std::pair<NodeId, std::string>> addresses;
  std::uint64_t protocol_hops = 0;
};

ScenarioOutcome run_scenario(QuorumBackend backend) {
  WorldParams wp;
  World world(wp, /*seed=*/77);
  QipParams qp;
  qp.pool_size = 256;
  qp.quorum = backend;
  QipEngine proto(world.transport(), world.rng(), qp);
  proto.start_hello();
  DriverOptions dopt;
  dopt.mobility = false;
  dopt.arrival_interval = 1.0;
  Driver driver(world, proto, dopt);
  // A multi-head line so quorum rounds really span several QDSet members.
  driver.join_at({60, 500});
  world.run_for(5.0);
  for (int i = 1; i <= 9; ++i) {
    driver.join_at({60.0 + 98.0 * i, 500.0});
    world.run_for(1.5);
  }
  world.run_for(5.0);
  ScenarioOutcome out;
  for (NodeId id = 0; id < driver.joined_count(); ++id) {
    if (!proto.configured(id)) continue;
    out.addresses.emplace_back(id, proto.address_of(id)->to_string());
  }
  out.protocol_hops = world.stats().protocol_hops();
  return out;
}

TEST(QuorumRuleEquivalence, EngineDefaultMatchesExplicitDynamicLinear) {
  const ScenarioOutcome dflt = run_scenario(QipParams{}.quorum);
  const ScenarioOutcome dl = run_scenario(QuorumBackend::kDynamicLinear);
  EXPECT_EQ(dflt.addresses, dl.addresses);
  EXPECT_EQ(dflt.protocol_hops, dl.protocol_hops);
  EXPECT_GE(dl.addresses.size(), 9u);
}

}  // namespace
}  // namespace qip
