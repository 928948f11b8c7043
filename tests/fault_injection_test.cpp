// Fault-injection suite: the paper's protocols under lossy delivery.
//
// The paper assumes "reliable delivery of messages within transmission
// range" (§IV-B); these tests remove that assumption with a FaultPlan and
// check three things.  First, survival: QIP, MANETconf and buddy complete a
// bringup under 0/5/20 % per-delivery loss without hanging, and the
// always-on uniqueness auditor stays clean throughout.  Second, the
// ablation: the ReliableChannel is what keeps QIP's quorum RPCs effective
// under loss — turning it off visibly degrades configuration while
// uniqueness still holds.  Third, determinism: a run is a pure function of
// (world seed, fault seed), and a null plan is byte-identical to never
// installing an injector at all.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "baselines/buddy.hpp"
#include "baselines/manetconf.hpp"
#include "core/qip_engine.hpp"
#include "fault/fault_plan.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"
#include "net/reliable_channel.hpp"

namespace qip {
namespace {

/// One deterministic bringup-and-churn run; returns stats for comparisons.
struct RunResult {
  double configured = 0.0;
  std::uint64_t protocol_hops = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t acks = 0;
  std::uint64_t dropped_in_flight = 0;
  std::map<NodeId, IpAddress> addresses;
};

class FaultSweep : public ::testing::TestWithParam<double> {};

TEST_P(FaultSweep, QipCompletesUnderLoss) {
  const double drop = GetParam();
  World world({}, /*seed=*/777);
  QipParams qp;
  qp.heal_on_conflict_evidence = true;  // active repair under loss
  QipEngine proto(world.transport(), world.rng(), qp);
  proto.start_hello();
  if (drop > 0.0) {
    FaultPlan plan;
    plan.drop = drop;
    world.enable_faults(plan);
  }
  Driver d(world, proto);

  d.join(40);
  world.run_for(5.0);
  d.depart_abrupt(d.members()[3]);
  d.depart_graceful(d.members()[10]);
  world.run_for(10.0);

  // Loss slows configuration but must not wedge it: even at 20 % the
  // retransmit machinery gets the overwhelming majority through.  The
  // auditor ran every 0.5 s for free and threw on any violation.
  EXPECT_GE(d.configured_fraction(), drop > 0.0 ? 0.9 : 1.0);
  if (drop > 0.0) {
    EXPECT_GT(world.faults()->stats().dropped, 0u);
    EXPECT_GT(proto.channel().retransmissions(), 0u);
  }
}

TEST_P(FaultSweep, ManetconfCompletesUnderLoss) {
  const double drop = GetParam();
  World world({}, /*seed=*/778);
  ManetConf proto(world.transport(), world.rng());
  if (drop > 0.0) {
    FaultPlan plan;
    plan.drop = drop;
    world.enable_faults(plan);
  }
  Driver d(world, proto);

  d.join(30);
  world.run_for(10.0);
  // MANETconf's all-node agreement has no retransmit machinery, so loss
  // visibly degrades it — the run must still terminate cleanly (no hang,
  // auditor quiet) with at least the initiator-free early joiners up.
  EXPECT_GE(d.configured_fraction(), drop > 0.0 ? 0.1 : 0.8);
  if (drop > 0.0) {
    EXPECT_GT(world.faults()->stats().dropped, 0u);
  }
}

TEST_P(FaultSweep, BuddyCompletesUnderLoss) {
  const double drop = GetParam();
  World world({}, /*seed=*/779);
  BuddyProtocol proto(world.transport(), world.rng());
  proto.start_sync();
  if (drop > 0.0) {
    FaultPlan plan;
    plan.drop = drop;
    world.enable_faults(plan);
  }
  Driver d(world, proto);

  d.join(30);
  world.run_for(10.0);
  // Buddy halves blocks peer-to-peer (one unicast handshake), so it rides
  // out loss better than flooding agreement, just not perfectly.
  EXPECT_GE(d.configured_fraction(), drop > 0.0 ? 0.7 : 0.8);
}

INSTANTIATE_TEST_SUITE_P(Loss, FaultSweep, ::testing::Values(0.0, 0.05, 0.20));

RunResult qip_lossy_run(bool reliable, std::uint64_t world_seed = 4242,
                        bool install_null_injector = false,
                        double drop = 0.2) {
  World world({}, world_seed);
  QipParams qp;
  qp.reliable_rpcs = reliable;
  qp.heal_on_conflict_evidence = drop > 0.0;
  QipEngine proto(world.transport(), world.rng(), qp);
  proto.start_hello();
  FaultPlan plan;
  plan.drop = drop;
  if (drop > 0.0 || install_null_injector) world.enable_faults(plan);
  Driver d(world, proto);

  d.join(35);
  world.run_for(8.0);

  RunResult r;
  r.configured = d.configured_fraction();
  r.protocol_hops = world.stats().protocol_hops();
  r.total_hops = world.stats().total_hops();
  r.retransmissions = world.stats().retransmissions();
  r.acks = world.stats().acks();
  r.dropped_in_flight = world.stats().dropped_in_flight();
  r.addresses = proto.configured_addresses();
  return r;
}

TEST(ReliabilityAblation, ChannelPaysForItselfUnderLoss) {
  const RunResult with = qip_lossy_run(/*reliable=*/true);
  const RunResult without = qip_lossy_run(/*reliable=*/false);

  // With the channel: retransmissions and acks happen, are charged to
  // MessageStats, and configuration succeeds despite 20 % loss.
  EXPECT_GT(with.retransmissions, 0u);
  EXPECT_GT(with.acks, 0u);
  EXPECT_GE(with.configured, 0.9);

  // Without it: no channel traffic, and lost quorum RPCs visibly degrade
  // the run — fewer nodes configure (stalled transactions wait for coarse
  // protocol timers).  Uniqueness held either way: the Driver's auditor
  // checked both runs throughout.
  EXPECT_EQ(without.retransmissions, 0u);
  EXPECT_EQ(without.acks, 0u);
  EXPECT_LT(without.configured, with.configured);
}

// ReliableChannel dedup: under a duplicate-heavy plan a receiver hears many
// sends more than once (injected duplicates, and retransmissions after a
// lost or late ack), yet each send's receiver must run exactly once.
TEST(ReliableChannelDedup, EachSendReachesItsReceiverOnce) {
  World world({}, /*seed=*/41);
  FaultPlan plan;
  plan.drop = 0.1;
  plan.duplicate = 0.5;
  plan.max_jitter = 0.05;
  world.enable_faults(plan);
  world.topology().add_node(1, {100, 100});
  world.topology().add_node(2, {150, 100});

  ReliableChannel channel(world.transport());
  ASSERT_TRUE(channel.active());
  constexpr std::size_t kSends = 200;
  std::vector<int> runs(kSends, 0);
  for (std::size_t i = 0; i < kSends; ++i) {
    const NodeId from = i % 2 == 0 ? 1 : 2;
    const NodeId to = from == 1 ? 2 : 1;
    ASSERT_TRUE(channel
                    .send(from, to, Traffic::kConfiguration,
                          [&runs, i](NodeId, std::uint32_t) { ++runs[i]; })
                    .has_value());
  }
  world.run_for(30.0);

  EXPECT_EQ(channel.in_flight(), 0u);
  EXPECT_EQ(channel.gave_up(), 0u);
  EXPECT_GT(channel.retransmissions(), 0u);
  for (std::size_t i = 0; i < kSends; ++i) {
    EXPECT_EQ(runs[i], 1) << "send " << i;
  }
  // Pinned for these seeds: any change to the dedup state must suppress
  // exactly the same copies and count the same acks.
  EXPECT_EQ(channel.duplicates_suppressed(), 127u);
  EXPECT_EQ(channel.acks_received(), 200u);
}

TEST(FaultDeterminism, SameSeedsSameRun) {
  const RunResult a = qip_lossy_run(true);
  const RunResult b = qip_lossy_run(true);
  EXPECT_EQ(a.protocol_hops, b.protocol_hops);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.dropped_in_flight, b.dropped_in_flight);
  EXPECT_EQ(a.addresses, b.addresses);
}

TEST(FaultDeterminism, NullPlanIsByteIdenticalToNoInjector) {
  const RunResult bare =
      qip_lossy_run(true, 4242, /*install_null_injector=*/false, /*drop=*/0.0);
  const RunResult null_plan =
      qip_lossy_run(true, 4242, /*install_null_injector=*/true, /*drop=*/0.0);
  EXPECT_EQ(bare.total_hops, null_plan.total_hops);
  EXPECT_EQ(bare.addresses, null_plan.addresses);
  // The reliable model never engages the channel (pass-through rule).
  EXPECT_EQ(bare.retransmissions, 0u);
  EXPECT_EQ(null_plan.retransmissions, 0u);
}

TEST(FaultStress, QipSurvivesLossCrashesAndOutages) {
  WorldParams wp;
  wp.transmission_range = 150.0;
  World world(wp, /*seed=*/909);
  QipParams qp;
  qp.pool_size = 256;
  qp.heal_on_conflict_evidence = true;
  QipEngine proto(world.transport(), world.rng(), qp);
  proto.start_hello();

  FaultPlan plan;
  plan.drop = 0.2;
  plan.duplicate = 0.05;
  plan.max_jitter = 0.01;
  // Crash/recover schedules: three radios go dark mid-run, two return.
  plan.node_outages = {{.node = 2, .from = 6.0, .until = 12.0},
                       {.node = 9, .from = 8.0, .until = 15.0},
                       {.node = 14, .from = 10.0, .until = 1e18}};
  plan.link_outages = {{.a = 0, .b = 1, .from = 4.0, .until = 20.0}};
  FaultInjector& inj = world.enable_faults(plan);
  Driver d(world, proto);

  d.join(45);
  world.run_for(6.0);
  for (int wave = 0; wave < 3; ++wave) {
    for (int k = 0; k < 5 && !d.members().empty(); ++k) {
      const NodeId victim = d.members()[world.rng().index(d.members().size())];
      if (world.rng().chance(0.5)) {
        d.depart_abrupt(victim);
      } else {
        d.depart_graceful(victim);
      }
    }
    d.join(4);
    world.run_for(4.0);
  }
  world.run_for(10.0);

  // The run completed: every fault class actually fired, the auditor (on
  // the whole time) saw zero violations, and the network still functions —
  // most surviving nodes hold addresses.
  EXPECT_GT(inj.stats().dropped, 0u);
  EXPECT_GT(inj.stats().duplicated, 0u);
  EXPECT_GT(inj.stats().blackouts + inj.stats().sends_blocked, 0u);
  std::uint32_t ok = 0;
  for (NodeId id : d.members()) ok += proto.configured(id) ? 1 : 0;
  EXPECT_GE(static_cast<double>(ok) / d.members().size(), 0.8);
}

// ---------------------------------------------------------------------------
// Plan validation: a malformed plan must die at construction with a clear
// message, not silently misbehave mid-run (a negative drop never drops, an
// inverted window never fires, overlapping windows double-judge deliveries).
// ---------------------------------------------------------------------------

TEST(FaultPlanValidation, WellFormedPlansPass) {
  FaultPlan plan;
  EXPECT_NO_THROW(plan.validate());  // null plan is trivially valid

  plan.drop = 0.2;
  plan.duplicate = 1.0;
  plan.max_jitter = 0.05;
  plan.node_outages = {{.node = 3, .from = 1.0, .until = 2.0},
                       {.node = 3, .from = 2.0, .until = 3.0},  // abuts: fine
                       {.node = 4, .from = 1.5, .until = 2.5}};
  plan.link_outages = {{.a = 0, .b = 1, .from = 0.0, .until = 5.0},
                       {.a = 1, .b = 2, .from = 2.0, .until = 4.0}};
  EXPECT_NO_THROW(plan.validate());
  EXPECT_NO_THROW(FaultInjector{plan});
}

TEST(FaultPlanValidation, RejectsOutOfRangeProbabilities) {
  FaultPlan plan;
  plan.drop = 1.5;
  EXPECT_THROW(plan.validate(), InvariantViolation);
  plan.drop = -0.1;
  EXPECT_THROW(plan.validate(), InvariantViolation);
  plan.drop = 0.0;
  plan.duplicate = 2.0;
  EXPECT_THROW(plan.validate(), InvariantViolation);
}

TEST(FaultPlanValidation, RejectsNegativeJitter) {
  FaultPlan plan;
  plan.max_jitter = -0.01;
  EXPECT_THROW(plan.validate(), InvariantViolation);
}

TEST(FaultPlanValidation, RejectsOutageWithoutANode) {
  FaultPlan plan;
  plan.node_outages = {{.from = 0.0, .until = 1.0}};  // node left at kNoNode
  EXPECT_THROW(plan.validate(), InvariantViolation);
}

TEST(FaultPlanValidation, RejectsInvertedOrNegativeWindows) {
  FaultPlan plan;
  plan.node_outages = {{.node = 1, .from = 5.0, .until = 2.0}};
  EXPECT_THROW(plan.validate(), InvariantViolation);
  plan.node_outages = {{.node = 1, .from = -1.0, .until = 2.0}};
  EXPECT_THROW(plan.validate(), InvariantViolation);
}

TEST(FaultPlanValidation, RejectsOverlappingNodeWindows) {
  FaultPlan plan;
  plan.node_outages = {{.node = 7, .from = 0.0, .until = 10.0},
                       {.node = 7, .from = 5.0, .until = 15.0}};
  EXPECT_THROW(plan.validate(), InvariantViolation);
}

TEST(FaultPlanValidation, RejectsDegenerateLinks) {
  FaultPlan plan;
  plan.link_outages = {{.a = 3, .b = 3, .from = 0.0, .until = 1.0}};
  EXPECT_THROW(plan.validate(), InvariantViolation);
  plan.link_outages = {{.a = 3, .from = 0.0, .until = 1.0}};  // b missing
  EXPECT_THROW(plan.validate(), InvariantViolation);
}

TEST(FaultPlanValidation, RejectsOverlappingLinkWindowsEitherDirection) {
  FaultPlan plan;
  // Same physical link written with swapped endpoints: canonicalization
  // must still catch the overlap.
  plan.link_outages = {{.a = 1, .b = 2, .from = 0.0, .until = 10.0},
                       {.a = 2, .b = 1, .from = 5.0, .until = 15.0}};
  EXPECT_THROW(plan.validate(), InvariantViolation);
}

TEST(FaultPlanValidation, InjectorConstructionValidates) {
  FaultPlan plan;
  plan.drop = 7.0;
  // The injector front-loads validation: a bad plan fails before a single
  // event runs, whether built directly or installed through a World.
  EXPECT_THROW(FaultInjector{plan}, InvariantViolation);
  World world({}, /*seed=*/1);
  EXPECT_THROW(world.enable_faults(plan), InvariantViolation);
}

}  // namespace
}  // namespace qip
