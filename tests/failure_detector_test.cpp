// Failure-detector suite (ctest -L adversary): SwimDetector unit mechanics —
// detection latency, indirect probing, the clear()-on-outage contract —
// plus the engine-level equivalence guarantee: on a fault-free run, no
// detector and swim produce byte-identical configurations with zero
// suspicions or quarantines (the detector is a pure observer until
// something actually fails).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"
#include "net/failure_detector.hpp"
#include "net/metrics.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace qip {
namespace {

/// The net_test chain: 0 - 1 - 2 - 3 - 4, 100 m apart, range 120 m.
Topology chain_topology() {
  Topology topo(Rect{1000.0, 1000.0}, 120.0);
  for (std::uint32_t i = 0; i < 5; ++i) {
    topo.add_node(i, {100.0 * i, 0.0});
  }
  return topo;
}

struct DetectorFixture : ::testing::Test {
  Simulator sim;
  Topology topo = chain_topology();
  MessageStats stats;
  Transport transport{sim, topo, stats, 0.01};
};

// ---------------------------------------------------------------------------
// SwimDetector
// ---------------------------------------------------------------------------

TEST_F(DetectorFixture, SwimRespondingTargetNeverSuspected) {
  SwimDetector det(transport);
  det.set_responder([](NodeId) { return true; });
  for (int i = 0; i < 5; ++i) {
    det.observe(0, {1});
    sim.run(sim.now() + 1.0);
  }
  EXPECT_EQ(det.misses(0, 1), 0u);
  EXPECT_FALSE(det.suspects(0, 1));
  // Probe traffic is metered as maintenance: ping + ack, one hop each.
  EXPECT_EQ(stats.of(Traffic::kMaintenance).messages, 10u);
}

TEST_F(DetectorFixture, SwimSilentTargetSuspectedWithinTwoProbeCycles) {
  SwimDetector det(transport);
  det.set_responder([](NodeId) { return false; });
  // Watch of one: no proxies, so a miss is confirmed at the direct
  // ack_timeout (0.5 s).  confirm_misses = 2 — one miss is not a verdict.
  det.observe(0, {1});
  sim.run(0.6);
  EXPECT_EQ(det.misses(0, 1), 1u);
  EXPECT_FALSE(det.suspects(0, 1));
  det.observe(0, {1});
  sim.run(1.2);
  EXPECT_TRUE(det.suspects(0, 1));
  // Detection latency: two probe cycles, ~2 × ack_timeout of sim time.
  EXPECT_LE(sim.now(), 1.2);
}

TEST_F(DetectorFixture, SwimUnreachableTargetSuspectedAtSameCadence) {
  topo.add_node(99, {900.0, 900.0});  // out of everyone's range
  SwimDetector det(transport);
  det.set_responder([](NodeId) { return true; });
  det.observe(0, {99});  // ping is never delivered: silence, not a refusal
  sim.run(0.6);
  EXPECT_EQ(det.misses(0, 99), 1u);
  det.observe(0, {99});
  sim.run(1.2);
  EXPECT_TRUE(det.suspects(0, 99));
}

TEST_F(DetectorFixture, SwimIndirectRoundExtendsConfirmationDeadline) {
  SwimDetector det(transport);
  // Proxy 4 serves probes; target 1 refuses everything.  The direct miss at
  // 0.5 s starts a ping-req round through the proxy, and only its 1.0 s
  // deadline expiring confirms the miss.
  det.set_responder([](NodeId n) { return n == 4; });
  det.observe(0, {1, 4});  // round-robin starts at the lowest id: target 1
  sim.run(1.0);
  EXPECT_EQ(det.misses(0, 1), 0u);  // indirect round still in flight
  sim.run(1.6);
  EXPECT_EQ(det.misses(0, 1), 1u);
  EXPECT_FALSE(det.suspects(0, 1));
}

TEST_F(DetectorFixture, SwimAckClearsAccumulatedMisses) {
  SwimDetector det(transport);
  bool serving = false;
  det.set_responder([&](NodeId) { return serving; });
  det.observe(0, {1});
  sim.run(0.6);
  ASSERT_EQ(det.misses(0, 1), 1u);
  serving = true;  // the node recovers before the threshold
  det.observe(0, {1});
  sim.run(1.2);
  EXPECT_EQ(det.misses(0, 1), 0u);
  EXPECT_FALSE(det.suspects(0, 1));
}

// Regression for the stale-evidence bug: misses accumulated while a peer was
// genuinely unreachable must not condemn it the moment it drifts back into
// range.  The engine calls clear() whenever its own (crash-level) oracle
// already accounts for the peer; a cleared pair starts from zero.
TEST_F(DetectorFixture, SwimClearWipesStaleOutageEvidence) {
  SwimDetector det(transport);
  bool in_range = false;  // models the peer being away
  det.set_responder([&](NodeId) { return in_range; });
  for (int i = 0; i < 2; ++i) {
    det.observe(0, {1});
    sim.run(sim.now() + 0.6);
  }
  ASSERT_TRUE(det.suspects(0, 1));  // outage looked like two misses
  det.clear(0, 1);
  EXPECT_FALSE(det.suspects(0, 1));
  EXPECT_EQ(det.misses(0, 1), 0u);
  in_range = true;  // the peer returns, honest
  det.observe(0, {1});
  sim.run(sim.now() + 1.0);
  EXPECT_EQ(det.misses(0, 1), 0u);  // fresh start, immediate ack
  EXPECT_FALSE(det.suspects(0, 1));
}

TEST_F(DetectorFixture, SwimForgetDropsAllStateAboutPeer) {
  SwimDetector det(transport);
  det.set_responder([](NodeId) { return false; });
  for (int i = 0; i < 2; ++i) {
    det.observe(0, {1});
    det.observe(1, {0});
    sim.run(sim.now() + 0.6);
  }
  ASSERT_TRUE(det.suspects(0, 1));
  ASSERT_TRUE(det.suspects(1, 0));
  det.forget(1);
  EXPECT_FALSE(det.suspects(0, 1));
  EXPECT_FALSE(det.suspects(1, 0));
  EXPECT_EQ(det.misses(0, 1), 0u);
}

TEST_F(DetectorFixture, SwimRoundRobinCyclesThroughWatchList) {
  SwimDetector det(transport);
  std::vector<NodeId> pinged;
  det.set_responder([&](NodeId n) {
    pinged.push_back(n);
    return true;
  });
  for (int i = 0; i < 4; ++i) {
    det.observe(0, {1, 2, 3});
    sim.run(sim.now() + 1.0);
  }
  // Deterministic rotation over the sorted watch-list, wrapping around.
  EXPECT_EQ(pinged, (std::vector<NodeId>{1, 2, 3, 1}));
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: on a fault-free run the detector is invisible —
// same addresses, no suspicion, no quarantine, with and without swim.
// ---------------------------------------------------------------------------

struct EquivalenceResult {
  std::map<NodeId, IpAddress> addresses;
  double configured = 0.0;
  std::uint64_t quarantines = 0;
  std::uint64_t challenges = 0;
};

EquivalenceResult run_with_detector(bool swim_on) {
  WorldParams wp;
  wp.transmission_range = 150.0;
  wp.area_side = 500.0;
  World world(wp, /*seed=*/31337);
  QipParams qp;
  qp.harden.enabled = true;  // full hardening path active, nothing to harden
  QipEngine proto(world.transport(), world.rng(), qp);
  SwimDetector swim(world.transport());
  if (swim_on) proto.set_failure_detector(&swim);
  proto.start_hello();
  Driver d(world, proto);
  d.join(40);
  world.run_for(30.0);

  EquivalenceResult out;
  out.addresses = proto.configured_addresses();
  out.configured = d.configured_fraction();
  out.quarantines = proto.quarantines();
  out.challenges = proto.challenges_sent();
  return out;
}

TEST(DetectorEquivalence, FaultFreeRunIsIdenticalAcrossDetectors) {
  const EquivalenceResult none = run_with_detector(false);
  const EquivalenceResult swim = run_with_detector(true);

  EXPECT_EQ(none.configured, 1.0);
  for (const EquivalenceResult* r : {&none, &swim}) {
    EXPECT_EQ(r->quarantines, 0u);
    EXPECT_EQ(r->challenges, 0u);
  }
  // Probe traffic differs; protocol decisions must not.
  EXPECT_EQ(none.addresses, swim.addresses);
  EXPECT_EQ(none.configured, swim.configured);
}

}  // namespace
}  // namespace qip
