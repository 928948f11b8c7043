// Tests for the experiment harness itself: World, Driver, PhaseMeter, and
// the figure helpers — the machinery every reported number flows through.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/figures.hpp"
#include "harness/parallel.hpp"
#include "harness/seed.hpp"
#include "harness/world.hpp"

namespace qip {
namespace {

TEST(World, PlacesNodesInsideArea) {
  World world(WorldParams{}, 5);
  for (NodeId id = 0; id < 50; ++id) {
    const Point p = world.place_random(id);
    EXPECT_TRUE(world.topology().area().contains(p));
  }
  EXPECT_EQ(world.topology().node_count(), 50u);
}

TEST(World, RunForAdvancesClock) {
  World world(WorldParams{}, 5);
  world.run_for(3.5);
  EXPECT_DOUBLE_EQ(world.sim().now(), 3.5);
}

TEST(World, SettleBudgetGuardsLivelock) {
  World world(WorldParams{}, 5);
  // A self-rescheduling event never drains: the budget must trip.
  std::function<void()> forever = [&] { world.sim().after(0.1, forever); };
  world.sim().after(0.1, forever);
  EXPECT_THROW(world.settle(/*max_events=*/100), InvariantViolation);
}

TEST(Driver, ConnectedArrivalsFormOneComponent) {
  World world(WorldParams{}, 17);
  QipEngine proto(world.transport(), world.rng(), QipParams{});
  proto.start_hello();
  DriverOptions dopt;
  dopt.mobility = false;  // static: connectivity is preserved
  Driver driver(world, proto, dopt);
  driver.join(40);
  EXPECT_EQ(world.topology().components().size(), 1u);
}

TEST(Driver, MembersTrackJoinsAndDepartures) {
  World world(WorldParams{}, 18);
  QipEngine proto(world.transport(), world.rng(), QipParams{});
  proto.start_hello();
  Driver driver(world, proto);
  const auto ids = driver.join(5);
  EXPECT_EQ(driver.members().size(), 5u);
  driver.depart_graceful(ids[1]);
  driver.depart_abrupt(ids[3]);
  EXPECT_EQ(driver.members().size(), 3u);
  EXPECT_FALSE(world.topology().has_node(ids[1]));
  EXPECT_FALSE(world.topology().has_node(ids[3]));
  EXPECT_EQ(driver.joined_count(), 5u);
}

TEST(Driver, JoinWaveEntersWithoutRunningTheWorld) {
  World world(WorldParams{}, 19);
  QipEngine proto(world.transport(), world.rng(), QipParams{});
  proto.start_hello();
  Driver driver(world, proto);
  driver.join(3);
  driver.depart_abrupt(1);
  const SimTime before = world.sim().now();
  driver.join_wave(3);
  EXPECT_EQ(world.sim().now(), before);
  EXPECT_EQ(driver.joined_count(), 6u);
  EXPECT_EQ(driver.members(), (std::vector<NodeId>{0, 2, 3, 4, 5}));
  for (NodeId id = 3; id < 6; ++id) {
    EXPECT_TRUE(world.topology().has_node(id));
  }
}

TEST(Driver, DepartWaveRunsOneSettleWindow) {
  World world(WorldParams{}, 20);
  QipEngine proto(world.transport(), world.rng(), QipParams{});
  proto.start_hello();
  DriverOptions dopt;
  dopt.departure_settle = 0.5;
  Driver driver(world, proto, dopt);
  driver.join(8);
  SimTime before = world.sim().now();
  const std::vector<NodeId> graceful = {5, 1}, abrupt = {3};
  driver.depart(graceful, abrupt);
  EXPECT_EQ(world.sim().now(), before + 0.5);
  EXPECT_EQ(driver.members(), (std::vector<NodeId>{0, 2, 4, 6, 7}));
  for (NodeId id : {1u, 3u, 5u}) {
    EXPECT_FALSE(world.topology().has_node(id));
  }
  // A wave with no graceful leaver still runs its settle window.
  before = world.sim().now();
  const std::vector<NodeId> last = {6};
  driver.depart({}, last);
  EXPECT_EQ(world.sim().now(), before + 0.5);
  EXPECT_EQ(driver.members(), (std::vector<NodeId>{0, 2, 4, 7}));
  EXPECT_FALSE(world.topology().has_node(6));
}

TEST(Driver, ConfiguredFractionAndLatency) {
  World world(WorldParams{}, 19);
  QipEngine proto(world.transport(), world.rng(), QipParams{});
  proto.start_hello();
  Driver driver(world, proto);
  driver.join(20);
  world.run_for(3.0);
  EXPECT_GT(driver.configured_fraction(), 0.9);
  EXPECT_GT(driver.mean_config_latency(), 0.0);
}

TEST(PhaseMeter, DiffsSinceReset) {
  MessageStats stats;
  PhaseMeter meter(stats);
  stats.record(Traffic::kConfiguration, 10);
  stats.record(Traffic::kHello, 5, 5);
  EXPECT_EQ(meter.hops(Traffic::kConfiguration), 10u);
  EXPECT_EQ(meter.protocol_hops(), 10u);  // hello excluded
  meter.reset();
  EXPECT_EQ(meter.hops(Traffic::kConfiguration), 0u);
  stats.record(Traffic::kDeparture, 3, 2);
  EXPECT_EQ(meter.hops(Traffic::kDeparture), 3u);
  EXPECT_EQ(meter.messages(Traffic::kDeparture), 2u);
}

TEST(Figures, RoundsFromEnv) {
  unsetenv("QIP_ROUNDS");
  EXPECT_EQ(rounds_from_env(7), 7u);
  setenv("QIP_ROUNDS", "12", 1);
  EXPECT_EQ(rounds_from_env(7), 12u);
  unsetenv("QIP_ROUNDS");
}

// A typo in a replication knob must not silently demote a long run to the
// default — malformed values are a hard error (exit 2), not a fallback.
TEST(EnvParseDeathTest, MalformedRoundsRejected) {
  setenv("QIP_ROUNDS", "garbage", 1);
  EXPECT_EXIT(rounds_from_env(7), ::testing::ExitedWithCode(2),
              "invalid QIP_ROUNDS");
  setenv("QIP_ROUNDS", "1O", 1);  // digit one, letter O
  EXPECT_EXIT(rounds_from_env(7), ::testing::ExitedWithCode(2),
              "invalid QIP_ROUNDS");
  setenv("QIP_ROUNDS", "0", 1);
  EXPECT_EXIT(rounds_from_env(7), ::testing::ExitedWithCode(2),
              "invalid QIP_ROUNDS");
  setenv("QIP_ROUNDS", "-3", 1);
  EXPECT_EXIT(rounds_from_env(7), ::testing::ExitedWithCode(2),
              "invalid QIP_ROUNDS");
  unsetenv("QIP_ROUNDS");
}

TEST(EnvParseDeathTest, MalformedJobsRejected) {
  setenv("QIP_JOBS", "four", 1);
  EXPECT_EXIT(jobs_from_env(1), ::testing::ExitedWithCode(2),
              "invalid QIP_JOBS");
  setenv("QIP_JOBS", "0", 1);
  EXPECT_EXIT(jobs_from_env(1), ::testing::ExitedWithCode(2),
              "invalid QIP_JOBS");
  unsetenv("QIP_JOBS");
  EXPECT_EQ(jobs_from_env(3), 3u);
  setenv("QIP_JOBS", "8", 1);
  EXPECT_EQ(jobs_from_env(3), 8u);
  unsetenv("QIP_JOBS");
}

TEST(EnvParseDeathTest, MalformedSeedRejected) {
  setenv("QIP_SEED", "not-a-seed", 1);
  EXPECT_EXIT(resolve_seed(1, 0, nullptr, false),
              ::testing::ExitedWithCode(2), "invalid QIP_SEED");
  setenv("QIP_SEED", "0x1cdc52007", 1);
  EXPECT_EQ(resolve_seed(1, 0, nullptr, false), 0x1cdc52007ULL);
  unsetenv("QIP_SEED");
  const char* argv[] = {"bench", "--seed", "bogus"};
  EXPECT_EXIT(resolve_seed(1, 3, argv, false), ::testing::ExitedWithCode(2),
              "invalid --seed");
}

TEST(Figures, Fig4LayoutProducesClusters) {
  const LayoutStats layout = fig4_layout(/*seed=*/3, 60, 150.0);
  EXPECT_EQ(layout.nodes, 60u);
  EXPECT_GE(layout.heads, 1u);
  EXPECT_LT(layout.heads, 30u);
  EXPECT_FALSE(layout.ascii_map.empty());
  // The map contains exactly one '#' or 'o' style marker per populated cell
  // and 20 lines.
  EXPECT_EQ(std::count(layout.ascii_map.begin(), layout.ascii_map.end(),
                       '\n'),
            20);
  EXPECT_NE(layout.ascii_map.find('#'), std::string::npos);
  EXPECT_NE(layout.ascii_map.find('o'), std::string::npos);
}

TEST(Figures, FigureDataRenders) {
  FigureData fig;
  fig.title = "t";
  fig.x_name = "x";
  fig.x = {1, 2};
  fig.series = {Series{"s", {3.0, 4.0}}};
  const std::string out = fig.render();
  EXPECT_NE(out.find("t"), std::string::npos);
  EXPECT_NE(out.find("4.00"), std::string::npos);
}

// ---------------------------------------------------------------------------
// UniquenessAuditor grace-window edges.  The conflict clock must survive a
// holder flickering out of the component and back — otherwise a node that
// departs and re-enters inside the healing grace masks a genuine duplicate
// indefinitely — and must survive extra claimants piling on, while a
// genuinely *new* collision on a previously-conflicted address still gets a
// fresh window.
// ---------------------------------------------------------------------------

/// Scripted protocol: the test dictates every address; nothing else runs.
class ScriptedProtocol : public AutoconfProtocol {
 public:
  using AutoconfProtocol::AutoconfProtocol;
  std::string name() const override { return "scripted"; }
  void node_entered(NodeId) override {}
  void node_departing(NodeId) override {}
  void node_left(NodeId) override {}
  void node_vanished(NodeId) override {}
  std::optional<IpAddress> address_of(NodeId id) const override {
    const auto it = addresses.find(id);
    if (it == addresses.end()) return std::nullopt;
    return it->second;
  }
  std::uint64_t audit_domain(NodeId id) const override {
    const auto it = domains.find(id);
    return it == domains.end() ? 0 : it->second;
  }

  std::map<NodeId, IpAddress> addresses;
  std::map<NodeId, std::uint64_t> domains;  ///< absent: domain 0
};

/// Reference oracle for UniquenessAuditor's uniqueness check: the algorithm
/// it replaced, one std::map of holders per connected component, walked in
/// component order.  With `report` set, a fatal conflict is appended there
/// and the check goes on (the QIP_AUDIT_TRACE path); otherwise the first
/// one throws.
class ReferenceAuditor {
 public:
  ReferenceAuditor(const Simulator& sim, const Topology& topology,
                   const AutoconfProtocol& proto, SimTime grace)
      : sim_(sim), topology_(topology), proto_(proto), grace_(grace) {}

  std::vector<std::string>* report = nullptr;

  std::size_t conflicts_pending() const { return pending_.size(); }

  void check_now() {
    const SimTime now = sim_.now();
    std::set<std::pair<std::uint64_t, IpAddress>> observed;
    for (const auto& component : topology_.components_view()) {
      std::map<std::pair<std::uint64_t, IpAddress>, std::vector<NodeId>>
          holders;
      for (NodeId id : component) {
        const auto addr = proto_.address_of(id);
        if (!addr) continue;
        holders[{proto_.audit_domain(id), *addr}].push_back(id);
      }
      for (auto& [key, hs] : holders) {
        if (hs.size() < 2) continue;
        std::sort(hs.begin(), hs.end());
        auto [pit, new_conflict] = pending_.try_emplace(key);
        PendingConflict& pc = pit->second;
        std::vector<NodeId> carried;
        std::set_intersection(pc.holders.begin(), pc.holders.end(),
                              hs.begin(), hs.end(),
                              std::back_inserter(carried));
        if (new_conflict || carried.size() < 2) pc.since = now;
        pc.holders = hs;
        pc.last_seen = now;
        observed.insert(key);
        if (now - pc.since < grace_) continue;
        std::ostringstream diff;
        diff << "duplicate address at t=" << now << ": " << key.second
             << " held by nodes " << hs[0] << " and " << hs[1];
        if (hs.size() > 2) diff << " (and " << hs.size() - 2 << " more)";
        diff << " in the same connected component since t=" << pc.since
             << " (grace " << grace_ << "s exceeded; domain " << key.first
             << ", protocol " << proto_.name() << ")";
        if (report != nullptr) {
          report->push_back(diff.str());
          continue;
        }
        QIP_ASSERT_MSG(false, diff.str());
      }
    }
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (!observed.count(it->first) && now - it->second.last_seen > grace_)
        it = pending_.erase(it);
      else
        ++it;
    }
  }

 private:
  struct PendingConflict {
    SimTime since = 0.0;
    SimTime last_seen = 0.0;
    std::vector<NodeId> holders;
  };

  const Simulator& sim_;
  const Topology& topology_;
  const AutoconfProtocol& proto_;
  SimTime grace_;
  std::map<std::pair<std::uint64_t, IpAddress>, PendingConflict> pending_;
};

/// What a check reported: the diff of its InvariantViolation, without the
/// "invariant violated: (...) at file:line — " prefix naming the source
/// line that threw, or "" when it passed.
template <typename Auditor>
std::string audit_outcome(Auditor& auditor) {
  try {
    auditor.check_now();
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    const std::string sep = " — ";
    const auto at = what.find(sep);
    return at == std::string::npos ? what : what.substr(at + sep.size());
  }
  return "";
}

struct AuditorFixture : ::testing::Test {
  AuditorFixture() {
    topo.add_node(1, {0.0, 0.0});
    topo.add_node(2, {10.0, 0.0});
  }

  Simulator sim;
  Topology topo{Rect{1000.0, 1000.0}, 120.0};
  MessageStats stats;
  Transport transport{sim, topo, stats, 0.01};
  Rng rng{99};
  ScriptedProtocol proto{transport, rng};
  // Huge probe period: every audit below is an explicit check_now() call at
  // a clock position set with sim.run().
  UniquenessAuditor auditor{sim, topo, proto, /*period=*/1e9, /*grace=*/10.0};
  const IpAddress kAddr{0x0A000001};
};

TEST_F(AuditorFixture, FlickeringHolderCannotResetTheGraceClock) {
  proto.addresses = {{1, kAddr}, {2, kAddr}};
  auditor.check_now();  // conflict first observed at t=0
  EXPECT_EQ(auditor.conflicts_pending(), 1u);

  sim.run(4.0);
  topo.remove_node(2);  // holder drifts out: conflict unobservable
  EXPECT_NO_THROW(auditor.check_now());
  sim.run(8.0);
  topo.add_node(2, {10.0, 0.0});  // ...and re-enters inside the grace window
  EXPECT_NO_THROW(auditor.check_now());  // clock continued: 8 < 10 still

  // The window is measured from t=0, not from the re-entry: the duplicate
  // becomes fatal at t=10, not t=18.
  sim.run(11.0);
  EXPECT_THROW(auditor.check_now(), InvariantViolation);
}

TEST_F(AuditorFixture, ThirdClaimantDoesNotRestartTheClock) {
  proto.addresses = {{1, kAddr}, {2, kAddr}};
  auditor.check_now();
  sim.run(5.0);
  topo.add_node(3, {20.0, 0.0});
  proto.addresses[3] = kAddr;  // piles onto the existing duplicate
  EXPECT_NO_THROW(auditor.check_now());
  sim.run(11.0);
  EXPECT_THROW(auditor.check_now(), InvariantViolation);
}

TEST_F(AuditorFixture, NewCollisionOnOldAddressGetsAFreshWindow) {
  proto.addresses = {{1, kAddr}, {2, kAddr}};
  auditor.check_now();
  sim.run(5.0);
  // The original conflict resolves; two different nodes then collide on the
  // same address.  Fewer than two holders carry over, so this is a new
  // conflict with its own grace window starting at t=5.
  topo.add_node(3, {20.0, 0.0});
  topo.add_node(4, {30.0, 0.0});
  proto.addresses = {{1, IpAddress{0x0A000002}},
                     {2, IpAddress{0x0A000003}},
                     {3, kAddr},
                     {4, kAddr}};
  EXPECT_NO_THROW(auditor.check_now());
  sim.run(12.0);
  EXPECT_NO_THROW(auditor.check_now());  // 7 s into the new window
  sim.run(16.0);
  EXPECT_THROW(auditor.check_now(), InvariantViolation);
}

TEST_F(AuditorFixture, ConflictQuietForAFullGraceIsResolved) {
  proto.addresses = {{1, kAddr}, {2, kAddr}};
  auditor.check_now();
  sim.run(2.0);
  topo.remove_node(2);
  auditor.check_now();  // unobservable, but carried (clock intact)
  EXPECT_EQ(auditor.conflicts_pending(), 1u);
  sim.run(13.0);  // quiet for > grace: considered resolved, not flickering
  auditor.check_now();
  EXPECT_EQ(auditor.conflicts_pending(), 0u);
  // A re-collision after resolution is a new conflict with a new window.
  topo.add_node(2, {10.0, 0.0});
  sim.run(14.0);
  EXPECT_NO_THROW(auditor.check_now());
  sim.run(20.0);
  EXPECT_NO_THROW(auditor.check_now());  // 6 s into the new window
  sim.run(25.0);
  EXPECT_THROW(auditor.check_now(), InvariantViolation);
}

TEST_F(AuditorFixture, CrossComponentDuplicateIsNotAViolation) {
  topo.add_node(3, {500.0, 0.0});  // out of range of nodes 1 and 2
  proto.addresses = {{1, kAddr}, {3, kAddr}};
  auditor.check_now();
  EXPECT_EQ(auditor.conflicts_pending(), 0u);
  sim.run(11.0);
  EXPECT_NO_THROW(auditor.check_now());
  EXPECT_EQ(auditor.conflicts_pending(), 0u);
}

TEST_F(AuditorFixture, CrossDomainDuplicateIsNotAViolation) {
  proto.addresses = {{1, kAddr}, {2, kAddr}};
  proto.domains = {{2, 1}};  // a healed partition pending merge
  auditor.check_now();
  EXPECT_EQ(auditor.conflicts_pending(), 0u);
  sim.run(11.0);
  EXPECT_NO_THROW(auditor.check_now());
  EXPECT_EQ(auditor.conflicts_pending(), 0u);
}

// Two fatal conflicts in one check: the one in the lower component index
// (components are ordered by smallest member) is reported, even when the
// other has the lower (domain, address).
TEST_F(AuditorFixture, LowerComponentIsReportedFirst) {
  topo.add_node(5, {500.0, 0.0});
  topo.add_node(6, {510.0, 0.0});
  const IpAddress low{0x0A000001}, high{0x0A000003};
  proto.addresses = {{1, high}, {2, high}, {5, low}, {6, low}};
  proto.domains = {{1, 1}, {2, 1}};
  auditor.check_now();
  EXPECT_EQ(auditor.conflicts_pending(), 2u);
  sim.run(11.0);
  const std::string outcome = audit_outcome(auditor);
  EXPECT_NE(outcome.find("10.0.0.3 held by nodes 1 and 2"), std::string::npos)
      << outcome;
}

// Within one component, the lower (domain, address) is reported first:
// domain before address.
TEST_F(AuditorFixture, LowerDomainThenAddressIsReportedFirst) {
  topo.add_node(3, {20.0, 0.0});
  topo.add_node(4, {30.0, 0.0});
  const IpAddress low{0x0A000001}, high{0x0A000003};
  proto.addresses = {{1, high}, {2, high}, {3, low}, {4, low}};
  proto.domains = {{3, 1}, {4, 1}};
  auditor.check_now();
  EXPECT_EQ(auditor.conflicts_pending(), 2u);
  sim.run(11.0);
  const std::string outcome = audit_outcome(auditor);
  EXPECT_NE(outcome.find("10.0.0.3 held by nodes 1 and 2"), std::string::npos)
      << outcome;
}

// QIP_AUDIT_TRACE is a strict switch read once per auditor: "0" and "off"
// mean off, so a duplicate that outlives the grace window stays fatal.
TEST_F(AuditorFixture, TraceSwitchOffKeepsDuplicatesFatal) {
  for (const char* off : {"0", "off", "false"}) {
    setenv("QIP_AUDIT_TRACE", off, 1);
    Simulator local_sim;
    UniquenessAuditor quiet{local_sim, topo, proto, /*period=*/1e9,
                            /*grace=*/10.0};
    proto.addresses = {{1, kAddr}, {2, kAddr}};
    quiet.check_now();
    local_sim.run(11.0);
    EXPECT_THROW(quiet.check_now(), InvariantViolation) << "value " << off;
  }
  unsetenv("QIP_AUDIT_TRACE");
}

TEST_F(AuditorFixture, TraceSwitchOnReportsAndContinues) {
  setenv("QIP_AUDIT_TRACE", "1", 1);
  UniquenessAuditor traced{sim, topo, proto, /*period=*/1e9, /*grace=*/10.0};
  unsetenv("QIP_AUDIT_TRACE");
  proto.addresses = {{1, kAddr}, {2, kAddr}};
  traced.check_now();
  sim.run(11.0);
  EXPECT_NO_THROW(traced.check_now());
}

using AuditorFixtureDeathTest = AuditorFixture;

TEST_F(AuditorFixtureDeathTest, MalformedTraceSwitchExitsTwo) {
  for (const char* bad : {"yes", "", "2"}) {
    setenv("QIP_AUDIT_TRACE", bad, 1);
    EXPECT_EXIT(
        (UniquenessAuditor{sim, topo, proto, /*period=*/1e9, /*grace=*/10.0}),
        ::testing::ExitedWithCode(2), "invalid QIP_AUDIT_TRACE");
  }
  unsetenv("QIP_AUDIT_TRACE");
}

// The flat pass against the per-component maps it replaced.  Twelve nodes
// on a line (each in range of its neighbours only) leave and re-enter, so
// the line splits and rejoins; addresses come from a pool of three, audit
// domains from two, and the clock advances 0.5-4 s against a 10 s grace.
// After every step both auditors must agree on whether the check throws,
// on what it reports and on the conflicts still pending.
TEST(AuditorDifferential, FlatPassMatchesPerComponentMaps) {
  Simulator sim;
  Topology topo{Rect{1200.0, 100.0}, 120.0};
  MessageStats stats;
  Transport transport{sim, topo, stats, 0.01};
  Rng rng{99};
  ScriptedProtocol proto{transport, rng};
  UniquenessAuditor auditor{sim, topo, proto, /*period=*/1e9, /*grace=*/10.0};
  ReferenceAuditor oracle{sim, topo, proto, /*grace=*/10.0};

  constexpr NodeId kNodes = 12;
  const auto slot = [](NodeId id) { return Point{100.0 * id, 50.0}; };
  for (NodeId id = 0; id < kNodes; ++id) topo.add_node(id, slot(id));
  const IpAddress pool[] = {IpAddress{0x0A000001}, IpAddress{0x0A000002},
                            IpAddress{0x0A000003}};

  Rng script{2024};
  for (NodeId id = 0; id < kNodes; ++id) {
    proto.addresses[id] = pool[script.index(3)];
    proto.domains[id] = script.index(2);
  }
  int fatal_steps = 0, multi_fatal_steps = 0, split_steps = 0;
  for (int step = 0; step < 240; ++step) {
    for (int edit = script.uniform_int(1, 2); edit > 0; --edit) {
      const auto id = static_cast<NodeId>(script.index(kNodes));
      const double what = script.uniform();
      if (what < 0.3) {
        const std::size_t a = script.index(4);
        if (a == 3) {
          proto.addresses.erase(id);
        } else {
          proto.addresses[id] = pool[a];
        }
      } else if (what < 0.45) {
        proto.domains[id] = script.index(2);
      } else if (!topo.has_node(id)) {
        topo.add_node(id, slot(id));  // re-enters in its old place
      } else if (script.chance(0.3)) {
        topo.remove_node(id);  // leaves: the line splits around it
      }
    }
    sim.run(sim.now() + 0.5 * static_cast<double>(script.uniform_int(1, 8)));

    // How many conflicts are fatal right now, from a copy of the oracle
    // that reports them all instead of throwing at the first.
    std::vector<std::string> fatal;
    ReferenceAuditor shadow = oracle;
    shadow.report = &fatal;
    shadow.check_now();

    const std::string want = audit_outcome(oracle);
    const std::string got = audit_outcome(auditor);
    ASSERT_EQ(got, want) << "step " << step;
    ASSERT_EQ(auditor.conflicts_pending(), oracle.conflicts_pending())
        << "step " << step;
    ASSERT_EQ(want.empty(), fatal.empty()) << "step " << step;
    if (!fatal.empty()) {
      ASSERT_EQ(want, fatal.front()) << "step " << step;
    }
    fatal_steps += !fatal.empty();
    multi_fatal_steps += fatal.size() >= 2;
    split_steps += topo.components_view().size() >= 2;
  }
  // The script must have exercised both outcomes, simultaneous fatal
  // conflicts, and the line both split and whole.
  EXPECT_GE(fatal_steps, 20);
  EXPECT_LE(fatal_steps, 220);
  EXPECT_GE(multi_fatal_steps, 10);
  EXPECT_GE(split_steps, 100);
  EXPECT_LE(split_steps, 235);
}

// A QIP node taken out of the topology without node_left/node_vanished
// keeps its address in the engine's state: the leak check must catch it.
TEST(Auditor, EngineStateForANodeOffTheFieldIsALeak) {
  World world(WorldParams{}, 21);
  QipEngine proto(world.transport(), world.rng(), QipParams{});
  proto.start_hello();
  DriverOptions dopt;
  dopt.mobility = false;
  dopt.audit = false;  // the auditor under test is the only one
  Driver driver(world, proto, dopt);
  const auto ids = driver.join(4);
  world.run_for(3.0);
  ASSERT_TRUE(proto.address_of(ids[2]).has_value());
  UniquenessAuditor auditor{world.sim(), world.topology(), proto,
                            /*period=*/1e9, /*grace=*/30.0};
  EXPECT_EQ(audit_outcome(auditor), "");
  world.topology().remove_node(ids[2]);  // the engine is never told
  const std::string outcome = audit_outcome(auditor);
  EXPECT_EQ(outcome.rfind("leaked address", 0), 0u) << outcome;
  EXPECT_NE(outcome.find("node " + std::to_string(ids[2]) +
                         " left the field but still holds"),
            std::string::npos)
      << outcome;
}

}  // namespace
}  // namespace qip
