// Protocol-trace grammar tests: the engine's observable message sequences
// must follow the exchanges of §IV (Table 1 and Figures 2–3).
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"
#include "sim/sim_context.hpp"

namespace qip {
namespace {

struct TraceFixture : ::testing::Test {
  SimContext ctx;
  WorldParams wp{};
  World world{wp, /*seed=*/808, ctx};
  QipParams qp{};
  std::unique_ptr<QipEngine> proto;
  std::unique_ptr<Driver> driver;

  void init() {
    qp.pool_size = 256;
    proto = std::make_unique<QipEngine>(world.transport(), world.rng(), qp);
    proto->start_hello();
    ctx.recorder().set_capacity(1u << 14);  // each test records far fewer
    ctx.recorder().enable();
    DriverOptions dopt;
    dopt.mobility = false;
    dopt.arrival_interval = 1.0;
    driver = std::make_unique<Driver>(world, *proto, dopt);
  }

  /// Every protocol message recorded so far: the `qip` instants (the
  /// config_txn and quorum_round spans share the category).
  std::vector<obs::Event> messages() const {
    EXPECT_EQ(ctx.recorder().overwritten(), 0u) << "the ring wrapped";
    std::vector<obs::Event> out;
    for (const obs::Event& e : ctx.recorder().events()) {
      if (e.phase == obs::Phase::kInstant && std::string_view(e.cat) == "qip")
        out.push_back(e);
    }
    return out;
  }

  static bool is(const obs::Event& e, QipMsg m) {
    return std::string_view(e.name) == to_string(m);
  }

  std::vector<obs::Event> of_kind(QipMsg m) const {
    std::vector<obs::Event> out;
    for (const obs::Event& e : messages()) {
      if (is(e, m)) out.push_back(e);
    }
    return out;
  }

  /// Index of the first message of kind m, or npos.
  std::size_t first_of(QipMsg m) const {
    const std::vector<obs::Event> events = messages();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (is(events[i], m)) return i;
    }
    return static_cast<std::size_t>(-1);
  }
};

TEST_F(TraceFixture, CommonNodeExchangeOrder) {
  init();
  driver->join_at({500, 500});
  world.run_for(5.0);
  ctx.recorder().clear();
  const NodeId b = driver->join_at({600, 500});
  world.run_for(2.0);
  ASSERT_TRUE(proto->configured(b));
  // COM_REQ strictly precedes COM_CFG, which precedes COM_ACK.
  const auto req = first_of(QipMsg::kComReq);
  const auto cfg = first_of(QipMsg::kComCfg);
  const auto ack = first_of(QipMsg::kComAck);
  ASSERT_NE(req, static_cast<std::size_t>(-1));
  ASSERT_NE(cfg, static_cast<std::size_t>(-1));
  ASSERT_NE(ack, static_cast<std::size_t>(-1));
  EXPECT_LT(req, cfg);
  EXPECT_LT(cfg, ack);
}

TEST_F(TraceFixture, QuorumReadPrecedesWrite) {
  init();
  // Two linked heads so quorum rounds actually run.
  driver->join_at({100, 500});
  world.run_for(5.0);
  driver->join_at({240, 500});
  driver->join_at({380, 500});
  driver->join_at({520, 500});
  world.run_for(3.0);
  ctx.recorder().clear();
  const NodeId c = driver->join_at({560, 560});
  world.run_for(3.0);
  ASSERT_TRUE(proto->configured(c));
  const auto clt = first_of(QipMsg::kQuorumClt);
  const auto cfm = first_of(QipMsg::kQuorumCfm);
  const auto upd = first_of(QipMsg::kQuorumUpd);
  ASSERT_NE(clt, static_cast<std::size_t>(-1));
  ASSERT_NE(cfm, static_cast<std::size_t>(-1));
  ASSERT_NE(upd, static_cast<std::size_t>(-1));
  EXPECT_LT(clt, cfm) << "votes cannot arrive before they are solicited";
  EXPECT_LT(cfm, upd) << "the write round must follow the read quorum";
  // Every CFM is a grant/busy/conflict — the vote arg says which.
  for (const obs::Event& ev : of_kind(QipMsg::kQuorumCfm)) {
    const obs::Arg* arg = ev.arg("vote");
    ASSERT_NE(arg, nullptr);
    const std::string_view vote = arg->s;
    EXPECT_TRUE(vote == "grant" || vote == "busy" || vote == "conflict")
        << vote;
  }
}

TEST_F(TraceFixture, Table1HandshakeComplete) {
  init();
  driver->join_at({100, 500});
  world.run_for(5.0);
  driver->join_at({240, 500});
  driver->join_at({380, 500});
  ctx.recorder().clear();
  const NodeId b = driver->join_at({520, 500});
  world.run_for(3.0);
  ASSERT_EQ(proto->state_of(b).role, Role::kClusterHead);
  const QipMsg order[] = {QipMsg::kChReq, QipMsg::kChPrp, QipMsg::kChCnf,
                          QipMsg::kChCfg, QipMsg::kChAck};
  std::size_t prev = 0;
  for (QipMsg m : order) {
    const auto at = first_of(m);
    ASSERT_NE(at, static_cast<std::size_t>(-1)) << to_string(m);
    EXPECT_GE(at, prev) << to_string(m) << " out of order";
    prev = at;
  }
}

TEST_F(TraceFixture, TimesAreNonDecreasing) {
  init();
  driver->join(10);
  world.run_for(5.0);
  const std::vector<obs::Event> events = messages();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts, events[i].ts);
  }
  EXPECT_GT(events.size(), 10u);
}

TEST_F(TraceFixture, DepartureEmitsReturnAddr) {
  init();
  driver->join_at({500, 500});
  world.run_for(5.0);
  const NodeId b = driver->join_at({600, 500});
  world.run_for(2.0);
  ctx.recorder().clear();
  driver->depart_graceful(b);
  world.run_for(1.0);
  EXPECT_FALSE(of_kind(QipMsg::kReturnAddr).empty());
  EXPECT_FALSE(of_kind(QipMsg::kReturnAck).empty());
}

}  // namespace
}  // namespace qip
