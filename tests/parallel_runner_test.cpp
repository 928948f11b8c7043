// Parallel replication suite (ctest -L parallel).
//
// The determinism contract (docs/PARALLELISM.md): the worker count is pure
// mechanism.  run_cells() must produce the same results, the same merged
// trace and the same metrics at every QIP_JOBS value — and two Worlds on two fresh SimContexts must never observe each other,
// however their event loops interleave.
//
// Wall-clock profile sections (cat "profile", profile_us histograms) are the
// one documented exception: ProfileScope measures real time, which differs
// run to run even sequentially.  Comparisons below filter them out; every
// sim-time event and every deterministic metric must match exactly.
//
// Run this suite under TSan (QIP_SANITIZE=thread) to validate the handoff
// protocol in run_cells: worker → merger slot publication, backpressure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/parallel.hpp"
#include "harness/world.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/sim_context.hpp"

namespace qip {
namespace {

DriverOptions static_arrivals() {
  DriverOptions d;
  d.mobility = false;
  return d;
}

/// One replication cell: a 25-node QIP bringup on `ctx`, exporting its
/// message accounting into the context's registry on the way out.
struct CellOutcome {
  double configured = 0.0;
  double latency = 0.0;
  std::uint64_t protocol_hops = 0;
};

CellOutcome bringup_cell(SimContext& ctx, std::uint64_t seed) {
  World world(WorldParams{}, seed, ctx);
  QipEngine proto(world.transport(), world.rng(), QipParams{});
  proto.start_hello();
  Driver driver(world, proto, static_arrivals());
  driver.join(25);
  world.run_for(3.0);
  world.stats().export_to(ctx.metrics());
  CellOutcome out;
  out.configured = driver.configured_fraction();
  out.latency = driver.mean_config_latency();
  out.protocol_hops = world.stats().protocol_hops();
  return out;
}

bool is_profile(const obs::Event& e) {
  return e.cat != nullptr && std::string_view(e.cat) == "profile";
}

std::vector<obs::Event> sim_events(const obs::TraceRecorder& rec) {
  std::vector<obs::Event> out;
  for (const auto& e : rec.events()) {
    if (!is_profile(e)) out.push_back(e);
  }
  return out;
}

/// render_text() minus the wall-clock profile_us series.
std::string deterministic_metrics(const obs::MetricsRegistry& metrics) {
  std::istringstream in(metrics.render_text());
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("profile_us") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

void expect_same_events(const std::vector<obs::Event>& a,
                        const std::vector<obs::Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_STREQ(a[i].name, b[i].name);
    EXPECT_STREQ(a[i].cat, b[i].cat);
    EXPECT_EQ(a[i].phase, b[i].phase);
    EXPECT_EQ(a[i].ts, b[i].ts);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].tid, b[i].tid);
    ASSERT_EQ(a[i].argc, b[i].argc);
    for (std::uint8_t k = 0; k < a[i].argc; ++k) {
      EXPECT_STREQ(a[i].args[k].key, b[i].args[k].key);
      ASSERT_EQ(a[i].args[k].kind, b[i].args[k].kind);
      switch (a[i].args[k].kind) {
        case obs::Arg::Kind::kInt:
          EXPECT_EQ(a[i].args[k].i, b[i].args[k].i);
          break;
        case obs::Arg::Kind::kDouble:
          EXPECT_EQ(a[i].args[k].d, b[i].args[k].d);
          break;
        case obs::Arg::Kind::kStr:
          EXPECT_STREQ(a[i].args[k].s, b[i].args[k].s);
          break;
        case obs::Arg::Kind::kNone:
          break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// run_cells mechanics
// ---------------------------------------------------------------------------

TEST(RunCells, MergesInAscendingOrderAtAnyJobsCount) {
  for (std::uint32_t jobs : {1u, 2u, 4u, 16u}) {
    SCOPED_TRACE(jobs);
    SimContext parent;
    std::vector<std::size_t> order;
    std::vector<std::uint64_t> seeds;
    run_cells<std::uint64_t>(
        parent, jobs, 13,
        [](std::size_t idx, SimContext&) {
          return derive_cell_seed(42, 0, idx);
        },
        [&](std::size_t idx, std::uint64_t seed) {
          order.push_back(idx);
          seeds.push_back(seed);
        });
    ASSERT_EQ(order.size(), 13u);
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i);
      // Each result reaches merge() with its own index — never with the
      // index of whichever cell a worker happened to finish first.
      EXPECT_EQ(seeds[i], derive_cell_seed(42, 0, i));
    }
  }
}

TEST(RunCells, LowestIndexExceptionWinsAndLaterCellsAreDiscarded) {
  for (std::uint32_t jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    SimContext parent;
    std::vector<std::size_t> merged;
    try {
      run_cells<int>(
          parent, jobs, 12,
          [](std::size_t idx, SimContext&) -> int {
            if (idx == 3 || idx == 7) {
              throw std::runtime_error("boom " + std::to_string(idx));
            }
            return static_cast<int>(idx);
          },
          [&](std::size_t idx, int) { merged.push_back(idx); });
      FAIL() << "run_cells swallowed the cell exception";
    } catch (const CellFailure& e) {
      // Deterministic even when cell 7 finishes (and fails) first — and the
      // rethrown failure carries the cell's index, not just the payload: it
      // names the one simulation to re-run in isolation.
      EXPECT_EQ(e.index(), 3u);
      EXPECT_EQ(std::string(e.what()).rfind("cell 3: ", 0), 0u) << e.what();
      EXPECT_NE(std::string(e.what()).find("boom 3"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(merged, (std::vector<std::size_t>{0, 1, 2}));
  }
}

TEST(RunCells, NonStdExceptionsStillCarryCellIdentity) {
  SimContext parent;
  try {
    run_cells<int>(
        parent, /*jobs=*/1, /*total=*/2,
        [](std::size_t, SimContext&) -> int { throw 42; },
        [](std::size_t, int) {});
    FAIL() << "run_cells swallowed the cell exception";
  } catch (const CellFailure& e) {
    EXPECT_EQ(e.index(), 0u);
    EXPECT_NE(std::string(e.what()).find("unknown exception"),
              std::string::npos);
  }
}

TEST(RunCells, FailureCancelsStillQueuedCells) {
  // Cell 0 fails immediately; everything queued behind the failure should be
  // skipped, not run to completion.  With the backpressure window (2*jobs+2)
  // only a bounded prefix can even start before the failure is recorded, so
  // an executed count anywhere near `total` means cancellation is broken.
  std::atomic<std::size_t> executed{0};
  SimContext parent;
  try {
    run_cells<int>(
        parent, /*jobs=*/4, /*total=*/400,
        [&](std::size_t idx, SimContext&) -> int {
          if (idx == 0) throw std::runtime_error("first cell fails");
          executed.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return 0;
        },
        [](std::size_t, int) {});
    FAIL() << "run_cells swallowed the cell exception";
  } catch (const CellFailure& e) {
    EXPECT_EQ(e.index(), 0u);
  }
  EXPECT_LT(executed.load(), 100u);
}

TEST(Parallel, DeriveCellSeedIsPureAndCollisionFree) {
  EXPECT_EQ(derive_cell_seed(5, 2, 3), derive_cell_seed(5, 2, 3));
  std::set<std::uint64_t> seen;
  for (std::uint64_t xi = 0; xi < 6; ++xi) {
    for (std::uint64_t r = 0; r < 8; ++r) {
      seen.insert(derive_cell_seed(12345, xi, r));
    }
  }
  EXPECT_EQ(seen.size(), 48u);
}

// ---------------------------------------------------------------------------
// Byte-identity of merged results, traces and metrics across jobs
// ---------------------------------------------------------------------------

std::vector<CellOutcome> replicate(std::uint32_t jobs, std::size_t cells) {
  SimContext parent;
  std::vector<CellOutcome> merged;
  run_cells<CellOutcome>(
      parent, jobs, cells,
      [](std::size_t idx, SimContext& ctx) {
        return bringup_cell(ctx, derive_cell_seed(99, 0, idx));
      },
      [&](std::size_t, CellOutcome out) { merged.push_back(out); });
  return merged;
}

TEST(RunCells, ResultsAreBitIdenticalAcrossJobs) {
  const auto sequential = replicate(/*jobs=*/1, /*cells=*/4);
  const auto parallel = replicate(/*jobs=*/4, /*cells=*/4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    SCOPED_TRACE(i);
    // Exact equality, not near-equality: same seed, same event order, same
    // floating-point operations in the same order.
    EXPECT_EQ(sequential[i].configured, parallel[i].configured);
    EXPECT_EQ(sequential[i].latency, parallel[i].latency);
    EXPECT_EQ(sequential[i].protocol_hops, parallel[i].protocol_hops);
  }
  EXPECT_GT(sequential[0].configured, 0.9);
}

struct Observed {
  std::vector<obs::Event> events;
  std::string metrics;
};

Observed observe(std::uint32_t jobs) {
  SimContext parent;
  parent.recorder().set_capacity(1u << 15);
  parent.recorder().enable();
  run_cells<CellOutcome>(
      parent, jobs, /*total=*/3,
      [](std::size_t idx, SimContext& ctx) {
        // A per-cell marker: merge order shows up in the trace itself.
        ctx.recorder().instant(0.0, "cell_marker", "test",
                               static_cast<std::uint32_t>(idx));
        return bringup_cell(ctx, derive_cell_seed(7, 0, idx));
      },
      [](std::size_t, CellOutcome) {});
  Observed o;
  o.events = sim_events(parent.recorder());
  o.metrics = deterministic_metrics(parent.metrics());
  return o;
}

TEST(RunCells, TraceMetricsAndLogsIdenticalAcrossJobs) {
  const Observed sequential = observe(/*jobs=*/1);
  const Observed parallel = observe(/*jobs=*/4);

  // The bringup traces something: empty-vs-empty would vacuously pass.
  ASSERT_GT(sequential.events.size(), 100u);
  expect_same_events(sequential.events, parallel.events);

  ASSERT_NE(sequential.metrics.find("qip_messages_total"), std::string::npos);
  EXPECT_EQ(sequential.metrics, parallel.metrics);

  // The trace is the run's one log: each replica's events land in merge
  // order, so the per-cell markers read 0, 1, 2 at any jobs count.
  std::vector<std::uint32_t> markers;
  for (const auto& e : parallel.events) {
    if (std::string_view(e.name) == "cell_marker") markers.push_back(e.tid);
  }
  EXPECT_EQ(markers, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(RunCells, ReplicaSpanIdsNeverCollideAfterMerge) {
  SimContext parent;
  parent.recorder().set_capacity(1u << 15);
  parent.recorder().enable();
  run_cells<int>(
      parent, /*jobs=*/4, /*total=*/4,
      [](std::size_t idx, SimContext& ctx) {
        bringup_cell(ctx, derive_cell_seed(3, 0, idx));
        return 0;
      },
      [](std::size_t, int) {});
  // Every begin must pair with exactly one end of the same id; ids from
  // different replicas were remapped past each other by merge_from().
  std::set<std::uint64_t> open;
  std::size_t spans = 0;
  for (const auto& e : sim_events(parent.recorder())) {
    if (e.phase == obs::Phase::kBegin) {
      EXPECT_TRUE(open.insert(e.id).second) << "duplicate span id " << e.id;
      ++spans;
    } else if (e.phase == obs::Phase::kEnd) {
      EXPECT_EQ(open.erase(e.id), 1u) << "end without begin, id " << e.id;
    }
  }
  EXPECT_TRUE(open.empty());
  EXPECT_GT(spans, 0u);
}

// ---------------------------------------------------------------------------
// SimContext isolation
// ---------------------------------------------------------------------------

/// A stepwise 20-node bringup on its own fresh context, so two instances can
/// interleave their event loops.
class Scenario {
 public:
  explicit Scenario(std::uint64_t seed)
      : world_(WorldParams{}, seed, ctx_),
        proto_(world_.transport(), world_.rng(), QipParams{}) {
    ctx_.recorder().set_capacity(1u << 14);
    ctx_.recorder().enable();
    proto_.start_hello();
    driver_.emplace(world_, proto_, static_arrivals());
    driver_->join(20);
  }

  void step(double dt) { world_.run_for(dt); }

  double configured() const { return driver_->configured_fraction(); }
  double latency() const { return driver_->mean_config_latency(); }
  SimContext& ctx() { return ctx_; }
  World& world() { return world_; }

 private:
  SimContext ctx_;
  World world_;
  QipEngine proto_;
  std::optional<Driver> driver_;
};

TEST(SimContextIsolation, InterleavedWorldsMatchEachSolo) {
  // Reference: each scenario run to 3.0 s on its own.
  Scenario solo_a(101);
  for (int i = 0; i < 12; ++i) solo_a.step(0.25);
  Scenario solo_b(202);
  for (int i = 0; i < 12; ++i) solo_b.step(0.25);

  // Same scenarios, event loops interleaved in 0.25 s slices.
  Scenario a(101);
  Scenario b(202);
  for (int i = 0; i < 12; ++i) {
    a.step(0.25);
    b.step(0.25);
  }

  EXPECT_EQ(a.configured(), solo_a.configured());
  EXPECT_EQ(a.latency(), solo_a.latency());
  EXPECT_EQ(b.configured(), solo_b.configured());
  EXPECT_EQ(b.latency(), solo_b.latency());
  EXPECT_EQ(a.world().stats().protocol_hops(),
            solo_a.world().stats().protocol_hops());
  EXPECT_EQ(b.world().stats().protocol_hops(),
            solo_b.world().stats().protocol_hops());

  expect_same_events(sim_events(a.ctx().recorder()),
                     sim_events(solo_a.ctx().recorder()));
  expect_same_events(sim_events(b.ctx().recorder()),
                     sim_events(solo_b.ctx().recorder()));

  // Nothing leaked into the process-wide recorder.
  EXPECT_FALSE(obs::process_recorder().enabled());
  EXPECT_EQ(obs::process_recorder().size(), 0u);
}

TEST(SimContextIsolation, FreshContextsDoNotShareMetricsOrLogs) {
  SimContext a, b;
  a.metrics().counter("isolation_probe").inc(3.0);
  EXPECT_EQ(b.metrics().counter("isolation_probe").value(), 0.0);
  EXPECT_EQ(a.metrics().counter("isolation_probe").value(), 3.0);

  // The trace recorder is a context's log: what one context records stays
  // out of the other and out of the process-wide recorder.
  a.recorder().enable();
  a.recorder().instant(1.0, "from_a", "test", 1);
  EXPECT_EQ(a.recorder().size(), 1u);
  EXPECT_FALSE(b.recorder().enabled());
  EXPECT_EQ(b.recorder().size(), 0u);
  EXPECT_EQ(obs::process_recorder().size(), 0u);
}

}  // namespace
}  // namespace qip
