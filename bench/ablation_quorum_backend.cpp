// Quorum-backend ablation (docs/QUORUM.md).
//
// Two sections:
//
//   A. Intersection checker — the safety side.  Runs the property-based
//      checker (exhaustive over small QDSets, seeded-random over larger
//      ones) against every backend, and shows it refuting a deliberately
//      broken federated configuration (disjoint trust cliques).
//   B. Availability under faults — the liveness side.  Replays the PR-1
//      fault plans (message loss, permanent head outages) against each
//      backend and reports configured fraction / latency / overhead: what
//      the dynamic-linear discount (and its absence) costs under stress.
//
// Rounds come from QIP_ROUNDS; QIP_BENCH_JSON=<path> additionally writes
// both sections as JSON (BENCH_quorum.json at the repo root is the
// committed baseline, validated by the bench_json_quorum ctest).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_figure_main.hpp"
#include "core/qip_engine.hpp"
#include "fault/fault_plan.hpp"
#include "harness/driver.hpp"
#include "harness/parallel.hpp"
#include "harness/world.hpp"
#include "quorum/intersection_checker.hpp"
#include "quorum/quorum_policy.hpp"
#include "sim/sim_context.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace qip;

namespace {

constexpr QuorumBackend kBackends[] = {QuorumBackend::kMajority,
                                       QuorumBackend::kDynamicLinear};

constexpr std::uint32_t kPopulation = 50;
constexpr std::uint32_t kJoinUnderFaults = 10;

// ---------------------------------------------------------------------------
// Section A: intersection checker
// ---------------------------------------------------------------------------

void render_checker(TextTable& t, JsonValue& out, const char* backend,
                    const char* mode, std::uint32_t n,
                    const IntersectionReport& r) {
  t.add_row({backend, mode, std::to_string(n), std::to_string(r.views),
             std::to_string(r.shrinks), std::to_string(r.pairs),
             r.ok ? "intersects" : "REFUTED"});
  out.push(JsonValue::object()
               .set("backend", backend)
               .set("mode", mode)
               .set("universe", n)
               .set("views", static_cast<double>(r.views))
               .set("shrinks", static_cast<double>(r.shrinks))
               .set("pairs", static_cast<double>(r.pairs))
               .set("ok", r.ok));
}

JsonValue section_checker() {
  std::printf("== A. Quorum-intersection checker: every reachable view, "
              "including mid-adjustment ==\n");
  JsonValue rows = JsonValue::array();
  TextTable t({"backend", "check", "n", "views", "shrinks", "pairs",
               "verdict"});
  for (QuorumBackend b : kBackends) {
    render_checker(t, rows, to_string(b), "exhaustive", 5,
                   check_intersection_exhaustive(b, 5));
    render_checker(t, rows, to_string(b), "exhaustive", 6,
                   check_intersection_exhaustive(b, 6));
    render_checker(t, rows, to_string(b), "random", 14,
                   check_intersection_random(b, 14, 0x5eed, 48));
  }
  // Federated declarations beyond flat majority: a sound non-uniform config
  // passes, two self-trusting cliques are refuted.
  {
    std::vector<std::uint32_t> u6{1, 2, 3, 4, 5, 6};
    render_checker(t, rows, "slices(flat)", "config", 6,
                   check_slice_config(SliceConfig::flat_majority(u6), u6));
    SliceConfig broken;
    QuorumSlice left, right;
    left.threshold = 2;
    left.validators = {1, 2, 3};
    right.threshold = 2;
    right.validators = {4, 5, 6};
    for (std::uint32_t n : {1u, 2u, 3u}) broken.set(n, left);
    for (std::uint32_t n : {4u, 5u, 6u}) broken.set(n, right);
    const IntersectionReport r = check_slice_config(broken, u6);
    render_checker(t, rows, "slices(cliques)", "config", 6, r);
    if (r.ok) {
      std::fprintf(stderr, "BUG: disjoint-clique config not refuted\n");
      std::exit(1);
    }
    std::printf("%s", t.render().c_str());
    std::printf("refutation: %s\n\n", r.violation.c_str());
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Section B: availability vs intersection under the PR-1 fault plans
// ---------------------------------------------------------------------------

struct Outcome {
  double configured = 0.0;
  double latency = 0.0;
  double protocol_hops = 0.0;
};

struct PlanSpec {
  const char* name;
  FaultPlan plan;
};

std::vector<PlanSpec> fault_plans() {
  std::vector<PlanSpec> plans;
  plans.push_back({"none", {}});
  FaultPlan drop10;
  drop10.drop = 0.10;
  plans.push_back({"drop 10%", drop10});
  FaultPlan drop30;
  drop30.drop = 0.30;
  plans.push_back({"drop 30%", drop30});
  FaultPlan outage;  // three heads go permanently dark mid-run
  for (NodeId n : {NodeId{1}, NodeId{2}, NodeId{3}}) {
    outage.node_outages.push_back({n, 15.0, 1.0e18});
  }
  plans.push_back({"3 node crashes", outage});
  return plans;
}

Outcome run_cell(QuorumBackend backend, const FaultPlan& plan,
                 std::uint64_t seed, SimContext& ctx) {
  WorldParams wp;
  wp.transmission_range = 150.0;
  wp.area_side = 600.0;  // dense enough that QDSets span several heads
  World world(wp, seed, ctx);
  QipParams qp;
  qp.quorum = backend;
  QipEngine proto(world.transport(), world.rng(), qp);
  proto.start_hello();
  Driver d(world, proto);

  PhaseMeter meter(world.stats());
  d.join(kPopulation);
  world.run_for(10.0);  // converge before faults engage
  if (!plan.null()) world.enable_faults(plan);
  meter.reset();
  d.join(kJoinUnderFaults);  // configure through the faults
  world.run_for(25.0);

  Outcome out;
  out.configured = d.configured_fraction();
  out.latency = d.mean_config_latency();
  out.protocol_hops = static_cast<double>(meter.protocol_hops());
  return out;
}

JsonValue section_availability(std::uint32_t rounds, std::uint32_t jobs) {
  std::printf("== B. Availability under fault plans: %u nodes, %u joining "
              "under faults ==\n",
              kPopulation, kJoinUnderFaults);
  JsonValue cells = JsonValue::array();
  TextTable t({"fault plan", "backend", "configured%", "latency", "hops"});
  const auto plans = fault_plans();
  for (std::size_t p = 0; p < plans.size(); ++p) {
    for (QuorumBackend backend : kBackends) {
      RunningStats cfg, lat, hops;
      run_cells<Outcome>(
          process_context(), jobs, rounds,
          [&](std::size_t r, SimContext& ctx) {
            // Same seed for every backend: the columns compare the quorum
            // rule on identical scenario draws.
            const std::uint64_t seed =
                9000 + 100 * static_cast<std::uint64_t>(p) + r;
            return run_cell(backend, plans[p].plan, seed, ctx);
          },
          [&](std::size_t, Outcome&& o) {
            cfg.add(100.0 * o.configured);
            lat.add(o.latency);
            hops.add(o.protocol_hops);
          });
      t.add_row({plans[p].name, to_string(backend),
                 format_double(cfg.mean(), 1), format_double(lat.mean(), 2),
                 format_double(hops.mean(), 0)});
      cells.push(JsonValue::object()
                     .set("plan", plans[p].name)
                     .set("backend", to_string(backend))
                     .set("rounds", rounds)
                     .set("configured_pct", cfg.mean())
                     .set("latency_hops", lat.mean())
                     .set("protocol_hops", hops.mean()));
    }
  }
  std::printf("%s\n", t.render().c_str());
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t rounds = rounds_from_env(2);
  const std::uint32_t jobs = benchmain::jobs_from_args(argc, argv);

  JsonValue checker = section_checker();
  JsonValue cells = section_availability(rounds, jobs);
  std::printf("(rounds per cell: %u; set QIP_ROUNDS to raise)\n\n", rounds);

  if (const char* path = std::getenv("QIP_BENCH_JSON")) {
    JsonValue doc = JsonValue::object();
    doc.set("bench", "ablation_quorum_backend")
        .set("population", kPopulation)
        .set("join_under_faults", kJoinUnderFaults)
        .set("rounds", rounds)
        .set("checker", std::move(checker))
        .set("cells", std::move(cells));
    if (!doc.write_file(path)) {
      std::fprintf(stderr, "failed to write %s\n", path);
      return 1;
    }
    std::printf("wrote %s\n", path);
  }
  return 0;
}
