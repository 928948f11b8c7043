// Adversarial-autoconfiguration ablation (docs/ADVERSARY.md).
//
// Converges an honest network, flips a fraction of nodes into attackers —
// address squatting, false-conflict flooding, replica poisoning, silent
// defection — and measures what the paper's protocol does about it, with
// the hardening layer on versus off:
//
//   * uniqueness violations: runs where the always-on auditor caught a
//     duplicate address that outlived the healing grace window;
//   * configuration quality under attack: configured fraction and mean
//     latency of nodes joining while the attack runs;
//   * overhead: protocol hops during the attack phase (hellos excluded);
//   * response: quarantines issued and the attack actions that landed.
//
// Arms are selected with QIP_HARDEN=on|off (or 1/0, true/false; default:
// both; any other value exits 2).  Rounds come from QIP_ROUNDS;
// QIP_BENCH_JSON=<path> additionally writes the full cell grid as JSON
// (BENCH_adversary.json at the repo root is the committed baseline,
// validated by the bench_json ctest).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_figure_main.hpp"
#include "core/qip_engine.hpp"
#include "fault/adversary_plan.hpp"
#include "harness/driver.hpp"
#include "harness/parallel.hpp"
#include "harness/world.hpp"
#include "net/failure_detector.hpp"
#include "sim/sim_context.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace qip;

namespace {

struct Outcome {
  double violation = 0.0;  ///< 1 if the auditor aborted this run
  double configured = 0.0;
  double latency = 0.0;
  double protocol_hops = 0.0;  ///< attack-phase overhead
  double quarantines = 0.0;
  double actions = 0.0;  ///< attack actions that landed (kind-specific)
};

constexpr std::uint32_t kPopulation = 60;
constexpr std::uint32_t kJoinUnderAttack = 12;

Outcome run_cell(AttackKind kind, double fraction, bool hardened,
                 std::uint64_t seed, SimContext& ctx) {
  WorldParams wp;
  wp.transmission_range = 150.0;
  // Denser than the paper's 1 km² default: attacks are only interesting (and
  // duplicates only observable) when attacker and victim share a component.
  wp.area_side = 500.0;
  World world(wp, seed, ctx);

  QipParams qp;
  qp.harden.enabled = hardened;
  QipEngine proto(world.transport(), world.rng(), qp);
  // Both arms run the SWIM detector: the comparison isolates what the
  // hardening (suspicion, quarantine, verified merges) buys, not what
  // failure detection buys.
  SwimDetector swim(world.transport());
  proto.set_failure_detector(&swim);
  proto.start_hello();
  Driver d(world, proto);

  Outcome out;
  PhaseMeter meter(world.stats());
  try {
    d.join(kPopulation);
    world.run_for(10.0);  // post-join convergence; attacks start after this

    // Attacker pool: service attacks need protocol servers (cluster heads);
    // squatting works from any configured common node.
    std::vector<NodeId> pool;
    if (kind == AttackKind::kSquat) {
      for (NodeId n : d.members()) {
        if (proto.knows(n) &&
            proto.state_of(n).role == Role::kCommonNode)
          pool.push_back(n);
      }
    } else {
      pool = proto.clusters().heads();
    }
    AdversaryPlan plan;
    if (!pool.empty() && fraction > 0.0) {
      const std::size_t k = std::max<std::size_t>(
          1, static_cast<std::size_t>(fraction *
                                      static_cast<double>(pool.size()) +
                                      0.5));
      for (std::size_t i = 0; i < k; ++i) {
        // Even stride over the sorted pool: deterministic and spread out.
        const NodeId attacker = pool[i * pool.size() / k];
        plan.attacks.push_back(
            {attacker, kind, world.sim().now(), /*until=*/1.0e18});
      }
    }
    // fraction 0 is the honest baseline row: same phases, no attackers.
    if (!plan.attacks.empty()) world.enable_adversary(plan);

    meter.reset();
    world.run_for(15.0);
    d.join(kJoinUnderAttack);  // configure while under attack
    // Long enough past the last attack action for the auditor's 30 s
    // healing grace to expire on any unresolved duplicate.
    world.run_for(35.0);
  } catch (const InvariantViolation&) {
    out.violation = 1.0;
  }

  out.configured = d.configured_fraction();
  out.latency = d.mean_config_latency();
  out.protocol_hops = static_cast<double>(meter.protocol_hops());
  out.quarantines = static_cast<double>(proto.quarantines());
  if (const AdversaryController* a = world.adversary()) {
    const AdversaryStats& s = a->stats();
    switch (kind) {
      case AttackKind::kSquat:
        out.actions = static_cast<double>(s.squats);
        break;
      case AttackKind::kConflictFlood:
        out.actions = static_cast<double>(s.false_conflicts);
        break;
      case AttackKind::kReplicaPoison:
        out.actions = static_cast<double>(s.poisoned_snapshots);
        break;
      case AttackKind::kSilentDefection:
        out.actions = static_cast<double>(s.dropped_services);
        break;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t rounds = rounds_from_env(2);
  const std::uint32_t jobs = benchmain::jobs_from_args(argc, argv);

  bool run_hardened = true;
  bool run_unhardened = true;
  if (const char* env = std::getenv("QIP_HARDEN")) {
    run_hardened = parse_bool("QIP_HARDEN", env);
    run_unhardened = !run_hardened;
  }

  // The fraction-0 squat row is the honest baseline (no attackers are ever
  // flipped), printed once per arm so attack damage reads against it.
  struct Cell {
    AttackKind kind;
    double fraction;
  };
  const Cell grid[] = {{AttackKind::kSquat, 0.0},
                       {AttackKind::kSquat, 0.1},
                       {AttackKind::kSquat, 0.3},
                       {AttackKind::kConflictFlood, 0.1},
                       {AttackKind::kConflictFlood, 0.3},
                       {AttackKind::kReplicaPoison, 0.1},
                       {AttackKind::kReplicaPoison, 0.3},
                       {AttackKind::kSilentDefection, 0.1},
                       {AttackKind::kSilentDefection, 0.3}};

  JsonValue cells = JsonValue::array();

  std::printf("== Adversarial autoconfiguration: %u honest nodes, %u joining "
              "under attack ==\n",
              kPopulation, kJoinUnderAttack);
  TextTable t({"attack", "attackers", "hardened", "violations", "configured%",
               "latency", "hops", "quarantines", "actions"});
  for (const Cell& cell : grid) {
    const AttackKind kind = cell.kind;
    const double fraction = cell.fraction;
    const char* label = fraction == 0.0 ? "none" : to_string(kind);
    for (int arm = 0; arm < 2; ++arm) {
      const bool hardened = (arm == 1);
      if (hardened && !run_hardened) continue;
      if (!hardened && !run_unhardened) continue;
      RunningStats viol, cfg, lat, hops, quar, act;
      run_cells<Outcome>(
          process_context(), jobs, rounds,
          [&](std::size_t r, SimContext& ctx) {
            const std::uint64_t seed =
                7000 + 100 * static_cast<std::uint64_t>(kind) +
                static_cast<std::uint64_t>(fraction * 10) * 10 + r;
            return run_cell(kind, fraction, hardened, seed, ctx);
          },
          [&](std::size_t, Outcome&& o) {
            viol.add(o.violation);
            cfg.add(100.0 * o.configured);
            lat.add(o.latency);
            hops.add(o.protocol_hops);
            quar.add(o.quarantines);
            act.add(o.actions);
          });
      t.add_row({label,
                 format_double(100.0 * fraction, 0) + "%",
                 hardened ? "on" : "off",
                 format_double(viol.sum(), 0) + "/" +
                     format_double(rounds, 0),
                 format_double(cfg.mean(), 1), format_double(lat.mean(), 2),
                 format_double(hops.mean(), 0),
                 format_double(quar.mean(), 1),
                 format_double(act.mean(), 0)});
      cells.push(JsonValue::object()
                     .set("attack", label)
                     .set("attacker_fraction", fraction)
                     .set("hardened", hardened)
                     .set("rounds", rounds)
                     .set("violations", viol.sum())
                     .set("configured_pct", cfg.mean())
                     .set("latency_hops", lat.mean())
                     .set("protocol_hops", hops.mean())
                     .set("quarantines", quar.mean())
                     .set("attack_actions", act.mean()));
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf("(rounds per cell: %u; set QIP_ROUNDS to raise, QIP_HARDEN to "
              "pick one arm)\n\n",
              rounds);

  if (const char* path = std::getenv("QIP_BENCH_JSON")) {
    JsonValue doc = JsonValue::object();
    doc.set("bench", "ablation_adversary")
        .set("population", kPopulation)
        .set("join_under_attack", kJoinUnderAttack)
        .set("rounds", rounds)
        .set("cells", std::move(cells));
    if (!doc.write_file(path)) {
      std::fprintf(stderr, "failed to write %s\n", path);
      return 1;
    }
    std::printf("wrote %s\n", path);
  }
  return 0;
}
