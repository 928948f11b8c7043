#include "harness/figures.hpp"

#include <memory>
#include <set>
#include <sstream>

#include "baselines/ctree.hpp"
#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/parallel.hpp"
#include "harness/protocols.hpp"
#include "harness/world.hpp"
#include "sim/sim_context.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"

namespace qip {

namespace {

constexpr std::uint64_t kPoolSize = 1024;

std::unique_ptr<QipEngine> make_qip(World& w, bool periodic_updates = true) {
  QipParams p;
  p.pool_size = kPoolSize;
  p.periodic_location_update = periodic_updates;
  auto proto = std::make_unique<QipEngine>(w.transport(), w.rng(), p);
  proto->start_hello();
  return proto;
}

std::unique_ptr<QipEngine> make_qip_params(World& w, const QipParams& base) {
  QipParams p = base;
  p.pool_size = kPoolSize;
  auto proto = std::make_unique<QipEngine>(w.transport(), w.rng(), p);
  proto->start_hello();
  return proto;
}

std::unique_ptr<CTreeProtocol> make_ctree(World& w) {
  CTreeParams p;
  p.pool_size = kPoolSize;
  auto proto = std::make_unique<CTreeProtocol>(w.transport(), w.rng(), p);
  proto->start_updates();
  return proto;
}

World make_world(double tr, double speed, std::uint64_t seed,
                 SimContext& ctx) {
  WorldParams wp;
  wp.transmission_range = tr;
  wp.speed = speed;
  return World(wp, seed, ctx);
}

World make_world(double tr, double speed, std::uint64_t seed) {
  return make_world(tr, speed, seed, process_context());
}

/// One cell's contribution: a variable-length sample list per series.
/// Variable length because some figures add conditionally (fig12's ratio
/// guard, fig13's resamples, fig14's killed-head guard).
using CellSamples = std::vector<std::vector<double>>;

/// Runs one cell per (x index, round) via the parallel runner and folds the
/// samples into per-series, per-x RunningStats in ascending (x, round)
/// order — the exact accumulation order of the historical nested loops, so
/// the figure tables are byte-identical for every jobs value.
template <typename CellFn>
std::vector<std::vector<RunningStats>> run_figure(const ExperimentOptions& opt,
                                                  std::size_t nx,
                                                  std::size_t nseries,
                                                  CellFn&& cell) {
  std::vector<std::vector<RunningStats>> stats(
      nseries, std::vector<RunningStats>(nx));
  const std::size_t rounds = opt.rounds;
  run_cells<CellSamples>(
      process_context(), opt.jobs, nx * rounds,
      [&](std::size_t idx, SimContext& ctx) {
        return cell(idx / rounds, static_cast<std::uint32_t>(idx % rounds),
                    ctx);
      },
      [&](std::size_t idx, CellSamples&& samples) {
        const std::size_t xi = idx / rounds;
        for (std::size_t s = 0; s < nseries; ++s) {
          for (double v : samples[s]) stats[s][xi].add(v);
        }
      });
  return stats;
}

std::vector<double> means(const std::vector<RunningStats>& stats) {
  std::vector<double> out;
  out.reserve(stats.size());
  for (const RunningStats& s : stats) out.push_back(s.mean());
  return out;
}

}  // namespace

std::uint32_t rounds_from_env(std::uint32_t fallback) {
  return env_positive_u32("QIP_ROUNDS", fallback);
}

// ---------------------------------------------------------------------------
// Fig. 5 / 6 / 7 — configuration latency
// ---------------------------------------------------------------------------

namespace {

/// Joins `nn` nodes and returns the mean configuration latency in hops.
template <typename MakeProto>
double measure_latency(double tr, std::uint32_t nn, std::uint64_t seed,
                       SimContext& ctx, MakeProto&& make_proto) {
  World w = make_world(tr, 20.0, seed, ctx);
  auto proto = make_proto(w);
  Driver d(w, *proto);
  d.join(nn);
  w.run_for(2.0);
  return d.mean_config_latency();
}

}  // namespace

FigureData fig5_config_latency(const ExperimentOptions& opt) {
  FigureData fig;
  fig.title = "Fig 5: configuration latency vs network size (tr=150m)";
  fig.x_name = "nn";
  fig.x = {50, 100, 150, 200};
  const auto stats = run_figure(
      opt, fig.x.size(), 2,
      [&](std::size_t xi, std::uint32_t r, SimContext& ctx) {
        const auto nn = static_cast<std::uint32_t>(fig.x[xi]);
        const std::uint64_t seed = derive_cell_seed(opt.seed + 5, xi, r);
        CellSamples out(2);
        out[0].push_back(measure_latency(
            150.0, nn, seed, ctx, [](World& w) { return make_qip(w); }));
        out[1].push_back(measure_latency(150.0, nn, seed, ctx, [](World& w) {
          return make_protocol("manetconf", w, kPoolSize);
        }));
        return out;
      });
  fig.series = {Series{"QIP", means(stats[0])},
                Series{"MANETconf", means(stats[1])}};
  return fig;
}

FigureData fig6_latency_vs_range(const ExperimentOptions& opt) {
  FigureData fig;
  fig.title = "Fig 6: configuration latency vs transmission range (nn=100)";
  fig.x_name = "tr";
  fig.x = {100, 150, 200, 250};
  const auto stats = run_figure(
      opt, fig.x.size(), 2,
      [&](std::size_t xi, std::uint32_t r, SimContext& ctx) {
        const std::uint64_t seed = derive_cell_seed(opt.seed + 6, xi, r);
        CellSamples out(2);
        out[0].push_back(measure_latency(
            fig.x[xi], 100, seed, ctx, [](World& w) { return make_qip(w); }));
        out[1].push_back(
            measure_latency(fig.x[xi], 100, seed, ctx, [](World& w) {
              return make_protocol("manetconf", w, kPoolSize);
            }));
        return out;
      });
  fig.series = {Series{"QIP", means(stats[0])},
                Series{"MANETconf", means(stats[1])}};
  return fig;
}

FigureData fig7_latency_grid(const ExperimentOptions& opt) {
  FigureData fig;
  fig.title = "Fig 7: QIP configuration latency vs nn for several tr";
  fig.x_name = "nn";
  fig.x = {50, 100, 150, 200};
  const std::vector<double> ranges = {100, 150, 200, 250};
  const auto stats = run_figure(
      opt, fig.x.size(), ranges.size(),
      [&](std::size_t xi, std::uint32_t r, SimContext& ctx) {
        const auto nn = static_cast<std::uint32_t>(fig.x[xi]);
        CellSamples out(ranges.size());
        for (std::size_t ti = 0; ti < ranges.size(); ++ti) {
          const double tr = ranges[ti];
          const std::uint64_t seed = derive_cell_seed(
              opt.seed + 7 + static_cast<std::uint64_t>(tr), xi, r);
          out[ti].push_back(measure_latency(
              tr, nn, seed, ctx, [](World& w) { return make_qip(w); }));
        }
        return out;
      });
  for (std::size_t ti = 0; ti < ranges.size(); ++ti) {
    fig.series.push_back(
        Series{"tr=" + format_double(ranges[ti], 0), means(stats[ti])});
  }
  return fig;
}

// ---------------------------------------------------------------------------
// Fig. 8 / 9 — configuration and departure message overhead vs buddy [2]
// ---------------------------------------------------------------------------

namespace {

struct OverheadResult {
  double config_per_node = 0.0;
  double departure_per_node = 0.0;
};

template <typename MakeProto>
OverheadResult measure_overhead(std::uint32_t nn, std::uint64_t seed,
                                SimContext& ctx, MakeProto&& make_proto) {
  World w = make_world(150.0, 20.0, seed, ctx);
  auto proto = make_proto(w);
  Driver d(w, *proto);

  PhaseMeter meter(w.stats());
  d.join(nn);
  w.run_for(2.0);
  OverheadResult out;
  // Join-phase overhead: everything the protocol sent while configuring nn
  // nodes, including its periodic machinery, divided by nn.
  out.config_per_node =
      static_cast<double>(meter.protocol_hops()) / static_cast<double>(nn);

  // Departure phase: 30% of the network leaves gracefully.
  meter.reset();
  const auto leavers = static_cast<std::uint32_t>(nn * 3 / 10);
  for (std::uint32_t i = 0; i < leavers && !d.members().empty(); ++i) {
    const NodeId victim = d.members()[w.rng().index(d.members().size())];
    d.depart_graceful(victim);
    w.run_for(0.2);
  }
  out.departure_per_node = static_cast<double>(meter.protocol_hops()) /
                           static_cast<double>(leavers);
  return out;
}

}  // namespace

FigureData fig8_config_overhead(const ExperimentOptions& opt) {
  FigureData fig;
  fig.title = "Fig 8: configuration overhead vs network size (hops/node)";
  fig.x_name = "nn";
  fig.x = {50, 100, 150, 200};
  const auto stats = run_figure(
      opt, fig.x.size(), 2,
      [&](std::size_t xi, std::uint32_t r, SimContext& ctx) {
        const auto nn = static_cast<std::uint32_t>(fig.x[xi]);
        const std::uint64_t seed = derive_cell_seed(opt.seed + 8, xi, r);
        CellSamples out(2);
        out[0].push_back(
            measure_overhead(nn, seed, ctx,
                             [](World& w) { return make_qip(w); })
                .config_per_node);
        out[1].push_back(measure_overhead(nn, seed, ctx, [](World& w) {
                           return make_protocol("buddy", w, kPoolSize);
                         }).config_per_node);
        return out;
      });
  fig.series = {Series{"QIP", means(stats[0])},
                Series{"Buddy[2]", means(stats[1])}};
  return fig;
}

FigureData fig9_departure_overhead(const ExperimentOptions& opt) {
  FigureData fig;
  fig.title = "Fig 9: departure overhead vs network size (hops/departure)";
  fig.x_name = "nn";
  fig.x = {50, 100, 150, 200};
  const auto stats = run_figure(
      opt, fig.x.size(), 2,
      [&](std::size_t xi, std::uint32_t r, SimContext& ctx) {
        const auto nn = static_cast<std::uint32_t>(fig.x[xi]);
        const std::uint64_t seed = derive_cell_seed(opt.seed + 9, xi, r);
        CellSamples out(2);
        out[0].push_back(
            measure_overhead(nn, seed, ctx,
                             [](World& w) { return make_qip(w); })
                .departure_per_node);
        out[1].push_back(measure_overhead(nn, seed, ctx, [](World& w) {
                           return make_protocol("buddy", w, kPoolSize);
                         }).departure_per_node);
        return out;
      });
  fig.series = {Series{"QIP", means(stats[0])},
                Series{"Buddy[2]", means(stats[1])}};
  return fig;
}

// ---------------------------------------------------------------------------
// Fig. 10 / 11 — maintenance & movement overhead
// ---------------------------------------------------------------------------

namespace {

struct MaintenanceResult {
  double per_node = 0.0;       ///< movement+departure+maintenance hops / node
  double movement_total = 0.0; ///< movement hops over the observation window
};

template <typename MakeProto>
MaintenanceResult measure_maintenance(std::uint32_t nn, double speed,
                                      std::uint64_t seed, SimContext& ctx,
                                      MakeProto&& make_proto) {
  World w = make_world(150.0, speed, seed, ctx);
  auto proto = make_proto(w);
  Driver d(w, *proto);
  d.join(nn);
  w.run_for(2.0);

  PhaseMeter meter(w.stats());
  // Observation window: nodes roam for 30 simulated seconds, then 20% of
  // the network departs (graceful/abrupt mixed per §VI-A).
  w.run_for(30.0);
  MaintenanceResult out;
  out.movement_total = static_cast<double>(meter.hops(Traffic::kMovement));
  const auto leavers = nn / 5;
  for (std::uint32_t i = 0; i < leavers && !d.members().empty(); ++i) {
    const NodeId victim = d.members()[w.rng().index(d.members().size())];
    if (w.rng().chance(0.2)) {
      d.depart_abrupt(victim);
    } else {
      d.depart_graceful(victim);
    }
    w.run_for(0.2);
  }
  w.run_for(2.0);
  const std::uint64_t total = meter.hops(Traffic::kMovement) +
                              meter.hops(Traffic::kDeparture) +
                              meter.hops(Traffic::kMaintenance);
  out.per_node = static_cast<double>(total) / static_cast<double>(nn);
  return out;
}

}  // namespace

FigureData fig10_maintenance(const ExperimentOptions& opt) {
  FigureData fig;
  fig.title =
      "Fig 10: maintenance overhead (movement+departure) vs nn, 20 m/s";
  fig.x_name = "nn";
  fig.x = {50, 100, 150, 200};
  const auto stats = run_figure(
      opt, fig.x.size(), 3,
      [&](std::size_t xi, std::uint32_t r, SimContext& ctx) {
        const auto nn = static_cast<std::uint32_t>(fig.x[xi]);
        const std::uint64_t seed = derive_cell_seed(opt.seed + 10, xi, r);
        CellSamples out(3);
        out[0].push_back(
            measure_maintenance(nn, 20.0, seed, ctx,
                                [](World& w) { return make_qip(w, true); })
                .per_node);
        out[1].push_back(
            measure_maintenance(nn, 20.0, seed, ctx,
                                [](World& w) { return make_qip(w, false); })
                .per_node);
        out[2].push_back(
            measure_maintenance(nn, 20.0, seed, ctx,
                                [](World& w) { return make_ctree(w); })
                .per_node);
        return out;
      });
  fig.series = {Series{"QIP periodic", means(stats[0])},
                Series{"QIP upon-leave", means(stats[1])},
                Series{"C-tree[3]", means(stats[2])}};
  return fig;
}

FigureData fig11_speed(const ExperimentOptions& opt) {
  FigureData fig;
  fig.title = "Fig 11: movement overhead vs node speed (nn=150)";
  fig.x_name = "speed";
  fig.x = {5, 10, 20, 30, 40};
  const auto stats = run_figure(
      opt, fig.x.size(), 2,
      [&](std::size_t xi, std::uint32_t r, SimContext& ctx) {
        const std::uint64_t seed = derive_cell_seed(opt.seed + 11, xi, r);
        CellSamples out(2);
        out[0].push_back(
            measure_maintenance(150, fig.x[xi], seed, ctx,
                                [](World& w) { return make_qip(w, true); })
                .movement_total);
        out[1].push_back(
            measure_maintenance(150, fig.x[xi], seed, ctx,
                                [](World& w) { return make_qip(w, false); })
                .movement_total);
        return out;
      });
  fig.series = {Series{"QIP periodic", means(stats[0])},
                Series{"QIP upon-leave", means(stats[1])}};
  return fig;
}

// ---------------------------------------------------------------------------
// Fig. 12 — visible IP space (QuorumSpace extension)
// ---------------------------------------------------------------------------

FigureData fig12_quorum_space(const ExperimentOptions& opt) {
  FigureData fig;
  fig.title =
      "Fig 12: visible IP space per head, QIP/C-tree ratio (QuorumSpace "
      "extension)";
  fig.x_name = "nn";
  fig.x = {50, 100, 150, 200};
  const std::vector<double> ranges = {100, 150, 200};
  const auto stats = run_figure(
      opt, fig.x.size(), ranges.size(),
      [&](std::size_t xi, std::uint32_t r, SimContext& ctx) {
        const auto nn = static_cast<std::uint32_t>(fig.x[xi]);
        CellSamples out(ranges.size());
        for (std::size_t ti = 0; ti < ranges.size(); ++ti) {
          const double tr = ranges[ti];
          const std::uint64_t seed = derive_cell_seed(
              opt.seed + 12 + static_cast<std::uint64_t>(tr), xi, r);
          // Static layouts: the visible-space ratio is a structural property
          // of the cluster/QDSet graph, best measured without mobility noise.
          DriverOptions dopt;
          dopt.mobility = false;
          double qip_space = 0.0, ctree_space = 0.0;
          {
            World w = make_world(tr, 0.0, seed, ctx);
            auto proto = make_qip(w);
            Driver d(w, *proto, dopt);
            d.join(nn);
            w.run_for(5.0);
            qip_space = proto->average_visible_space();
          }
          {
            World w = make_world(tr, 0.0, seed, ctx);
            auto proto = make_ctree(w);
            Driver d(w, *proto, dopt);
            d.join(nn);
            w.run_for(5.0);
            ctree_space = proto->average_visible_space();
          }
          if (ctree_space > 0.0) out[ti].push_back(qip_space / ctree_space);
        }
        return out;
      });
  for (std::size_t ti = 0; ti < ranges.size(); ++ti) {
    fig.series.push_back(
        Series{"tr=" + format_double(ranges[ti], 0), means(stats[ti])});
  }
  return fig;
}

// ---------------------------------------------------------------------------
// Fig. 13 — information loss under mass abrupt departure
// ---------------------------------------------------------------------------

FigureData fig13_info_loss(const ExperimentOptions& opt) {
  FigureData fig;
  fig.title = "Fig 13: IP state information loss vs abrupt-leave ratio "
              "(nn=150, %)";
  fig.x_name = "abrupt%";
  fig.x = {5, 10, 20, 30, 40, 50};
  constexpr std::uint32_t nn = 150;
  const auto stats = run_figure(
      opt, fig.x.size(), 2,
      [&](std::size_t xi, std::uint32_t r, SimContext& ctx) {
        const double ratio = fig.x[xi] / 100.0;
        const std::uint64_t seed = derive_cell_seed(opt.seed + 13, xi, r);
        CellSamples out(2);
        // The loss metric is structural, so one built network supports many
        // independent kill-set samples — resampling tightens the estimate at
        // no simulation cost.
        constexpr int kResamples = 25;
        // --- QIP: a dead head's state survives while at least half of its
        // QDSet survives (at least one quorum remains, §VI-D.2).
        {
          World w = make_world(150.0, 20.0, seed, ctx);
          auto proto = make_qip(w);
          Driver d(w, *proto);
          d.join(nn);
          w.run_for(5.0);
          for (int s = 0; s < kResamples; ++s) {
            std::set<NodeId> dead;
            for (NodeId id : d.members()) {
              if (w.rng().chance(ratio)) dead.insert(id);
            }
            std::uint64_t lost = 0, total = 0;
            for (NodeId id : d.members()) {
              if (!dead.count(id) || !proto->knows(id)) continue;
              const auto& st = proto->state_of(id);
              if (st.role != Role::kClusterHead) continue;
              const std::uint64_t space = st.owned_universe.size();
              total += space;
              std::uint32_t surviving = 0;
              for (NodeId m : st.qdset) {
                if (!dead.count(m)) ++surviving;
              }
              if (surviving * 2 < st.qdset.size() || st.qdset.empty()) {
                lost += space;
              }
            }
            if (total > 0) {
              out[0].push_back(100.0 * static_cast<double>(lost) /
                               static_cast<double>(total));
            }
          }
        }
        // --- C-tree: a dead coordinator's allocations survive only in the
        // root's last snapshot; if the root died too, everything is lost.
        {
          World w = make_world(150.0, 20.0, seed, ctx);
          auto proto = make_ctree(w);
          Driver d(w, *proto);
          d.join(nn);
          w.run_for(5.0);
          proto->update_tick();  // root holds a snapshot of this moment
          d.join(10);            // ...then allocation state drifts
          w.run_for(1.0);
          for (int s = 0; s < kResamples; ++s) {
            std::set<NodeId> dead;
            for (NodeId id : d.members()) {
              if (w.rng().chance(ratio)) dead.insert(id);
            }
            // Loss% = allocations of dead coordinators without a surviving
            // copy over all allocations those coordinators tracked.
            std::uint64_t at_risk = 0;
            for (NodeId id : dead) at_risk += proto->allocations_of(id);
            const std::uint64_t lost = proto->info_loss_if_dead(dead);
            if (at_risk > 0) {
              out[1].push_back(100.0 * static_cast<double>(lost) /
                               static_cast<double>(at_risk));
            }
          }
        }
        return out;
      });
  fig.series = {Series{"QIP", means(stats[0])},
                Series{"C-tree[3]", means(stats[1])}};
  return fig;
}

// ---------------------------------------------------------------------------
// Fig. 14 — reclamation overhead
// ---------------------------------------------------------------------------

FigureData fig14_reclamation(const ExperimentOptions& opt) {
  FigureData fig;
  fig.title = "Fig 14: address reclamation overhead vs network size "
              "(hops per reclaimed head)";
  fig.x_name = "nn";
  fig.x = {50, 80, 110, 140, 170, 200};
  const auto stats = run_figure(
      opt, fig.x.size(), 3,
      [&](std::size_t xi, std::uint32_t r, SimContext& ctx) {
        const auto nn = static_cast<std::uint32_t>(fig.x[xi]);
        const std::uint64_t seed = derive_cell_seed(opt.seed + 14, xi, r);
        CellSamples out(3);
        // --- QIP: kill two cluster heads abruptly, let quorum adjustment
        // detect them and reclaim locally.  Measured twice: the paper's
        // claims-only reclamation, and this library's safer variant that
        // probes recorded holders before freeing.
        for (bool probe : {false, true}) {
          World w = make_world(150.0, 20.0, seed, ctx);
          QipParams qp;
          qp.reclaim_probe = probe;
          auto proto = make_qip_params(w, qp);
          Driver d(w, *proto);
          d.join(nn);
          w.run_for(5.0);
          std::vector<NodeId> heads = proto->clusters().heads();
          std::uint32_t killed = 0;
          for (NodeId h : heads) {
            if (killed >= 2) break;
            d.depart_abrupt(h);
            ++killed;
          }
          PhaseMeter meter(w.stats());
          w.run_for(15.0);  // Td + Tr + settle + write rounds
          if (killed > 0) {
            out[probe ? 1 : 0].push_back(
                static_cast<double>(meter.hops(Traffic::kReclamation)) /
                killed);
          }
        }
        // --- C-tree: kill two coordinators; the root detects them at the
        // next periodic update and floods the whole network.
        {
          World w = make_world(150.0, 20.0, seed, ctx);
          auto proto = make_ctree(w);
          Driver d(w, *proto);
          d.join(nn);
          w.run_for(5.0);
          proto->update_tick();  // root learns the coordinator set
          std::uint32_t killed = 0;
          for (NodeId id : std::vector<NodeId>(d.members())) {
            if (killed >= 2) break;
            if (proto->is_coordinator(id) && id != proto->root()) {
              d.depart_abrupt(id);
              ++killed;
            }
          }
          PhaseMeter meter(w.stats());
          w.run_for(12.0);  // two update periods: detection + reclamation
          const std::uint64_t recl = meter.hops(Traffic::kReclamation);
          if (killed > 0) {
            out[2].push_back(static_cast<double>(recl) / killed);
          }
        }
        return out;
      });
  fig.series = {Series{"QIP", means(stats[0])},
                Series{"QIP+probe", means(stats[1])},
                Series{"C-tree[3]", means(stats[2])}};
  return fig;
}

// ---------------------------------------------------------------------------
// Fig. 4 — example layout
// ---------------------------------------------------------------------------

LayoutStats fig4_layout(std::uint64_t seed, std::uint32_t nn, double tr) {
  World w = make_world(tr, 0.0, seed);
  auto proto = make_qip(w);
  DriverOptions dopt;
  dopt.mobility = false;
  Driver d(w, *proto, dopt);
  d.join(nn);
  w.run_for(5.0);

  LayoutStats out;
  out.nodes = w.topology().node_count();
  out.heads = proto->clusters().head_count();
  out.mean_qdset = proto->average_qdset_size();
  double members = 0;
  for (NodeId h : proto->clusters().heads())
    members += static_cast<double>(proto->clusters().members_of(h).size());
  out.mean_cluster_size = out.heads ? members / out.heads : 0.0;

  // 40x20 ASCII map: '#' cluster head, 'o' common node, '.' empty.
  constexpr int kW = 40, kH = 20;
  std::vector<std::string> grid(kH, std::string(kW, '.'));
  for (NodeId id : w.topology().all_nodes()) {
    const Point p = w.topology().position(id);
    const int cx = std::min(kW - 1, static_cast<int>(p.x / 1000.0 * kW));
    const int cy = std::min(kH - 1, static_cast<int>(p.y / 1000.0 * kH));
    const bool head = proto->clusters().is_head(id);
    char& cell = grid[cy][cx];
    if (head) {
      cell = '#';
    } else if (cell != '#') {
      cell = 'o';
    }
  }
  std::ostringstream os;
  for (const auto& row : grid) os << row << '\n';
  out.ascii_map = os.str();
  return out;
}

}  // namespace qip
