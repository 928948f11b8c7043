#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"
#include "ledger.hpp"
#include "sim/arena.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qipbench {
namespace {

using qip::NodeId;
using qip::Traffic;

// Sizes of one instance at scale 1.  A run pools several instances, each
// its own process and seed (run.py), because single large cities vary from
// seed to seed far more than their mean does: the departure storms that set
// peak RSS are city-wide events.  The city keeps fig_metro's constant
// density (~9 expected neighbours) and choreography; paper_grid is §VI-A.
constexpr double kCityNodes = 4000;
constexpr double kPaperWorlds = 8;
constexpr std::uint32_t kPaperNodes = 200;
constexpr double kRange = 150.0;
constexpr double kPi = 3.14159265358979;

/// Simulated seconds between audit checks (the Driver's default cadence).
constexpr double kSlice = 0.5;
/// Probe period that never fires: the benchmark calls check_now() itself.
constexpr double kNever = std::numeric_limits<double>::infinity();
/// A world that breaks is discarded and the next world drawn, so every
/// instance completes and stays deterministic (README.md, "Known
/// residuals").  A world breaks when the simulation throws an
/// InvariantViolation outside an audit check, or when its event queue holds
/// more than this many events per node (normal peaks are 2-7), which means
/// it has run away and would never finish.
constexpr std::size_t kRunawayPendingPerNode = 50;
/// More discards than this in one instance means the protocol is broken.
constexpr std::uint64_t kMaxDiscards = 8;

// Independent random streams, all derived from --seed.
enum Stream : std::uint64_t {
  kMoveStream = 1,
  kDepartStream,
  kFaultStream,
  kAttemptStream = 100,
  kPaperStream = 1000,
  kInstanceStream = 1u << 20,
};

/// Thrown when a world runs away.
struct Runaway : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  qip::SplitMix64 sm(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return sm.next();
}

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Simulated statistics and layer counters, summed over a rep's worlds.
struct Totals {
  std::uint64_t events_timed = 0;
  std::uint64_t entered = 0;
  std::uint64_t present = 0;
  std::uint64_t configured = 0;
  std::vector<double> latencies;  ///< request -> configured, simulated s
  std::uint64_t latency_hops_sum = 0;  ///< critical-path hops, same nodes
  /// Per-world throughput and overhead.  The end-to-end figures are their
  /// median and geometric mean, so one pathological world of paper_grid
  /// does not swing them.
  std::vector<double> world_events_per_s;
  std::vector<double> world_hops_per_join;
  std::array<qip::TrafficCounter, static_cast<std::size_t>(Traffic::kCount)>
      traffic{};
  std::uint64_t dropped_in_flight = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::size_t peak_in_flight = 0;
  std::uint64_t fault_dropped = 0;
  std::uint64_t fault_duplicated = 0;
  std::uint64_t config_successes = 0;
  std::uint64_t config_failures = 0;
  std::uint64_t reclaims_started = 0;
  std::uint64_t reclaims_completed = 0;
  std::uint64_t merges = 0;
  double qdset_sum = 0.0;
  std::uint64_t worlds = 0;
  std::uint64_t csr_patches = 0;
  std::uint64_t csr_rebuilds = 0;
  std::uint64_t component_repairs = 0;
  std::uint64_t repair_bailouts = 0;
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
  std::size_t peak_pending = 0;
  std::uint64_t worlds_discarded = 0;
  std::uint64_t allocs_timed = 0;
  Digest digest;
  std::string first_violation;
  std::string first_discard;
};

/// One simulated network: world, engine and an auditor that only runs when
/// the benchmark asks.  The engine must be destroyed before its world.
struct Net {
  std::uint64_t seed = 0;  ///< root of this world's random streams
  std::unique_ptr<qip::World> world;
  std::unique_ptr<qip::QipEngine> proto;
  qip::UniquenessAuditor* auditor = nullptr;
  // Sampled after every step; folded into the totals only if the world is
  // kept.
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
  std::size_t peak_pending = 0;
  std::size_t peak_in_flight = 0;
  double join_hops_per_node = 0.0;
};

class Harness {
 public:
  explicit Harness(const RepOptions& opt)
      : opt(opt),
        seed(derive(opt.seed, kInstanceStream + opt.instance)),
        L(opt.traced) {}

  const RepOptions& opt;
  /// Root of this instance's random streams.
  const std::uint64_t seed;
  Ledger L;
  Totals t;

  Net build(const qip::WorldParams& wp, const qip::QipParams& qp,
            std::uint64_t seed, const qip::FaultPlan* faults) {
    Net net;
    net.seed = seed;
    L.call(Layer::kWorldBuild, [&] {
      net.world = std::make_unique<qip::World>(wp, seed);
      if (faults != nullptr) net.world->enable_faults(*faults);
      net.proto = std::make_unique<qip::QipEngine>(net.world->transport(),
                                                   net.world->rng(), qp);
      net.proto->start_hello();
      net.auditor = &net.world->audit(*net.proto, kNever);
    });
    return net;
  }

  /// Starts the timed part.  A city discarded after timing began restarts
  /// it, so its time counts as set-up of the city that is kept.
  void start_timed() {
    L.start_timed();
    allocs0_ = allocs_now();
  }
  void stop_timed() {
    t.allocs_timed = allocs_now() - allocs0_;
    L.stop_timed();
  }

  /// Bookkeeping after every step the workload takes: sample the queue
  /// and channel depths, then audit.  A violation is counted, not fatal.
  /// Throws Runaway when the event queue has run away.
  void after_step(Net& net) {
    const std::size_t pending = net.world->sim().pending_events();
    net.peak_pending = std::max(net.peak_pending, pending);
    net.peak_in_flight =
        std::max(net.peak_in_flight, net.proto->channel().in_flight());
    L.call(Layer::kAuditCheck, [&] {
      try {
        net.auditor->check_now();
      } catch (const qip::InvariantViolation& e) {
        ++net.audit_violations;
        if (t.first_violation.empty()) t.first_violation = e.what();
      }
    });
    ++net.audit_checks;
    const std::size_t nodes =
        std::max<std::size_t>(net.world->topology().node_count(), 100);
    if (pending > kRunawayPendingPerNode * nodes) {
      throw Runaway("event queue ran away: " + std::to_string(pending) +
                    " pending events at t=" +
                    std::to_string(net.world->sim().now()));
    }
  }

  /// Runs one world; returns false, counting the discard, if it broke.
  /// Gives up when discards keep coming.
  template <typename F>
  bool run_world(F&& world) {
    const Ledger::Checkpoint saved = L.checkpoint();
    std::string why;
    try {
      world();
      return true;
    } catch (const Runaway& e) {
      why = e.what();
    } catch (const qip::InvariantViolation& e) {
      why = e.what();
    }
    L.rollback(saved);
    if (t.first_discard.empty()) t.first_discard = why;
    if (++t.worlds_discarded > kMaxDiscards)
      throw std::runtime_error("more than " + std::to_string(kMaxDiscards) +
                               " worlds discarded, the first: " +
                               t.first_discard);
    return false;
  }

  /// Runs the world for `seconds` in audit-cadence slices.
  void advance(Net& net, double seconds) {
    const long slices = std::lround(seconds / kSlice);
    for (long i = 0; i < slices; ++i) {
      L.call(Layer::kSimRun, [&] { net.world->run_for(kSlice); });
      after_step(net);
    }
  }

  void begin(Net& net, Phase p) {
    L.begin_phase(p, net.world->sim().events_executed());
  }
  void end(Net& net) { L.end_phase(net.world->sim().events_executed()); }

  /// Records the paper's Fig. 8 overhead at the end of a join phase:
  /// protocol hops (hello excluded) so far per node that joined.
  void note_join_overhead(Net& net, NodeId joined) {
    net.join_hops_per_node =
        static_cast<double>(net.world->stats().protocol_hops()) / joined;
  }

  /// Folds one finished network into the totals and the digest.  Node ids
  /// are 0..ids-1; `events` ran in the network's timed `wall_s`.
  void absorb(Net& net, NodeId ids, double wall_s, std::uint64_t events) {
    qip::World& w = *net.world;
    const qip::QipEngine& e = *net.proto;
    const qip::MessageStats& ms = w.stats();
    Digest& d = t.digest;
    t.entered += ids;
    t.events_timed += events;
    t.audit_checks += net.audit_checks;
    t.audit_violations += net.audit_violations;
    t.peak_pending = std::max(t.peak_pending, net.peak_pending);
    t.peak_in_flight = std::max(t.peak_in_flight, net.peak_in_flight);
    t.world_events_per_s.push_back(static_cast<double>(events) / wall_s);
    t.world_hops_per_join.push_back(net.join_hops_per_node);
    for (NodeId id = 0; id < ids; ++id) {
      if (w.topology().has_node(id)) {
        ++t.present;
        if (const auto addr = e.address_of(id)) {
          ++t.configured;
          d.add(std::uint64_t{id});
          d.add(std::uint64_t{addr->value()});
        }
        const qip::ConfigRecord* r = e.config_record(id);
        if (r != nullptr && r->success) {
          t.latencies.push_back(r->completed_at - r->requested_at);
          t.latency_hops_sum += r->latency_hops;
        }
      }
      if (const qip::ConfigRecord* r = e.config_record(id)) {
        d.add(std::uint64_t{id});
        d.add(std::uint64_t{r->success});
        d.add(std::uint64_t{r->address.value()});
        d.add(r->latency_hops);
        d.add(std::uint64_t{r->attempts});
        d.add(r->requested_at);
        d.add(r->completed_at);
      }
    }
    for (std::size_t k = 0; k < t.traffic.size(); ++k) {
      const auto& c = ms.of(static_cast<Traffic>(k));
      t.traffic[k].messages += c.messages;
      t.traffic[k].hops += c.hops;
      d.add(c.messages);
      d.add(c.hops);
    }
    t.dropped_in_flight += ms.dropped_in_flight();
    d.add(w.sim().events_executed());
    d.add(ms.dropped_in_flight());

    const qip::ReliableChannel& ch = e.channel();
    t.retransmissions += ch.retransmissions();
    t.acks_received += ch.acks_received();
    t.gave_up += ch.gave_up();
    t.duplicates_suppressed += ch.duplicates_suppressed();
    if (const qip::FaultInjector* f = w.faults()) {
      t.fault_dropped += f->stats().dropped;
      t.fault_duplicated += f->stats().duplicated;
    }
    t.config_successes += e.config_successes();
    t.config_failures += e.config_failures();
    t.reclaims_started += e.reclaims_started();
    t.reclaims_completed += e.reclaims_completed();
    t.merges += e.merges_handled();
    t.qdset_sum += e.average_qdset_size();
    ++t.worlds;
    const qip::Topology& topo = w.topology();
    t.csr_patches += topo.csr_incremental_patches();
    t.csr_rebuilds += topo.csr_full_rebuilds();
    t.component_repairs += topo.component_repairs();
    t.repair_bailouts += topo.component_repair_bailouts();
    d.add(net.audit_checks);
    d.add(net.audit_violations);
    d.add(t.worlds_discarded);
  }

 private:
  std::uint64_t allocs0_ = 0;
};

// ---------------------------------------------------------------------------
// City workloads: fig_metro's choreography, audited every slice.

struct CityShape {
  bool flash_in_setup;  ///< city_commute: the crowd is built before timing
  int drift_ticks;
  bool departures;
  bool faults;
};

/// A seed node, then ~n/20 arrivals per simulated second, then a settle.
void flash_crowd(Harness& h, Net& net, NodeId n) {
  h.begin(net, Phase::kFlashCrowd);
  const auto arrive = [&](NodeId id) {
    h.L.call(Layer::kTopoAdd, [&] { net.world->place_random(id); });
    h.L.call(Layer::kEngineEnter, [&] { net.proto->node_entered(id); });
  };
  h.L.batch("arrivals", [&] { arrive(0); });
  h.advance(net, 3.0);
  const NodeId wave = n / 20 + 1;
  for (NodeId id = 1; id < n;) {
    h.L.batch("arrivals", [&] {
      for (NodeId k = 0; k < wave && id < n; ++k, ++id) arrive(id);
    });
    h.advance(net, 1.0);
  }
  h.advance(net, 10.0);
  h.end(net);
  h.note_join_overhead(net, n);
}

/// Gauss-Markov pedestrian drift, one movement tick per simulated second.
void drift(Harness& h, Net& net, NodeId n, double side, int ticks) {
  h.begin(net, Phase::kDrift);
  const double alpha = 0.85, mean_v = 1.5, sigma = 0.6;
  const double noise = sigma * std::sqrt(1.0 - alpha * alpha);
  qip::Rng gm(derive(net.seed, kMoveStream));
  std::vector<double> vx(n, 0.0), vy(n, 0.0);
  const auto gauss = [&gm] {
    return (gm.uniform() + gm.uniform() + gm.uniform() + gm.uniform()) * 2.0 -
           4.0;
  };
  qip::Topology& topo = net.world->topology();
  for (int tick = 0; tick < ticks; ++tick) {
    h.L.batch("movement", [&] {
      for (NodeId id = 0; id < n; ++id) {
        vx[id] = alpha * vx[id] + (1.0 - alpha) * mean_v + noise * gauss();
        vy[id] = alpha * vy[id] + noise * gauss();
        qip::Point p = topo.position(id);
        p.x += vx[id];
        p.y += vy[id];
        if (p.x < 0.0) { p.x = -p.x; vx[id] = -vx[id]; }
        if (p.y < 0.0) { p.y = -p.y; vy[id] = -vy[id]; }
        if (p.x > side) { p.x = 2.0 * side - p.x; vx[id] = -vx[id]; }
        if (p.y > side) { p.y = 2.0 * side - p.y; vy[id] = -vy[id]; }
        h.L.call(Layer::kTopoMove, [&] { topo.move_node(id, p); });
      }
    });
    h.L.call(Layer::kEngineMobilityTick,
             [&] { net.proto->on_mobility_tick(); });
    h.advance(net, 1.0);
  }
  h.end(net);
}

/// A random third of the city leaves in 20 batches, alternating graceful
/// (farewell, 0.5 s settle, radio off) and abrupt (radio off).
void departure(Harness& h, Net& net, NodeId n) {
  h.begin(net, Phase::kDeparture);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  qip::Rng pick(derive(net.seed, kDepartStream));
  pick.shuffle(order);
  std::vector<NodeId> graceful, abrupt;
  for (std::size_t i = 0; i < n / 3; ++i)
    (i % 2 == 0 ? graceful : abrupt).push_back(order[i]);

  qip::Topology& topo = net.world->topology();
  qip::QipEngine& proto = *net.proto;
  constexpr std::size_t kBatches = 20;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t glo = graceful.size() * b / kBatches;
    const std::size_t ghi = graceful.size() * (b + 1) / kBatches;
    const std::size_t alo = abrupt.size() * b / kBatches;
    const std::size_t ahi = abrupt.size() * (b + 1) / kBatches;
    h.L.batch("farewells", [&] {
      for (std::size_t i = glo; i < ghi; ++i)
        h.L.call(Layer::kEngineDepart,
                 [&] { proto.node_departing(graceful[i]); });
    });
    h.advance(net, 0.5);
    h.L.batch("removals", [&] {
      for (std::size_t i = glo; i < ghi; ++i) {
        h.L.call(Layer::kTopoRemove, [&] { topo.remove_node(graceful[i]); });
        h.L.call(Layer::kEngineDepart, [&] { proto.node_left(graceful[i]); });
      }
      for (std::size_t i = alo; i < ahi; ++i) {
        h.L.call(Layer::kTopoRemove, [&] { topo.remove_node(abrupt[i]); });
        h.L.call(Layer::kEngineDepart,
                 [&] { proto.node_vanished(abrupt[i]); });
      }
    });
    h.advance(net, 0.5);
  }
  h.advance(net, 10.0);
  h.end(net);
}

/// One city, timed from the flash crowd (or, for city_commute, from the
/// end of it).
void city_attempt(Harness& h, const CityShape& shape, std::uint64_t seed) {
  const auto n = static_cast<NodeId>(
      std::max(60.0, std::round(kCityNodes * h.opt.scale)));
  qip::WorldParams wp;
  wp.area_side = std::sqrt(n * kPi * kRange * kRange / 9.0);
  wp.transmission_range = kRange;
  qip::QipParams qp;
  qp.pool_size = 1024;
  while (qp.pool_size < 2ull * n) qp.pool_size <<= 1;
  qip::FaultPlan plan;
  plan.drop = 0.15;
  plan.duplicate = 0.02;
  plan.max_jitter = 0.005;
  plan.seed = derive(seed, kFaultStream);

  Net net = h.build(wp, qp, seed, shape.faults ? &plan : nullptr);
  const qip::Simulator& sim = net.world->sim();
  if (!shape.flash_in_setup) h.start_timed();
  flash_crowd(h, net, n);
  if (shape.flash_in_setup) h.start_timed();
  const std::uint64_t events0 =
      shape.flash_in_setup ? sim.events_executed() : 0;
  drift(h, net, n, wp.area_side, shape.drift_ticks);
  if (shape.departures) departure(h, net, n);
  h.begin(net, Phase::kPlateau);
  h.advance(net, 20.0);
  h.end(net);
  h.stop_timed();
  h.absorb(net, n, h.L.timed_wall_s(), sim.events_executed() - events0);
}

void city(Harness& h, const CityShape& shape) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    const std::uint64_t seed = derive(h.seed, kAttemptStream + attempt);
    if (h.run_world([&] { city_attempt(h, shape, seed); })) return;
  }
}

// ---------------------------------------------------------------------------
// paper_grid: independent §VI-A worlds back to back through the Driver.

/// One world: 200 sequential arrivals, 30 s of roaming, 20% departures.
void paper_world(Harness& h, std::uint64_t seed) {
  const double start = mono_now_s();
  qip::QipParams qp;
  qp.pool_size = 1024;
  Net net = h.build(qip::WorldParams{}, qp, seed, nullptr);
  qip::DriverOptions dopt;
  dopt.audit = false;  // audited by after_step, counting instead of aborting
  auto driver = std::make_unique<qip::Driver>(*net.world, *net.proto, dopt);

  h.begin(net, Phase::kJoin);
  for (std::uint32_t k = 0; k < kPaperNodes; ++k) {
    h.L.call(Layer::kDriverJoin, [&] { driver->join_one(); });
    h.after_step(net);
  }
  h.end(net);
  h.note_join_overhead(net, kPaperNodes);

  h.begin(net, Phase::kRoam);
  h.advance(net, 30.0);
  h.end(net);

  h.begin(net, Phase::kDepart);
  qip::Rng pick(derive(seed, kDepartStream));
  for (std::uint32_t k = 0; k < kPaperNodes / 5; ++k) {
    const NodeId victim = pick.pick(driver->members());
    const bool graceful = pick.chance(0.5);
    h.L.call(Layer::kDriverDepart, [&] {
      if (graceful)
        driver->depart_graceful(victim);
      else
        driver->depart_abrupt(victim);
    });
    h.advance(net, kSlice);
  }
  h.end(net);

  h.absorb(net, kPaperNodes, mono_now_s() - start,
           net.world->sim().events_executed());
  h.L.call(Layer::kWorldTeardown, [&] {
    driver.reset();
    net.proto.reset();
    net.world.reset();
  });
}

void paper_grid(Harness& h) {
  const long worlds = std::max(1L, std::lround(kPaperWorlds * h.opt.scale));
  h.start_timed();
  for (long kept = 0, drawn = 0; kept < worlds; ++drawn) {
    const std::uint64_t seed = derive(h.seed, kPaperStream + drawn);
    if (h.run_world([&] { paper_world(h, seed); })) ++kept;
  }
  h.stop_timed();
}

// ---------------------------------------------------------------------------
// Report.

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile of a sorted sample (0 when empty).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// A paper_grid world's join overhead is heavy-tailed (median ~140 hops
/// per join, one world in ten above ~370); over its eight worlds the
/// geometric mean varies less from seed to seed than the median does.
double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logs = 0.0;
  for (const double x : v) logs += std::log(x);
  return std::exp(logs / static_cast<double>(v.size()));
}

RepResult report(Harness& h) {
  Totals& t = h.t;
  const Ledger& L = h.L;
  std::sort(t.latencies.begin(), t.latencies.end());
  RepResult r;
  const auto put = [&r](std::string name, double v, const char* unit) {
    r.metrics.push_back(Metric{std::move(name), v, unit});
  };
  const auto secs = [&](const char* name, Layer l) {
    put(name, L.total(l).seconds, "s");
  };
  const double wall = L.timed_wall_s();
  const auto ev = static_cast<double>(t.events_timed);

  // End to end.
  put("wall_s", wall, "s");
  put("sim_events_per_s", median(t.world_events_per_s), "events/s");
  put("peak_rss_mib", peak_rss_mib(), "MiB");
  put("configured_frac", ratio(t.configured, t.present), "ratio");
  put("audit_pass_frac", 1.0 - ratio(t.audit_violations, t.audit_checks),
      "ratio");
  put("config_latency_mean_hops",
      ratio(t.latency_hops_sum, t.latencies.size()), "hops");
  put("protocol_hops_per_join", geomean(t.world_hops_per_join), "hops");

  // sim
  const LayerTotal& run = L.total(Layer::kSimRun);
  put("sim.events", ev, "events");
  secs("sim.run_s", Layer::kSimRun);
  put("sim.run_self_s",
      std::max(0.0, run.seconds - run.child_topology_s - run.child_flood_s),
      "s");
  put("sim.peak_pending_events", t.peak_pending, "events");
  put("sim.allocs_per_event", ratio(t.allocs_timed, ev), "allocs/event");

  // net: topology + geom
  secs("topology.add_s", Layer::kTopoAdd);
  secs("topology.move_s", Layer::kTopoMove);
  secs("topology.remove_s", Layer::kTopoRemove);
  put("topology.move_calls", L.total(Layer::kTopoMove).calls, "count");
  put("topology.csr_patches", t.csr_patches, "count");
  put("topology.csr_rebuilds", t.csr_rebuilds, "count");
  put("topology.component_repairs", t.component_repairs, "count");
  put("topology.repair_bailouts", t.repair_bailouts, "count");
  put("topology.patch_ratio",
      ratio(t.csr_patches, t.csr_patches + t.csr_rebuilds), "ratio");
  put("topology.csr_patch_s", L.profile_s(Site::kCsrPatch), "s");
  put("topology.csr_rebuild_s", L.profile_s(Site::kCsrRebuild), "s");
  put("topology.components_repair_s", L.profile_s(Site::kComponentsRepair),
      "s");
  put("topology.components_rebuild_s",
      L.profile_s(Site::kComponentsRebuild), "s");

  // net: transport
  std::uint64_t hops = 0;
  for (std::size_t k = 0; k < t.traffic.size(); ++k) {
    put(std::string("transport.messages.") +
            qip::to_string(static_cast<Traffic>(k)),
        t.traffic[k].messages, "messages");
    hops += t.traffic[k].hops;
  }
  put("transport.hops_total", hops, "hops");
  put("transport.dropped_in_flight", t.dropped_in_flight, "messages");
  put("transport.flood_calls", L.profile_calls(Site::kFlood), "count");
  put("transport.flood_s", L.profile_s(Site::kFlood), "s");

  // net: reliable channel + fault
  put("channel.retransmissions", t.retransmissions, "messages");
  put("channel.acks_received", t.acks_received, "messages");
  put("channel.gave_up", t.gave_up, "messages");
  put("channel.duplicates_suppressed", t.duplicates_suppressed, "messages");
  put("channel.peak_in_flight", t.peak_in_flight, "messages");
  put("channel.ack_ratio", ratio(t.acks_received, t.acks_received + t.gave_up),
      "ratio");
  put("fault.dropped", t.fault_dropped, "messages");
  put("fault.duplicated", t.fault_duplicated, "messages");

  // core
  secs("engine.enter_s", Layer::kEngineEnter);
  secs("engine.depart_s", Layer::kEngineDepart);
  secs("engine.mobility_tick_s", Layer::kEngineMobilityTick);
  put("engine.config_successes", t.config_successes, "count");
  put("engine.config_failures", t.config_failures, "count");
  put("engine.config_success_ratio",
      ratio(t.config_successes, t.config_successes + t.config_failures),
      "ratio");
  put("engine.reclaims_started", t.reclaims_started, "count");
  put("engine.reclaims_completed", t.reclaims_completed, "count");
  put("engine.reclaim_ratio", ratio(t.reclaims_completed, t.reclaims_started),
      "ratio");
  put("engine.merges_handled", t.merges, "count");
  put("engine.avg_qdset_size", ratio(t.qdset_sum, t.worlds), "nodes");
  put("engine.config_latency_samples", t.latencies.size(), "count");
  put("engine.config_latency_p50_s", percentile(t.latencies, 0.50), "sim_s");
  put("engine.config_latency_p99_s", percentile(t.latencies, 0.99), "sim_s");

  // harness
  put("audit.checks", t.audit_checks, "count");
  secs("audit.check_s", Layer::kAuditCheck);
  put("audit.violations", t.audit_violations, "count");
  secs("harness.world_build_s", Layer::kWorldBuild);
  put("harness.worlds_discarded", t.worlds_discarded, "count");
  secs("harness.world_teardown_s", Layer::kWorldTeardown);
  secs("driver.join_s", Layer::kDriverJoin);
  secs("driver.depart_s", Layer::kDriverDepart);

  // memory
  const auto& arena = qip::CaptureArena::instance();
  put("mem.allocs", t.allocs_timed, "allocs");
  put("arena.blocks_reused", arena.reused(), "count");
  put("arena.blocks_fresh", arena.fresh(), "count");
  put("arena.bytes", arena.arena_bytes(), "bytes");
  put("arena.reuse_ratio",
      ratio(arena.reused(), arena.reused() + arena.fresh()), "ratio");

  // obs and phases
  put("obs.span_coverage_frac", L.span_coverage(), "ratio");
  for (std::size_t p = 0; p < static_cast<std::size_t>(Phase::kCount); ++p) {
    const std::string name = phase_name(static_cast<Phase>(p));
    const PhaseTotal& pt = L.phase(static_cast<Phase>(p));
    put("mem.rss_mib." + name, pt.rss_mib, "MiB");
    put("phase." + name + ".wall_s", pt.wall_s, "s");
    put("phase." + name + ".events", pt.events, "events");
  }

  r.sim_digest = t.digest.value();
  r.timed_start_mono_s = L.timed_start_mono_s();
  r.first_violation = t.first_violation;
  r.first_discard = t.first_discard;
  return r;
}

}  // namespace

RepResult run_rep(const RepOptions& opt) {
  if (opt.traced) {
    // The profile histograms fill whenever the recorder is enabled; its
    // event ring is never read here, so keep it small enough not to show
    // in the mem.rss_mib.* metrics (the default ring is ~50 MiB).
    auto& recorder = qip::obs::process_recorder();
    recorder.set_capacity(1 << 12);
    recorder.enable();
  }
  Harness h(opt);
  if (opt.workload == "city_day") {
    city(h, CityShape{false, 20, true, false});
  } else if (opt.workload == "city_commute") {
    city(h, CityShape{true, 40, false, false});
  } else if (opt.workload == "paper_grid") {
    paper_grid(h);
  } else if (opt.workload == "lossy_city") {
    city(h, CityShape{false, 20, true, true});
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  if (opt.traced && !h.L.write_chrome_trace(opt.trace_path))
    throw std::runtime_error("cannot write trace file " + opt.trace_path);
  return report(h);
}

}  // namespace qipbench
