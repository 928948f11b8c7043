// Metropolis-scale "city day" scenario (docs/SCALE.md): the scale gate for
// the n>=100k core — SoA node state, arena messaging, incremental
// connectivity, streaming metrics.  Not a paper figure: the paper stops at
// 200 nodes; this bench takes the same protocol through a day in a city and
// reports what the engineering actually bought, per phase:
//
//   flash_crowd — everyone arrives in dense waves (stadium gates open)
//   drift       — Gauss-Markov pedestrian drift (correlated velocities)
//   departure   — a third of the city leaves, half gracefully, half abruptly
//   plateau     — quiescent steady state: hello beacons and nothing else
//
// Per phase: wall-clock seconds, peak RSS (VmHWM), simulator events, and
// global operator-new calls (bench/alloc_counter.hpp) — allocs/event in the
// plateau pins the arena + inline-capture claim that the steady state runs
// allocation-free per delivered event.  Topology patch/rebuild counters pin
// the incremental connectivity path actually engaging at scale.
//
// Arrivals and departures go through harness/driver's waves, the same
// lifecycle code every other scenario runs.  The whole day is audited at
// qip-benchmark's cadence: every run_for is cut into 0.5 s slices, each
// followed by a UniquenessAuditor check, and each departure wave is checked
// once more right after it.  A violation is counted, not fatal; per phase
// the bench reports checks, audit seconds and violations, and prints the
// first violation's message.
//
// Sizing: --nodes N or QIP_METRO_NODES (default 2000 so a bare run finishes
// in seconds; the committed BENCH_metro.json baseline is the
// QIP_METRO_NODES=100000 run, see tools/check_bench_json.cmake).  The area
// scales with n at constant density (~9 expected neighbors), so protocol
// locality matches the paper's geometry at any size.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_figure_main.hpp"
#include "core/qip_engine.hpp"
#include "harness/auditor.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"
#include "net/node_id.hpp"
#include "sim/arena.hpp"
#include "util/env.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace qip;

namespace {

/// Peak resident set (VmHWM) in MiB, from /proc/self/status.  Monotone over
/// the process lifetime; per-phase values therefore report the high-water
/// mark reached *by the end of* each phase.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The city's uniqueness audit, driven at qip-benchmark's cadence: the
/// world-owned auditor's probe never fires; run_for() advances in 0.5 s
/// slices (every horizon below is a multiple, so the simulation is the one
/// a plain run_for runs) and checks after each.  A violation is counted and
/// its first message kept.
class CityAudit {
 public:
  CityAudit(World& world, const QipEngine& proto)
      : world_(world),
        auditor_(world.audit(proto,
                             std::numeric_limits<SimTime>::infinity())) {}

  void check() {
    const auto start = std::chrono::steady_clock::now();
    try {
      auditor_.check_now();
    } catch (const InvariantViolation& e) {
      if (violations_++ == 0) first_violation_ = e.what();
    }
    seconds_ += seconds_since(start);
  }

  void run_for(SimTime dt) {
    for (long slice = std::lround(dt / kSlice); slice > 0; --slice) {
      world_.run_for(kSlice);
      check();
    }
  }

  std::uint64_t checks() const { return auditor_.checks(); }
  double seconds() const { return seconds_; }
  std::uint64_t violations() const { return violations_; }
  const std::string& first_violation() const { return first_violation_; }

 private:
  static constexpr SimTime kSlice = 0.5;
  World& world_;
  UniquenessAuditor& auditor_;
  double seconds_ = 0.0;
  std::uint64_t violations_ = 0;
  std::string first_violation_;
};

struct PhaseReport {
  std::string name;
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  double allocs_per_event = 0.0;
  std::uint64_t configured = 0;
  std::uint64_t audit_checks = 0;
  double audit_s = 0.0;
  std::uint64_t audit_violations = 0;
};

/// Brackets one phase's host cost: wall clock, event and allocation deltas,
/// and the audit's share of them.
class HostMeter {
 public:
  HostMeter(World& world, const QipEngine& proto, const CityAudit& audit)
      : world_(world), proto_(proto), audit_(audit) {}

  void begin() {
    start_ = std::chrono::steady_clock::now();
    events0_ = world_.sim().events_executed();
    allocs0_ = allocs_now();
    audit_checks0_ = audit_.checks();
    audit_s0_ = audit_.seconds();
    audit_violations0_ = audit_.violations();
  }

  PhaseReport end(std::string name) {
    PhaseReport r;
    r.name = std::move(name);
    r.wall_s = seconds_since(start_);
    r.events = world_.sim().events_executed() - events0_;
    r.allocs = allocs_now() - allocs0_;
    r.allocs_per_event = r.events ? static_cast<double>(r.allocs) /
                                        static_cast<double>(r.events)
                                  : 0.0;
    r.peak_rss_mib = peak_rss_mib();
    proto_.for_each_configured([&r](NodeId, IpAddress) { ++r.configured; });
    r.audit_checks = audit_.checks() - audit_checks0_;
    r.audit_s = audit_.seconds() - audit_s0_;
    r.audit_violations = audit_.violations() - audit_violations0_;
    return r;
  }

 private:
  World& world_;
  const QipEngine& proto_;
  const CityAudit& audit_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t events0_ = 0;
  std::uint64_t allocs0_ = 0;
  std::uint64_t audit_checks0_ = 0;
  double audit_s0_ = 0.0;
  std::uint64_t audit_violations0_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t n = benchmain::positive_flag_from_args(
      argc, argv, "--nodes", env_positive_u32("QIP_METRO_NODES", 2000));

  // Constant density: ~9 expected neighbors at any n, the paper's regime.
  constexpr double kRange = 150.0;
  const double side = std::sqrt(static_cast<double>(n) * 3.14159265358979 *
                                kRange * kRange / 9.0);

  WorldParams wp;
  wp.area_side = side;
  wp.transmission_range = kRange;
  World world(wp, /*seed=*/0xc17ada7ULL);

  QipParams qp;
  // Pool sized to the city: twice the population, rounded up to 2^k.
  std::uint64_t pool = 1024;
  while (pool < 2ull * n) pool <<= 1;
  qp.pool_size = pool;
  QipEngine proto(world.transport(), world.rng(), qp);
  proto.start_hello();

  DriverOptions dopt;
  dopt.mobility = false;  // the Gauss-Markov drift below moves the nodes
  dopt.connected_arrivals = false;
  dopt.audit = false;  // CityAudit checks at the bench's own cadence
  dopt.departure_settle = 0.5;
  Driver driver(world, proto, dopt);

  CityAudit audit(world, proto);
  std::vector<PhaseReport> phases;
  HostMeter meter(world, proto, audit);

  // -- Phase 1: flash crowd --------------------------------------------------
  // A seed node first (one self-election instead of n parallel ones), then
  // dense waves: ~n/20 arrivals per simulated second.
  meter.begin();
  driver.join_wave(1);
  audit.run_for(3.0);
  const std::uint32_t wave = n / 20 + 1;
  while (driver.joined_count() < n) {
    driver.join_wave(std::min(wave, n - driver.joined_count()));
    audit.run_for(1.0);
  }
  audit.run_for(10.0);  // let the tail of the entry storm settle
  phases.push_back(meter.end("flash_crowd"));

  // -- Phase 2: Gauss-Markov drift -------------------------------------------
  // Correlated pedestrian velocities: v' = a·v + (1-a)·mean + s·sqrt(1-a²)·g.
  // Drawn from a dedicated RNG so mobility noise never perturbs protocol
  // randomness.
  meter.begin();
  {
    const double alpha = 0.85, mean_v = 1.5, sigma = 0.6;
    const double noise = sigma * std::sqrt(1.0 - alpha * alpha);
    Rng gm(0x6a055);
    std::vector<double> vx(n, 0.0), vy(n, 0.0);
    const auto gauss = [&gm] {
      // Sum of four uniforms, centered: cheap, deterministic, close enough.
      return (gm.uniform() + gm.uniform() + gm.uniform() + gm.uniform()) * 2.0 -
             4.0;
    };
    for (int tick = 0; tick < 20; ++tick) {
      for (NodeId id = 0; id < n; ++id) {
        if (!world.topology().has_node(id)) continue;
        vx[id] = alpha * vx[id] + (1.0 - alpha) * mean_v + noise * gauss();
        vy[id] = alpha * vy[id] + noise * gauss();
        Point p = world.topology().position(id);
        p.x += vx[id];
        p.y += vy[id];
        // Reflect at the city limits.
        if (p.x < 0.0) { p.x = -p.x; vx[id] = -vx[id]; }
        if (p.y < 0.0) { p.y = -p.y; vy[id] = -vy[id]; }
        if (p.x > side) { p.x = 2.0 * side - p.x; vx[id] = -vx[id]; }
        if (p.y > side) { p.y = 2.0 * side - p.y; vy[id] = -vy[id]; }
        world.topology().move_node(id, p);
      }
      proto.on_mobility_tick();
      audit.run_for(1.0);
    }
  }
  phases.push_back(meter.end("drift"));

  // -- Phase 3: mass departure ----------------------------------------------
  // Every third node leaves; alternating graceful (protocol farewell, a
  // 0.5 s settle, then the radio goes dark — the Driver's contract) and
  // abrupt (the radio goes dark mid-conversation).  Departures go out in 20
  // waves so the phase spans constant simulated time at any n — the wave
  // structure of an evening rush, not a single-file exit.
  meter.begin();
  {
    std::vector<NodeId> graceful, abrupt;
    std::uint32_t departed = 0;
    for (NodeId id = 1; id < n; id += 3, ++departed) {
      if (!world.topology().has_node(id)) continue;
      (departed % 2 == 0 ? graceful : abrupt).push_back(id);
    }
    const std::size_t batches = 20;
    for (std::size_t b = 0; b < batches; ++b) {
      const auto slice = [&](const std::vector<NodeId>& v) {
        const std::size_t lo = v.size() * b / batches;
        const std::size_t hi = v.size() * (b + 1) / batches;
        return std::span<const NodeId>(v).subspan(lo, hi - lo);
      };
      driver.depart(slice(graceful), slice(abrupt));
      audit.check();
      audit.run_for(0.5);
    }
    audit.run_for(10.0);
  }
  phases.push_back(meter.end("departure"));

  // -- Phase 4: quiescent plateau --------------------------------------------
  meter.begin();
  audit.run_for(20.0);
  phases.push_back(meter.end("plateau"));

  // -- Report ----------------------------------------------------------------
  const Topology& topo = world.topology();
  const auto& arena = CaptureArena::instance();

  TextTable t({"phase", "wall_s", "peak_rss_mib", "events", "allocs",
               "allocs_per_event", "configured", "audit_checks", "audit_s",
               "audit_violations"});
  for (const PhaseReport& p : phases) {
    t.add_row({p.name, format_double(p.wall_s, 3),
               format_double(p.peak_rss_mib, 1), std::to_string(p.events),
               std::to_string(p.allocs), format_double(p.allocs_per_event, 4),
               std::to_string(p.configured), std::to_string(p.audit_checks),
               format_double(p.audit_s, 3),
               std::to_string(p.audit_violations)});
  }
  std::printf("fig_metro: city day, n=%u, side=%.0f m, range=%.0f m\n\n%s\n",
              n, side, kRange, t.render().c_str());
  std::printf(
      "topology: %llu incremental patches, %llu full rebuilds, "
      "%llu component repairs\n",
      static_cast<unsigned long long>(topo.csr_incremental_patches()),
      static_cast<unsigned long long>(topo.csr_full_rebuilds()),
      static_cast<unsigned long long>(topo.component_repairs()));
  std::printf(
      "capture arena: %llu blocks reused, %llu fresh, %zu bytes carved\n",
      static_cast<unsigned long long>(arena.reused()),
      static_cast<unsigned long long>(arena.fresh()), arena.arena_bytes());
  if (audit.violations() > 0) {
    std::printf("audit: first violation: %s\n",
                audit.first_violation().c_str());
  }

  if (const char* path = std::getenv("QIP_BENCH_JSON")) {
    JsonValue rows = JsonValue::array();
    for (const PhaseReport& p : phases) {
      rows.push(JsonValue::object()
                    .set("name", p.name)
                    .set("wall_s", p.wall_s)
                    .set("peak_rss_mib", p.peak_rss_mib)
                    .set("events", p.events)
                    .set("allocs", p.allocs)
                    .set("allocs_per_event", p.allocs_per_event)
                    .set("configured", p.configured)
                    .set("audit_checks", p.audit_checks)
                    .set("audit_s", p.audit_s)
                    .set("audit_violations", p.audit_violations));
    }
    JsonValue doc = JsonValue::object();
    doc.set("bench", "fig_metro")
        .set("nodes", n)
        .set("area_side_m", side)
        .set("range_m", kRange)
        .set("phases", std::move(rows))
        .set("topo",
             JsonValue::object()
                 .set("incremental_patches", topo.csr_incremental_patches())
                 .set("full_rebuilds", topo.csr_full_rebuilds())
                 .set("component_repairs", topo.component_repairs()))
        .set("arena",
             JsonValue::object()
                 .set("blocks_reused", arena.reused())
                 .set("blocks_fresh", arena.fresh())
                 .set("bytes", static_cast<std::uint64_t>(arena.arena_bytes())));
    if (!doc.write_file(path)) {
      std::fprintf(stderr, "fig_metro: failed to write %s\n", path);
      return 1;
    }
    std::printf("wrote %s\n", path);
  }
  return 0;
}
