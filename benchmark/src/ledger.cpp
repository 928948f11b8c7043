#include "ledger.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>

#include "obs/metrics.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (the bench/fig_metro idiom).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace qipbench {

namespace {
// Indexed by Site.
constexpr const char* kSiteNames[] = {
    "topo_csr_patch", "topo_csr_rebuild", "topo_components_repair",
    "topo_components_rebuild", "transport_flood"};
}  // namespace

double mono_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

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

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kFlashCrowd: return "flash_crowd";
    case Phase::kDrift: return "drift";
    case Phase::kDeparture: return "departure";
    case Phase::kPlateau: return "plateau";
    case Phase::kJoin: return "join";
    case Phase::kRoam: return "roam";
    case Phase::kDepart: return "depart";
    case Phase::kCount: break;
  }
  return "?";
}

const char* Ledger::layer_name(Layer l) {
  switch (l) {
    case Layer::kSimRun: return "sim.run";
    case Layer::kTopoAdd: return "topology.add";
    case Layer::kTopoMove: return "topology.move";
    case Layer::kTopoRemove: return "topology.remove";
    case Layer::kEngineEnter: return "engine.enter";
    case Layer::kEngineDepart: return "engine.depart";
    case Layer::kEngineMobilityTick: return "engine.mobility_tick";
    case Layer::kAuditCheck: return "audit.check";
    case Layer::kWorldBuild: return "harness.world_build";
    case Layer::kWorldTeardown: return "harness.world_teardown";
    case Layer::kDriverJoin: return "driver.join";
    case Layer::kDriverDepart: return "driver.depart";
    case Layer::kCount: break;
  }
  return "?";
}

Ledger::Ledger(bool traced) : traced_(traced), origin_(mono_now_s()) {
  auto& reg = qip::obs::process_metrics();
  for (std::size_t i = 0; i < kSites; ++i)
    sites_[i] = &reg.profile_histogram(kSiteNames[i]);
  if (traced_) spans_.reserve(1 << 16);
}

void Ledger::start_timed() {
  timed_start_ = mono_now_s();
  in_timed_ = true;
  top_level_s_ = 0.0;
}

void Ledger::stop_timed() {
  timed_end_ = mono_now_s();
  in_timed_ = false;
}

Ledger::Checkpoint Ledger::checkpoint() const {
  Checkpoint c{totals_, phases_, {}, {}};
  for (std::size_t i = 0; i < kSites; ++i) {
    c.site_us[i] = sites_[i]->sum();
    c.site_calls[i] = sites_[i]->count();
  }
  return c;
}

void Ledger::rollback(const Checkpoint& c) {
  totals_ = c.totals;
  phases_ = c.phases;
  open_phase_ = Phase::kCount;
  depth_ = 1;
  for (std::size_t i = 0; i < kSites; ++i) {
    discarded_us_[i] += sites_[i]->sum() - c.site_us[i];
    discarded_calls_[i] += sites_[i]->count() - c.site_calls[i];
  }
}

void Ledger::begin_phase(Phase p, std::uint64_t events_now) {
  open_phase_ = p;
  phase_start_ = mono_now_s();
  phase_events0_ = events_now;
}

void Ledger::end_phase(std::uint64_t events_now) {
  const double end = mono_now_s();
  PhaseTotal& pt = phases_[static_cast<std::size_t>(open_phase_)];
  pt.wall_s += end - phase_start_;
  pt.events += events_now - phase_events0_;
  pt.rss_mib = peak_rss_mib();
  if (traced_) {
    spans_.push_back(Span{phase_name(open_phase_), phase_start_,
                          end - phase_start_, 0.0, 0});
  }
  open_phase_ = Phase::kCount;
}

double Ledger::topo_us() const {
  double s = 0.0;
  for (std::size_t i = 0; i < kSites; ++i)
    if (i != static_cast<std::size_t>(Site::kFlood)) s += sites_[i]->sum();
  return s;
}

double Ledger::flood_us() const {
  return sites_[static_cast<std::size_t>(Site::kFlood)]->sum();
}

Ledger::Mark Ledger::mark() const {
  return Mark{mono_now_s(), topo_us(), flood_us()};
}

void Ledger::close(const char* name, const Mark& m, LayerTotal* total) {
  const double dur = mono_now_s() - m.t;
  const double topo = (topo_us() - m.topo_us) * 1e-6;
  const double flood = (flood_us() - m.flood_us) * 1e-6;
  if (total != nullptr) {
    total->seconds += dur;
    ++total->calls;
    total->child_topology_s += topo;
    total->child_flood_s += flood;
  }
  if (depth_ > 1) return;  // covered by the enclosing batch span
  spans_.push_back(Span{name, m.t, dur, topo + flood, depth_});
  if (in_timed_) top_level_s_ += dur;
}

double Ledger::span_coverage() const {
  const double wall = timed_wall_s();
  return wall > 0.0 ? top_level_s_ / wall : 0.0;
}

double Ledger::profile_s(Site s) const {
  const auto i = static_cast<std::size_t>(s);
  return (sites_[i]->sum() - discarded_us_[i]) * 1e-6;
}

std::uint64_t Ledger::profile_calls(Site s) const {
  const auto i = static_cast<std::size_t>(s);
  return sites_[i]->count() - discarded_calls_[i];
}

bool Ledger::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"qip-benchmark\"}}");
  for (const Span& s : spans_) {
    // Phases on tid 1, calls nested under them by time containment.
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"child_us\":"
                 "%.3f}}",
                 s.name, s.depth == 0 ? "phase" : "layer",
                 (s.start_s - origin_) * 1e6, s.dur_s * 1e6,
                 s.child_s * 1e6);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace qipbench
