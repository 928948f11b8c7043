// Bench-side measurement of one benchmark rep: phase totals always, and —
// in a traced rep only — per-layer call timing plus an in-memory span list
// written out as Chrome trace_event JSON at the end.
//
// Everything here times calls into the simulator from outside.  Child time
// inside a call is read from the program's own profile histograms
// (`topo_*`, `transport_flood`), which fill only while the process trace
// recorder is enabled, so an untraced rep pays one branch per call.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qip::obs {
class Histogram;
}

namespace qipbench {

/// CLOCK_MONOTONIC in seconds: the same clock as Python's time.monotonic(),
/// so run.py can measure set-up from before the process was spawned.
double mono_now_s();
/// VmHWM (peak resident set) of this process in MiB.
double peak_rss_mib();
/// operator-new calls so far (counted by the override in ledger.cpp).
std::uint64_t allocs_now();

/// Layers the workloads call into.  Each call is timed in a traced rep.
enum class Layer : std::size_t {
  kSimRun,
  kTopoAdd,
  kTopoMove,
  kTopoRemove,
  kEngineEnter,
  kEngineDepart,
  kEngineMobilityTick,
  kAuditCheck,
  kWorldBuild,
  kWorldTeardown,
  kDriverJoin,
  kDriverDepart,
  kCount,
};

/// Phases of the timed part; a workload uses a subset.
enum class Phase : std::size_t {
  kFlashCrowd,
  kDrift,
  kDeparture,
  kPlateau,
  kJoin,
  kRoam,
  kDepart,
  kCount,
};

const char* phase_name(Phase p);

/// The program's own profile sites (src/net/topology_cache.cpp,
/// src/net/transport.cpp), read as child time inside layer calls.
enum class Site : std::size_t {
  kCsrPatch,
  kCsrRebuild,
  kComponentsRepair,
  kComponentsRebuild,
  kFlood,
  kCount,
};

struct LayerTotal {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  double child_topology_s = 0.0;  ///< topo_* profile time inside the calls
  double child_flood_s = 0.0;     ///< transport_flood profile time inside
};

struct PhaseTotal {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  double rss_mib = 0.0;  ///< VmHWM at the end of the phase's last interval
};

class Ledger {
  static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
  static constexpr std::size_t kPhases = static_cast<std::size_t>(Phase::kCount);
  static constexpr std::size_t kSites = static_cast<std::size_t>(Site::kCount);

 public:
  explicit Ledger(bool traced);

  /// Marks the first timed step; set-up ends here.
  void start_timed();
  /// Marks the end of the timed part.
  void stop_timed();
  double timed_wall_s() const { return timed_end_ - timed_start_; }
  double timed_start_mono_s() const { return timed_start_; }

  /// What the ledger has recorded so far, so that a discarded world can be
  /// taken back out of it.
  struct Checkpoint {
    std::array<LayerTotal, kLayers> totals;
    std::array<PhaseTotal, kPhases> phases;
    std::array<double, kSites> site_us;
    std::array<std::uint64_t, kSites> site_calls;
  };
  Checkpoint checkpoint() const;
  /// Forgets the layer, phase and profile-site totals recorded since `c`.
  /// Spans stay in the trace, and timed_wall_s() is not affected.
  void rollback(const Checkpoint& c);

  /// Phase intervals accumulate: paper_grid opens each phase once per world.
  void begin_phase(Phase p, std::uint64_t events_now);
  void end_phase(std::uint64_t events_now);

  /// Times one call into `layer` (traced reps only).  Calls made directly
  /// inside a phase also become spans; calls inside a batch() are timed
  /// but covered by the batch's span.
  template <typename F>
  void call(Layer layer, F&& fn) {
    if (!traced_) {
      fn();
      return;
    }
    const Mark m = mark();
    fn();
    close(layer_name(layer), m, &totals_[static_cast<std::size_t>(layer)]);
  }

  /// One span around a batch of calls (an arrival wave, a movement tick).
  template <typename F>
  void batch(const char* name, F&& fn) {
    if (!traced_) {
      fn();
      return;
    }
    const Mark m = mark();
    ++depth_;
    fn();
    --depth_;
    close(name, m, nullptr);
  }

  const LayerTotal& total(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  const PhaseTotal& phase(Phase p) const {
    return phases_[static_cast<std::size_t>(p)];
  }
  /// Share of the timed wall covered by top-level spans (traced reps);
  /// spans recorded during set-up are written to the trace but not counted.
  double span_coverage() const;

  /// Profile-site totals (seconds and calls) of the worlds kept so far.
  /// The sites fill only in a traced rep.
  double profile_s(Site s) const;
  std::uint64_t profile_calls(Site s) const;

  /// Writes the spans as Chrome trace_event JSON; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double dur_s;
    double child_s;
    std::uint32_t depth;
  };
  struct Mark {
    double t;
    double topo_us;
    double flood_us;
  };

  static const char* layer_name(Layer l);
  Mark mark() const;
  void close(const char* name, const Mark& m, LayerTotal* total);
  double topo_us() const;
  double flood_us() const;

  bool traced_;
  double origin_;  ///< trace timestamps count from here
  bool in_timed_ = false;
  double timed_start_ = 0.0;
  double timed_end_ = 0.0;
  std::array<LayerTotal, kLayers> totals_{};
  std::array<PhaseTotal, kPhases> phases_{};
  Phase open_phase_ = Phase::kCount;
  double phase_start_ = 0.0;
  std::uint64_t phase_events0_ = 0;
  std::uint32_t depth_ = 1;  ///< spans directly under a phase sit at depth 1
  double top_level_s_ = 0.0;
  std::vector<Span> spans_;
  std::array<qip::obs::Histogram*, kSites> sites_{};
  /// Profile-site totals of discarded worlds, left out of profile_s().
  std::array<double, kSites> discarded_us_{};
  std::array<std::uint64_t, kSites> discarded_calls_{};
};

}  // namespace qipbench
