// Structured event tracing for the simulator.
//
// The TraceRecorder captures what a run *did* — spans (quorum transactions,
// reclamation), instant events (every transmission, drop, retransmission,
// vote), counters (event-queue depth) and wall-clock profile sections — into
// a fixed-capacity ring buffer of POD entries.  Design constraints:
//
//   * Branch-cheap when disabled: every call site guards with
//     `obs::tracing_on()`, a single inline bool read, so a run that never
//     enables tracing pays one predictable branch per potential event and
//     allocates nothing.
//   * Allocation-free when enabled: an Event is a fixed-size struct whose
//     names, categories and string args are string *literals* (the recorder
//     stores the pointers, never copies).  The ring is allocated once, on
//     enable.
//   * Deterministic: recording draws no randomness and never perturbs the
//     simulation; enabling tracing must leave every protocol outcome
//     byte-identical (the trace_invariance ctests enforce this for all
//     figure benches).
//
// Two clocks share one trace: sim-time events carry the virtual clock
// (exported on pid 1), wall-clock profile sections carry real microseconds
// since enable() (exported on pid 2), so a Perfetto view shows protocol
// behavior and hardware cost side by side.
//
// Levers: QIP_TRACE_FILE=<path> enables tracing at startup and dumps at
// process exit (extension .json → Chrome trace_event, else JSONL);
// QIP_TRACE_BUF=<events> sizes the ring (strictly parsed: a malformed value
// exits 2).  See docs/OBSERVABILITY.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace qip::obs {

/// One typed key/value attached to an event.  Keys and string values MUST
/// be string literals (or otherwise outlive the recorder) — the recorder
/// keeps the pointer.  A default-constructed Arg (Kind::kNone) is skipped,
/// so a call site may pass optional args unconditionally.
struct Arg {
  enum class Kind : std::uint8_t { kNone, kInt, kDouble, kStr };

  constexpr Arg() : key(nullptr), kind(Kind::kNone), i(0) {}
  constexpr Arg(const char* k, std::int64_t v)
      : key(k), kind(Kind::kInt), i(v) {}
  constexpr Arg(const char* k, std::uint64_t v)
      : key(k), kind(Kind::kInt), i(static_cast<std::int64_t>(v)) {}
  constexpr Arg(const char* k, std::uint32_t v)
      : key(k), kind(Kind::kInt), i(v) {}
  constexpr Arg(const char* k, std::int32_t v)
      : key(k), kind(Kind::kInt), i(v) {}
  constexpr Arg(const char* k, double v) : key(k), kind(Kind::kDouble), d(v) {}
  constexpr Arg(const char* k, const char* v)
      : key(k), kind(Kind::kStr), s(v) {}

  const char* key;
  Kind kind;
  union {
    std::int64_t i;
    double d;
    const char* s;
  };
};

enum class Phase : std::uint8_t {
  kInstant,   ///< point event at sim time
  kBegin,     ///< async span open (id pairs it with its end)
  kEnd,       ///< async span close
  kCounter,   ///< sampled value (args[0] holds it)
  kComplete,  ///< wall-clock section: ts/dur are microseconds since enable
};

/// Fixed-size trace entry.  ~200 bytes; the ring's memory is capacity × this.
struct Event {
  static constexpr std::size_t kMaxArgs = 6;

  const char* name = nullptr;  ///< string literal
  const char* cat = nullptr;   ///< string literal
  double ts = 0.0;             ///< sim seconds (kComplete: wall µs)
  double dur = 0.0;            ///< kComplete only: wall µs
  std::uint64_t id = 0;        ///< span id (kBegin/kEnd), else 0
  std::uint32_t tid = 0;       ///< track: usually the acting NodeId
  Phase phase = Phase::kInstant;
  std::uint8_t argc = 0;
  Arg args[kMaxArgs];

  /// The arg named `key`, or nullptr.
  const Arg* arg(std::string_view key) const {
    for (std::uint8_t i = 0; i < argc; ++i) {
      if (key == args[i].key) return &args[i];
    }
    return nullptr;
  }
};

class TraceRecorder {
 public:
  /// A fresh, disabled recorder with the default capacity.  Each SimContext
  /// owns one; the process-wide recorder (process_recorder()) additionally
  /// honors QIP_TRACE_FILE / QIP_TRACE_BUF.
  TraceRecorder() = default;

  bool enabled() const { return enabled_; }
  /// Allocates the ring (if needed) and starts recording.  The wall-clock
  /// origin for profile sections is (re)anchored here.
  void enable();
  void disable() { enabled_ = false; }
  /// Drops all recorded events; keeps the ring allocation and enabled state.
  void clear();

  /// Ring capacity in events (default 1<<18; QIP_TRACE_BUF overrides).
  /// Takes effect on the next enable()/clear().
  void set_capacity(std::size_t events);
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  /// Events overwritten after the ring wrapped (oldest-first eviction).
  std::uint64_t overwritten() const { return overwritten_; }

  // -- Recording (call only behind tracing_on()) ----------------------------
  std::uint64_t begin_span(double t, const char* name, const char* cat,
                           std::uint32_t tid,
                           std::initializer_list<Arg> args = {});
  void end_span(double t, std::uint64_t id, const char* name, const char* cat,
                std::uint32_t tid, std::initializer_list<Arg> args = {});
  void instant(double t, const char* name, const char* cat, std::uint32_t tid,
               std::initializer_list<Arg> args = {});
  void counter(double t, const char* name, const char* cat, double value);
  /// Wall-clock section; `start_us`/`dur_us` relative to wall_now_us().
  void complete_wall(const char* name, const char* cat, double start_us,
                     double dur_us);

  /// Microseconds of real time since enable().
  double wall_now_us() const;

  /// Recorded events, oldest first (unwraps the ring).
  std::vector<Event> events() const;

  /// Number of span ids this recorder has handed out.
  std::uint64_t spans_allocated() const { return next_span_ - 1; }

  /// Appends every event of `other` (oldest first) to this ring, remapping
  /// span ids past the ids already allocated here so spans from different
  /// recorders never collide.  Merge order is the caller's responsibility;
  /// the ParallelRunner absorbs per-cell recorders in (x, round) order, which
  /// makes the merged stream — ids included — identical to a sequential run.
  void merge_from(const TraceRecorder& other);

  // -- Export ---------------------------------------------------------------
  /// One Chrome trace_event JSON object per line.
  void dump_jsonl(std::ostream& os) const;
  /// Chrome/Perfetto-loadable JSON ({"traceEvents":[...]}).
  void dump_chrome(std::ostream& os) const;
  /// Dispatch by extension: ".json" → Chrome, anything else → JSONL.
  /// Returns false when the file cannot be written.  A failed write, or a
  /// ring that wrapped and so lost its oldest events, is reported as one
  /// `qip: trace <path>: ...` line on stderr; stdout is never touched.
  bool dump_file(const std::string& path) const;

 private:
  Event& push();
  void init_from_env();

  bool enabled_ = false;
  std::size_t capacity_ = 1u << 18;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  ///< next write slot once the ring is full
  std::size_t size_ = 0;
  std::uint64_t overwritten_ = 0;
  std::uint64_t next_span_ = 1;
  std::chrono::steady_clock::time_point wall_origin_;
  std::string env_dump_path_;  ///< QIP_TRACE_FILE target, dumped at exit

  friend void dump_env_trace();
  friend TraceRecorder& process_recorder();
};

/// The process-wide recorder: what tools and examples trace into by default,
/// and what the default process context aliases.  First access reads
/// QIP_TRACE_FILE / QIP_TRACE_BUF and registers the exit dump.  This
/// accessor is the compatibility shim for code that predates per-run
/// contexts; context-aware code reads its SimContext's recorder instead.
TraceRecorder& process_recorder();

/// The one branch a process-context instrumentation site pays when tracing
/// is off.  Sites with a SimContext in reach use ctx.tracing_on() instead.
inline bool tracing_on() { return process_recorder().enabled(); }

}  // namespace qip::obs
