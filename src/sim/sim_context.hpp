// Per-simulation context: the handles a run reads.
//
// Historically the trace recorder and metrics registry were process globals
// ("single-threaded by design"), which capped the whole bench suite at one
// core.  A SimContext makes that state per-run: every Simulator (and
// everything reached through it — Transport, ReliableChannel, protocol
// engines, World) resolves its TraceRecorder / MetricsRegistry /
// AdversaryController through the context instead of a global.
//
// Three flavors:
//
//   * process_context() — the compatibility shim.  Aliases the process-wide
//     recorder/registry (which still honor QIP_TRACE_FILE etc.), so tools,
//     examples and tests that predate contexts behave exactly as before.
//     Code that never mentions SimContext lands here.
//   * SimContext() — a fresh, fully isolated context: own disabled recorder,
//     own empty registry.  Two Worlds on two fresh contexts can interleave
//     arbitrarily — even on different threads — without observing each
//     other.
//   * SimContext(Replica, parent) — one parallel cell's context, as created
//     by the ParallelRunner: inherits the parent's trace configuration and
//     is merged back into the parent via absorb() in deterministic
//     (x, round) order.
//
// See docs/PARALLELISM.md for the ownership diagram and the determinism
// contract.
#pragma once

#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"

namespace qip {

class AdversaryController;

class SimContext {
 public:
  /// Tag selecting the replica constructor.
  struct Replica {};

  /// Fresh, fully isolated context.
  SimContext();

  /// Replica of `parent` for one parallel cell: same trace configuration
  /// (capacity + enabled), fresh recorder and registry.
  SimContext(Replica, const SimContext& parent);

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  obs::TraceRecorder& recorder() const { return *recorder_; }
  obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// The one branch an instrumentation site pays when tracing is off.
  bool tracing_on() const { return recorder_->enabled(); }

  /// Active adversary controller, if any (owned elsewhere — usually by a
  /// World).  Protocol engines resolve it here: per-run state travels with
  /// the context, so parallel cells with different adversary plans never
  /// observe each other, and the detector/attack timers they derive stay
  /// inside their own run.
  AdversaryController* adversary() const { return adversary_; }
  void set_adversary(AdversaryController* a) { adversary_ = a; }

  /// Whether this context aliases the process-wide recorder/registry.
  bool is_process_context() const { return !owned_recorder_; }

  /// Folds a finished cell context into this one: trace events append (span
  /// ids remapped) and metrics merge.  Call in deterministic order — the
  /// ParallelRunner absorbs cells in ascending (x, round) order, making the
  /// merged state identical to a sequential run.
  void absorb(SimContext& cell);

 private:
  friend SimContext& process_context();
  struct ProcessTag {};
  explicit SimContext(ProcessTag);

  std::unique_ptr<obs::TraceRecorder> owned_recorder_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::TraceRecorder* recorder_;
  obs::MetricsRegistry* metrics_;
  AdversaryController* adversary_ = nullptr;
};

/// The process-default context (compatibility shim): wraps the process-wide
/// recorder and registry.  Everything that never asks for a context — tools,
/// examples, directly constructed Simulators — runs against this.
SimContext& process_context();

}  // namespace qip
