// Labeled metrics registry: counters, gauges and histograms keyed by
// (name, label set), in the style of a Prometheus client.
//
// MessageStats stays the hot-path tally (flat array increments — the
// transport's per-message cost budget allows nothing slower); the registry
// subsumes it at snapshot time via MessageStats::export_to(), which turns
// the per-Traffic counters into `qip_messages_total{traffic=...}` series,
// and adds what MessageStats cannot express: wall-clock profile histograms
// (ProfileScope), quorum-operation latency, event-queue depth.
//
// Handles returned by counter()/gauge()/histogram() stay valid for the
// registry's lifetime: series are never removed, reset_values() only zeroes
// them — so instrumented code may cache the reference and skip the name
// lookup.  Naming scheme (docs/OBSERVABILITY.md): snake_case, `_total`
// suffix for monotone counters, base units (seconds, hops, events).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/flat_hash.hpp"

namespace qip::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(double v = 1.0) { value_ += v; }
  /// Snapshot export (MessageStats::export_to): overwrite with the source's
  /// cumulative value.
  void set(double v) { value_ = v; }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed-boundary histogram: observations land in the first bucket whose
/// upper bound is >= the value (last bucket is +inf).  Quantiles are
/// estimated by linear interpolation within the winning bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  void reset();

  /// Folds another histogram's observations into this one.  The bounds must
  /// match (series merged across SimContexts are created from the same
  /// instrumentation site, so they always do).
  void merge_from(const Histogram& other);

 private:
  std::vector<double> bounds_;           ///< ascending upper bounds
  std::vector<std::uint64_t> counts_;    ///< bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponential bucket bounds for latencies in seconds: 1 µs … ~131 s.
std::vector<double> latency_buckets_s();
/// Exponential bucket bounds for wall-clock durations in microseconds.
std::vector<double> duration_buckets_us();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  /// `bounds` is consulted only when the series is created.
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       std::vector<double> bounds = latency_buckets_s());

  /// Interned handle for a `profile_us{site=...}` histogram, keyed by the
  /// site literal's ADDRESS: after the first call per site the hot path is
  /// one flat-hash probe — no label vector, no key string, no std::map walk
  /// (those only happen on the miss, and map_lookups() counts them so
  /// bench/micro_obs can pin the steady state at zero).  Two literals with
  /// equal text but different addresses intern to the same series.
  Histogram& profile_histogram(const char* site);

  /// Slow-path (string-keyed std::map) lookups performed so far.  Interned
  /// accessors only bump this on a cache miss; counter()/gauge()/histogram()
  /// bump it every call.
  std::uint64_t map_lookups() const { return map_lookups_; }

  /// Zeroes every series, keeping all handles valid (scenario reuse:
  /// protocol_faceoff resets between runs).
  void reset_values();

  /// Text exposition, one `name{labels} value` line per series, sorted by
  /// key; histograms expand to _count/_sum/_p50/_p99/_max lines.
  std::string render_text() const;

  /// Folds every series of `other` into this registry: counters and gauges
  /// add their values, histograms merge bucket counts.  Series missing here
  /// are created.  The ParallelRunner absorbs per-cell registries through
  /// this in (x, round) order, so the merged totals are deterministic.
  void merge_from(const MetricsRegistry& other);

 private:
  struct Series {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series& at(std::string_view name, const Labels& labels);

  std::map<std::string, Series> series_;
  /// site-literal address -> interned profile series (see profile_histogram).
  FlatHashMap<std::uintptr_t, Histogram*> profile_cache_;
  std::uint64_t map_lookups_ = 0;
};

/// The process-wide registry: what tools and examples export by default, and
/// what the default process context aliases.  This accessor is the
/// compatibility shim for code that predates per-run contexts.
MetricsRegistry& process_metrics();

}  // namespace qip::obs
