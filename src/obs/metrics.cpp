#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/assert.hpp"

namespace qip::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  QIP_ASSERT_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must ascend");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  if (count_ == 1) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const std::uint64_t next = seen + counts_[b];
    if (static_cast<double>(next) >= target) {
      const double lo = b == 0 ? (bounds_.empty() ? min_ : std::min(min_, bounds_[0]))
                               : bounds_[b - 1];
      const double hi = b < bounds_.size() ? bounds_[b] : max_;
      if (counts_[b] == 1 || hi <= lo) return std::min(hi, max_);
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(counts_[b]);
      return std::min(lo + frac * (hi - lo), max_);
    }
    seen = next;
  }
  return max_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = max_ = 0.0;
}

void Histogram::merge_from(const Histogram& other) {
  if (other.count_ == 0) return;
  QIP_ASSERT_MSG(bounds_ == other.bounds_,
                 "merging histograms with different bounds");
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::vector<double> latency_buckets_s() {
  std::vector<double> b;
  for (double v = 1e-6; v < 200.0; v *= 2.0) b.push_back(v);
  return b;
}

std::vector<double> duration_buckets_us() {
  std::vector<double> b;
  for (double v = 0.25; v < 2e7; v *= 2.0) b.push_back(v);
  return b;
}

MetricsRegistry& process_metrics() {
  static MetricsRegistry registry;
  return registry;
}

namespace {
std::string series_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  if (labels.empty()) return key;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) key += ',';
    first = false;
    key += k;
    key += '=';
    key += v;
  }
  key += '}';
  return key;
}
}  // namespace

MetricsRegistry::Series& MetricsRegistry::at(std::string_view name,
                                             const Labels& labels) {
  ++map_lookups_;
  return series_[series_key(name, labels)];
}

Histogram& MetricsRegistry::profile_histogram(const char* site) {
  const auto key = reinterpret_cast<std::uintptr_t>(site);
  if (Histogram** cached = profile_cache_.find(key)) return **cached;
  Histogram& h =
      histogram("profile_us", {{"site", site}}, duration_buckets_us());
  profile_cache_.emplace(key, &h);
  return h;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  Series& s = at(name, labels);
  QIP_ASSERT_MSG(!s.gauge && !s.histogram, "series type mismatch: " << name);
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  Series& s = at(name, labels);
  QIP_ASSERT_MSG(!s.counter && !s.histogram, "series type mismatch: " << name);
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const Labels& labels,
                                      std::vector<double> bounds) {
  Series& s = at(name, labels);
  QIP_ASSERT_MSG(!s.counter && !s.gauge, "series type mismatch: " << name);
  if (!s.histogram) s.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *s.histogram;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [key, s] : other.series_) {
    Series& mine = series_[key];
    if (s.counter) {
      QIP_ASSERT_MSG(!mine.gauge && !mine.histogram,
                     "series type mismatch: " << key);
      if (!mine.counter) mine.counter = std::make_unique<Counter>();
      mine.counter->inc(s.counter->value());
    } else if (s.gauge) {
      QIP_ASSERT_MSG(!mine.counter && !mine.histogram,
                     "series type mismatch: " << key);
      if (!mine.gauge) mine.gauge = std::make_unique<Gauge>();
      mine.gauge->add(s.gauge->value());
    } else if (s.histogram) {
      QIP_ASSERT_MSG(!mine.counter && !mine.gauge,
                     "series type mismatch: " << key);
      if (!mine.histogram) {
        mine.histogram = std::make_unique<Histogram>(s.histogram->bounds());
      }
      mine.histogram->merge_from(*s.histogram);
    }
  }
}

void MetricsRegistry::reset_values() {
  for (auto& [key, s] : series_) {
    if (s.counter) s.counter->reset();
    if (s.gauge) s.gauge->reset();
    if (s.histogram) s.histogram->reset();
  }
}

namespace {
std::string format_value(double v) {
  char buf[48];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}
}  // namespace

std::string MetricsRegistry::render_text() const {
  std::ostringstream os;
  for (const auto& [key, s] : series_) {  // std::map: sorted by key
    if (s.counter) {
      os << key << ' ' << format_value(s.counter->value()) << '\n';
    } else if (s.gauge) {
      os << key << ' ' << format_value(s.gauge->value()) << '\n';
    } else if (s.histogram) {
      const Histogram& h = *s.histogram;
      os << key << "_count " << h.count() << '\n';
      os << key << "_sum " << format_value(h.sum()) << '\n';
      if (h.count() > 0) {
        os << key << "_p50 " << format_value(h.quantile(0.5)) << '\n';
        os << key << "_p99 " << format_value(h.quantile(0.99)) << '\n';
        os << key << "_max " << format_value(h.max()) << '\n';
      }
    }
  }
  return os.str();
}

}  // namespace qip::obs
