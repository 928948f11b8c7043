#include "obs/trace_recorder.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

#include "util/env.hpp"

namespace qip::obs {

namespace {

/// Escapes a string into a JSON string literal (no surrounding quotes).
/// Names are C string literals so this is almost always a pass-through.
void json_escape(std::ostream& os, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void json_number(std::ostream& os, double v) {
  char buf[32];
  // %.3f keeps microsecond timestamps exact to the nanosecond and the
  // output byte-stable across runs of the same simulation.
  std::snprintf(buf, sizeof buf, "%.3f", v);
  os << buf;
}

void write_args(std::ostream& os, const Event& e) {
  os << "\"args\":{";
  for (std::uint8_t i = 0; i < e.argc; ++i) {
    if (i) os << ',';
    const Arg& a = e.args[i];
    os << '"';
    json_escape(os, a.key);
    os << "\":";
    switch (a.kind) {
      case Arg::Kind::kInt: os << a.i; break;
      case Arg::Kind::kDouble: json_number(os, a.d); break;
      case Arg::Kind::kStr:
        os << '"';
        json_escape(os, a.s);
        os << '"';
        break;
      case Arg::Kind::kNone: os << "null"; break;
    }
  }
  os << '}';
}

void write_event(std::ostream& os, const Event& e) {
  os << "{\"name\":\"";
  json_escape(os, e.name);
  os << "\",\"cat\":\"";
  json_escape(os, e.cat);
  os << "\",\"ph\":\"";
  const bool wall = e.phase == Phase::kComplete;
  switch (e.phase) {
    case Phase::kInstant: os << 'i'; break;
    case Phase::kBegin: os << 'b'; break;
    case Phase::kEnd: os << 'e'; break;
    case Phase::kCounter: os << 'C'; break;
    case Phase::kComplete: os << 'X'; break;
  }
  os << "\",\"ts\":";
  // Sim-time events export the virtual clock in microseconds on pid 1;
  // wall-clock sections are already in microseconds and live on pid 2.
  json_number(os, wall ? e.ts : e.ts * 1e6);
  if (wall) {
    os << ",\"dur\":";
    json_number(os, e.dur);
  }
  if (e.phase == Phase::kBegin || e.phase == Phase::kEnd) {
    os << ",\"id\":" << e.id;
  }
  if (e.phase == Phase::kInstant) os << ",\"s\":\"t\"";
  os << ",\"pid\":" << (wall ? 2 : 1) << ",\"tid\":" << e.tid;
  if (e.argc > 0) {
    os << ',';
    write_args(os, e);
  }
  os << '}';
}

}  // namespace

void dump_env_trace() {
  TraceRecorder& r = process_recorder();
  if (!r.env_dump_path_.empty()) r.dump_file(r.env_dump_path_);
}

void TraceRecorder::init_from_env() {
  capacity_ = env_positive_u32("QIP_TRACE_BUF",
                               static_cast<std::uint32_t>(capacity_));
  if (const char* path = std::getenv("QIP_TRACE_FILE")) {
    if (*path != '\0') {
      env_dump_path_ = path;
      enable();
    }
  }
}

TraceRecorder& process_recorder() {
  static TraceRecorder recorder;
  // The env-driven exit dump must be registered AFTER the static's
  // construction completes: atexit handlers and static destructors unwind in
  // reverse order, so registering from the constructor (before the
  // destructor itself is registered) would run the dump against an
  // already-destroyed ring.  Env config is deferred here for the same
  // reason — and because only the process recorder honors the env levers;
  // per-context recorders inherit their config from their parent context.
  static const bool env_configured = [] {
    recorder.init_from_env();
    if (!recorder.env_dump_path_.empty()) std::atexit(dump_env_trace);
    return true;
  }();
  (void)env_configured;
  return recorder;
}

void TraceRecorder::enable() {
  if (ring_.size() != capacity_) {
    ring_.assign(capacity_, Event{});
    head_ = 0;
    size_ = 0;
    overwritten_ = 0;
  }
  wall_origin_ = std::chrono::steady_clock::now();
  enabled_ = true;
}

void TraceRecorder::clear() {
  if (ring_.size() != capacity_) ring_.assign(capacity_, Event{});
  head_ = 0;
  size_ = 0;
  overwritten_ = 0;
  wall_origin_ = std::chrono::steady_clock::now();
}

void TraceRecorder::set_capacity(std::size_t events) {
  if (events == 0) events = 1;
  capacity_ = events;
}

Event& TraceRecorder::push() {
  if (size_ < ring_.size()) {
    return ring_[size_++];
  }
  // Ring full: overwrite the oldest entry.
  Event& slot = ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  ++overwritten_;
  return slot;
}

namespace {
void fill_args(Event& e, std::initializer_list<Arg> args) {
  e.argc = 0;
  for (const Arg& a : args) {
    if (a.kind == Arg::Kind::kNone) continue;
    if (e.argc == Event::kMaxArgs) break;
    e.args[e.argc++] = a;
  }
}
}  // namespace

std::uint64_t TraceRecorder::begin_span(double t, const char* name,
                                        const char* cat, std::uint32_t tid,
                                        std::initializer_list<Arg> args) {
  const std::uint64_t id = next_span_++;
  Event& e = push();
  e = Event{};
  e.name = name;
  e.cat = cat;
  e.ts = t;
  e.id = id;
  e.tid = tid;
  e.phase = Phase::kBegin;
  fill_args(e, args);
  return id;
}

void TraceRecorder::end_span(double t, std::uint64_t id, const char* name,
                             const char* cat, std::uint32_t tid,
                             std::initializer_list<Arg> args) {
  Event& e = push();
  e = Event{};
  e.name = name;
  e.cat = cat;
  e.ts = t;
  e.id = id;
  e.tid = tid;
  e.phase = Phase::kEnd;
  fill_args(e, args);
}

void TraceRecorder::instant(double t, const char* name, const char* cat,
                            std::uint32_t tid,
                            std::initializer_list<Arg> args) {
  Event& e = push();
  e = Event{};
  e.name = name;
  e.cat = cat;
  e.ts = t;
  e.tid = tid;
  e.phase = Phase::kInstant;
  fill_args(e, args);
}

void TraceRecorder::counter(double t, const char* name, const char* cat,
                            double value) {
  Event& e = push();
  e = Event{};
  e.name = name;
  e.cat = cat;
  e.ts = t;
  e.phase = Phase::kCounter;
  e.argc = 1;
  e.args[0] = Arg{"value", value};
}

void TraceRecorder::complete_wall(const char* name, const char* cat,
                                  double start_us, double dur_us) {
  Event& e = push();
  e = Event{};
  e.name = name;
  e.cat = cat;
  e.ts = start_us;
  e.dur = dur_us;
  e.phase = Phase::kComplete;
  fill_args(e, {});
}

void TraceRecorder::merge_from(const TraceRecorder& other) {
  if (other.size_ == 0) return;
  if (ring_.size() != capacity_) ring_.assign(capacity_, Event{});
  // Span ids allocated by `other` restart at 1; shifting them past the ids
  // already allocated here keeps begin/end pairing intact and collision-free.
  const std::uint64_t id_base = spans_allocated();
  for (Event e : other.events()) {
    if ((e.phase == Phase::kBegin || e.phase == Phase::kEnd) && e.id != 0) {
      e.id += id_base;
    }
    push() = e;
  }
  next_span_ += other.spans_allocated();
}

double TraceRecorder::wall_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - wall_origin_)
      .count();
}

std::vector<Event> TraceRecorder::events() const {
  std::vector<Event> out;
  out.reserve(size_);
  if (size_ < ring_.size()) {
    out.assign(ring_.begin(), ring_.begin() + static_cast<long>(size_));
    return out;
  }
  // Full ring: oldest entry sits at head_.
  out.insert(out.end(), ring_.begin() + static_cast<long>(head_), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<long>(head_));
  return out;
}

void TraceRecorder::dump_jsonl(std::ostream& os) const {
  for (const Event& e : events()) {
    write_event(os, e);
    os << '\n';
  }
}

void TraceRecorder::dump_chrome(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Name the two clock domains so the viewer labels the tracks.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
        "{\"name\":\"sim-time\"}},\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":"
        "{\"name\":\"wall-clock\"}}";
  for (const Event& e : events()) {
    os << ",\n";
    write_event(os, e);
  }
  os << "\n]}\n";
}

bool TraceRecorder::dump_file(const std::string& path) const {
  std::ofstream out(path);
  if (out) {
    const bool chrome =
        path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
    if (chrome) {
      dump_chrome(out);
    } else {
      dump_jsonl(out);
    }
    out.close();  // flush now, so a failed write is seen below
  }
  if (!out) {
    std::fprintf(stderr, "qip: trace %s: could not write\n", path.c_str());
    return false;
  }
  if (overwritten_ > 0) {
    std::fprintf(stderr,
                 "qip: trace %s: ring wrapped; kept %zu events, dropped "
                 "%" PRIu64 " oldest (raise QIP_TRACE_BUF)\n",
                 path.c_str(), size_, overwritten_);
  }
  return true;
}

}  // namespace qip::obs
