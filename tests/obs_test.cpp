// Observability suite (ctest -L obs).
//
// Covers the three halves of the subsystem and the guarantees they make:
//
//   * TraceRecorder / exporters — ring semantics, JSONL and Chrome output
//     that read_trace() parses back losslessly, and the file/session glue.
//   * MetricsRegistry — stable handles, label canonicalization, histogram
//     math, and MessageStats::export_to convergence.
//   * Instrumentation correctness — a deterministic two-cluster QIP bringup
//     whose span tree (config_txn ⊃ quorum_round, tied by txn id) must hold
//     exactly; fault drop reasons reconciling with FaultInjector stats; and
//     the ReliableChannel accounting rule (only routed retransmissions/acks
//     reach MessageStats) that fixed the double-count at the channel/
//     transport boundary.
//
// Tracing is global state: every test that enables it disables and clears
// on exit so the suite leaves the recorder as it found it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/qip_engine.hpp"
#include "fault/fault_plan.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"
#include "net/reliable_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_recorder.hpp"
#include "obs/trace_session.hpp"

namespace qip {
namespace {

/// Enables a clean recorder for one test and restores the disabled state.
class RecorderScope {
 public:
  RecorderScope() {
    auto& rec = obs::process_recorder();
    rec.enable();
    rec.clear();
  }
  ~RecorderScope() {
    auto& rec = obs::process_recorder();
    rec.disable();
    rec.clear();
  }
  obs::TraceRecorder& rec() { return obs::process_recorder(); }
};

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceRecorder, RecordsInstantsSpansAndCounters) {
  RecorderScope scope;
  auto& rec = scope.rec();

  rec.instant(1.0, "unicast", "net", 7,
              {{"traffic", "configuration"}, {"hops", std::uint32_t{3}}});
  const auto id = rec.begin_span(1.5, "config_txn", "qip", 7,
                                 {{"txn", std::uint64_t{42}}});
  rec.end_span(2.5, id, "config_txn", "qip", 7, {{"outcome", "committed"}});
  rec.counter(3.0, "event_queue_depth", "sim", 17.0);

  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].name, "unicast");
  EXPECT_EQ(events[0].phase, obs::Phase::kInstant);
  EXPECT_EQ(events[0].tid, 7u);
  ASSERT_EQ(events[0].argc, 2u);
  EXPECT_STREQ(events[0].args[0].s, "configuration");
  EXPECT_EQ(events[0].args[1].i, 3);

  EXPECT_EQ(events[1].phase, obs::Phase::kBegin);
  EXPECT_EQ(events[2].phase, obs::Phase::kEnd);
  EXPECT_NE(events[1].id, 0u);
  EXPECT_EQ(events[1].id, events[2].id);

  EXPECT_EQ(events[3].phase, obs::Phase::kCounter);
  EXPECT_EQ(events[3].args[0].d, 17.0);
}

TEST(TraceRecorder, DisabledRecorderKeepsNothing) {
  auto& rec = obs::process_recorder();
  ASSERT_FALSE(rec.enabled());
  EXPECT_FALSE(obs::tracing_on());
  // Instrumentation sites all guard on tracing_on(); a direct call while
  // disabled must still be harmless (clear() keeps the ring empty).
  rec.clear();
  EXPECT_EQ(rec.events().size(), 0u);
}

TEST(TraceRecorder, RingWrapsOldestFirst) {
  auto& rec = obs::process_recorder();
  const std::size_t old_capacity = rec.capacity();
  rec.set_capacity(8);
  {
    RecorderScope scope;  // enable() after set_capacity applies the new size
    for (int i = 0; i < 20; ++i) {
      rec.instant(static_cast<double>(i), "tick", "test", 0);
    }
    EXPECT_EQ(rec.size(), 8u);
    EXPECT_EQ(rec.overwritten(), 12u);
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].ts, static_cast<double>(12 + i)) << i;
    }
  }
  rec.set_capacity(old_capacity);
  rec.clear();
}

// ---------------------------------------------------------------------------
// Exporters and read_trace
// ---------------------------------------------------------------------------

/// One of each phase, with both numeric and string args.
void record_sample_events(obs::TraceRecorder& rec) {
  rec.instant(0.5, "unicast", "net", 3,
              {{"traffic", "movement"}, {"hops", std::uint32_t{2}}});
  const auto id =
      rec.begin_span(1.0, "config_txn", "qip", 9, {{"txn", std::uint64_t{5}}});
  rec.end_span(1.25, id, "config_txn", "qip", 9, {{"outcome", "committed"}});
  rec.counter(2.0, "event_queue_depth", "sim", 11.0);
  rec.complete_wall("topo_csr_rebuild", "profile", 100.0, 42.5);
}

void expect_sample_roundtrip(const std::vector<obs::ParsedEvent>& parsed) {
  ASSERT_EQ(parsed.size(), 5u);

  EXPECT_EQ(parsed[0].name, "unicast");
  EXPECT_EQ(parsed[0].ph, 'i');
  EXPECT_EQ(parsed[0].pid, 1u);
  EXPECT_EQ(parsed[0].tid, 3u);
  EXPECT_DOUBLE_EQ(parsed[0].ts, 0.5e6);  // sim seconds -> µs
  EXPECT_EQ(parsed[0].str_args.at("traffic"), "movement");
  EXPECT_DOUBLE_EQ(parsed[0].num_args.at("hops"), 2.0);

  EXPECT_EQ(parsed[1].ph, 'b');
  EXPECT_EQ(parsed[2].ph, 'e');
  EXPECT_EQ(parsed[1].id, parsed[2].id);
  EXPECT_EQ(parsed[2].str_args.at("outcome"), "committed");

  EXPECT_EQ(parsed[3].ph, 'C');
  EXPECT_DOUBLE_EQ(parsed[3].num_args.at("value"), 11.0);

  EXPECT_EQ(parsed[4].ph, 'X');
  EXPECT_EQ(parsed[4].pid, 2u);  // wall-clock process
  EXPECT_DOUBLE_EQ(parsed[4].ts, 100.0);
  EXPECT_DOUBLE_EQ(parsed[4].dur, 42.5);
}

TEST(TraceExport, JsonlRoundtrip) {
  RecorderScope scope;
  record_sample_events(scope.rec());
  std::ostringstream os;
  scope.rec().dump_jsonl(os);

  std::istringstream is(os.str());
  std::string error;
  const auto parsed = obs::read_trace(is, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  expect_sample_roundtrip(*parsed);
}

TEST(TraceExport, ChromeRoundtrip) {
  RecorderScope scope;
  record_sample_events(scope.rec());
  std::ostringstream os;
  scope.rec().dump_chrome(os);
  // Perfetto-loadable shape: one top-level object wrapping traceEvents.
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(os.str().find("\"displayTimeUnit\""), std::string::npos);

  std::istringstream is(os.str());
  std::string error;
  const auto parsed = obs::read_trace(is, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  expect_sample_roundtrip(*parsed);  // ph "M" metadata rows are skipped
}

TEST(TraceExport, InMemoryParseMatchesFileParse) {
  RecorderScope scope;
  record_sample_events(scope.rec());
  expect_sample_roundtrip(obs::to_parsed(scope.rec().events()));
}

TEST(TraceExport, MalformedInputReportsErrors) {
  {
    std::istringstream is("{\"traceEvents\": oops}");
    std::string error;
    EXPECT_FALSE(obs::read_trace(is, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
  {
    std::istringstream is(
        "{\"name\":\"ok\",\"ph\":\"i\",\"ts\":1}\nnot json at all\n");
    std::string error;
    EXPECT_FALSE(obs::read_trace(is, &error).has_value());
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  }
}

TEST(TraceSession, ExtractsTraceFlagAndWritesFile) {
  const char* raw[] = {"prog", "--nodes", "12", "--trace", "out.json",
                       "--quiet"};
  char* argv[6];
  for (int i = 0; i < 6; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 6;
  EXPECT_EQ(obs::extract_trace_arg(argc, argv), "out.json");
  ASSERT_EQ(argc, 4);
  EXPECT_STREQ(argv[3], "--quiet");  // later args shifted down
  EXPECT_EQ(obs::extract_trace_arg(argc, argv), "");

  const std::string path = ::testing::TempDir() + "obs_session_test.json";
  {
    obs::TraceSession session(path);
    ASSERT_TRUE(session.active());
    ASSERT_TRUE(obs::tracing_on());
    obs::process_recorder().instant(1.0, "mark", "test", 1);
    EXPECT_TRUE(session.dump());
    EXPECT_FALSE(obs::tracing_on());  // dump() restores the disabled state
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string error;
  const auto parsed = obs::read_trace(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].name, "mark");
  std::remove(path.c_str());
}

// A ring that wrapped lost its oldest events: the dump says so on stderr,
// naming the file, what it kept and what it dropped, instead of leaving a
// silently truncated trace.  A dump that kept everything stays quiet.
TEST(TraceSession, WrappedRingReportsDroppedEventsOnStderr) {
  obs::TraceRecorder rec;
  rec.set_capacity(64);
  const std::string path = ::testing::TempDir() + "obs_session_wrap.jsonl";

  ::testing::internal::CaptureStderr();
  {
    obs::TraceSession session(path, &rec);
    for (int i = 0; i < 64; ++i) rec.instant(i, "mark", "test", 1);
  }
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  ::testing::internal::CaptureStderr();
  {
    obs::TraceSession session(path, &rec);
    for (int i = 0; i < 100; ++i) rec.instant(i, "mark", "test", 1);
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("qip: trace " + path), std::string::npos) << err;
  EXPECT_NE(err.find("kept 64 events"), std::string::npos) << err;
  EXPECT_NE(err.find("dropped 36 oldest"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(TraceSession, UnwritablePathReportsOnStderr) {
  obs::TraceRecorder rec;
  const std::string path = ::testing::TempDir() + "no_such_dir/trace.json";
  ::testing::internal::CaptureStderr();
  obs::TraceSession session(path, &rec);
  rec.instant(1.0, "mark", "test", 1);
  EXPECT_FALSE(session.dump());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("qip: trace " + path + ": could not write"),
            std::string::npos)
      << err;
}

// QIP_TRACE_BUF is read once, on the process recorder's first use, so each
// value is checked in a freshly exec'd child (threadsafe death tests).
TEST(TraceRecorderEnvDeathTest, MalformedTraceBufExitsTwo) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* bad : {"64k", "-5", "0"}) {
    ::setenv("QIP_TRACE_BUF", bad, 1);
    EXPECT_EXIT(obs::process_recorder(), ::testing::ExitedWithCode(2),
                "invalid QIP_TRACE_BUF");
  }
  ::unsetenv("QIP_TRACE_BUF");
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

TEST(TraceSummary, AggregatesMixSpansAndReliability) {
  RecorderScope scope;
  auto& rec = scope.rec();

  for (int i = 0; i < 3; ++i) {
    rec.instant(0.1 * i, "unicast", "net", 1,
                {{"traffic", "configuration"}, {"hops", std::uint32_t{2}}});
  }
  // Aggregate event: one instant standing for 5 hello beacons.
  rec.instant(0.5, "hello", "net", 0,
              {{"traffic", "hello"},
               {"hops", std::uint64_t{5}},
               {"count", std::uint64_t{5}}});
  // Four spans of 10/20/30/40 ms and one left open.
  for (int i = 1; i <= 4; ++i) {
    const auto id = rec.begin_span(1.0, "quorum_round", "qip", 1);
    rec.end_span(1.0 + 0.010 * i, id, "quorum_round", "qip", 1);
  }
  rec.begin_span(2.0, "quorum_round", "qip", 1);
  rec.instant(3.0, "drop", "net.drop", 4, {{"reason", "loss"}});
  rec.instant(3.0, "drop", "net.drop", 4, {{"reason", "outage"}});
  rec.instant(3.1, "retransmit", "rpc", 1, {{"to", std::uint32_t{4}}});
  rec.instant(3.2, "ack", "rpc", 4, {{"to", std::uint32_t{1}}});
  rec.instant(3.3, "give_up", "rpc", 1, {{"to", std::uint32_t{4}}});

  const auto s = obs::summarize(obs::to_parsed(rec.events()));

  ASSERT_FALSE(s.messages.empty());
  // Sorted by count descending: the 5-beacon aggregate outranks 3 unicasts.
  EXPECT_EQ(s.messages[0].name, "hello");
  EXPECT_EQ(s.messages[0].count, 5u);
  EXPECT_EQ(s.messages[0].hops, 5u);
  EXPECT_EQ(s.messages[1].name, "unicast");
  EXPECT_EQ(s.messages[1].cat, "configuration");
  EXPECT_EQ(s.messages[1].count, 3u);
  EXPECT_EQ(s.messages[1].hops, 6u);

  ASSERT_EQ(s.spans.size(), 1u);
  EXPECT_EQ(s.spans[0].count, 4u);
  EXPECT_EQ(s.spans[0].unmatched, 1u);
  EXPECT_DOUBLE_EQ(s.spans[0].p50, 20.0);
  EXPECT_DOUBLE_EQ(s.spans[0].max, 40.0);

  EXPECT_EQ(s.drops.at("loss"), 1u);
  EXPECT_EQ(s.drops.at("outage"), 1u);
  EXPECT_EQ(s.retransmissions, 1u);
  EXPECT_EQ(s.acks, 1u);
  EXPECT_EQ(s.give_ups, 1u);

  const std::string text = obs::render_summary(s, /*include_wall=*/false);
  EXPECT_NE(text.find("message mix"), std::string::npos);
  EXPECT_NE(text.find("quorum_round"), std::string::npos);
  EXPECT_EQ(text.find("wall-clock"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Metrics, HandlesAreStableAndLabelsCanonical) {
  obs::MetricsRegistry reg;
  auto& a = reg.counter("qip_test_total", {{"traffic", "hello"}});
  a.inc(3.0);
  // Same series regardless of label order; different labels, different series.
  auto& b = reg.counter("qip_test_total", {{"traffic", "hello"}});
  EXPECT_EQ(&a, &b);
  auto& c = reg.counter("qip_test_total", {{"traffic", "movement"}});
  EXPECT_NE(&a, &c);
  auto& two1 = reg.counter("multi", {{"x", "1"}, {"y", "2"}});
  auto& two2 = reg.counter("multi", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&two1, &two2);

  EXPECT_EQ(a.value(), 3.0);
  reg.reset_values();
  EXPECT_EQ(a.value(), 0.0);  // handle survives, value zeroed
  a.inc();
  EXPECT_EQ(reg.counter("qip_test_total", {{"traffic", "hello"}}).value(),
            1.0);
}

TEST(Metrics, HistogramQuantilesAndRender) {
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("span_ms", {}, {1.0, 10.0, 100.0, 1000.0});
  for (double v : {0.5, 5.0, 5.0, 50.0, 500.0, 5000.0}) h.observe(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 5560.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 5000.0);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
  EXPECT_GT(h.quantile(0.99), 100.0);

  reg.gauge("depth").set(4.0);
  const std::string text = reg.render_text();
  EXPECT_NE(text.find("span_ms_count 6"), std::string::npos) << text;
  EXPECT_NE(text.find("depth 4"), std::string::npos) << text;

  const auto lat = obs::latency_buckets_s();
  const auto dur = obs::duration_buckets_us();
  for (std::size_t i = 1; i < lat.size(); ++i) EXPECT_GT(lat[i], lat[i - 1]);
  for (std::size_t i = 1; i < dur.size(); ++i) EXPECT_GT(dur[i], dur[i - 1]);
}

TEST(Metrics, ProfileHandlesInternBySiteAddress) {
  obs::MetricsRegistry reg;
  static const char* kSite = "topo_rebuild";
  auto& h1 = reg.profile_histogram(kSite);
  const std::uint64_t warm = reg.map_lookups();
  // Steady state: same handle back, and ZERO string-keyed map walks — the
  // ProfileScope exit path must stay O(1) per observation.
  for (int i = 0; i < 1000; ++i) {
    auto& h = reg.profile_histogram(kSite);
    EXPECT_EQ(&h, &h1);
    h.observe(static_cast<double>(i));
  }
  EXPECT_EQ(reg.map_lookups(), warm);
  EXPECT_EQ(h1.count(), 1000u);

  // The interned series is the ordinary profile_us{site=...} series: the
  // string-keyed accessor resolves to the same histogram.
  auto& via_map =
      reg.histogram("profile_us", {{"site", kSite}}, obs::duration_buckets_us());
  EXPECT_EQ(&via_map, &h1);
  EXPECT_GT(reg.map_lookups(), warm);  // ...and that slow path was counted

  // A different site literal interns a distinct series.
  static const char* kOther = "transport_flood";
  EXPECT_NE(&reg.profile_histogram(kOther), &h1);
}

TEST(Metrics, MessageStatsExportConverges) {
  obs::MetricsRegistry reg;
  MessageStats stats;
  stats.record(Traffic::kConfiguration, /*hops=*/7, /*messages=*/2);
  stats.record(Traffic::kHello, 5, 5);
  stats.note_retransmission();
  stats.note_ack();
  stats.note_dropped_in_flight();

  stats.export_to(reg);
  stats.export_to(reg);  // snapshot semantics: repeated export, same values
  EXPECT_EQ(
      reg.counter("qip_messages_total", {{"traffic", "configuration"}}).value(),
      2.0);
  EXPECT_EQ(reg.counter("qip_hops_total", {{"traffic", "configuration"}})
                .value(),
            7.0);
  EXPECT_EQ(reg.counter("qip_messages_total", {{"traffic", "hello"}}).value(),
            5.0);
  EXPECT_EQ(reg.counter("qip_retransmissions_total").value(), 1.0);
  EXPECT_EQ(reg.counter("qip_acks_total").value(), 1.0);
  EXPECT_EQ(reg.counter("qip_dropped_in_flight_total").value(), 1.0);
}

// ---------------------------------------------------------------------------
// Instrumentation: deterministic two-cluster QIP scenario
// ---------------------------------------------------------------------------

struct TwoClusterRun {
  std::map<NodeId, IpAddress> addresses;
  std::uint64_t total_hops = 0;
  double configured = 0.0;
  std::size_t heads = 0;
  std::vector<obs::Event> events;  ///< empty when run untraced
};

/// Choreographed bringup of one network with two clusters: a west head, a
/// relay, then an east group too far from the west head — its first member
/// runs the CH handshake and becomes the second head, after which the two
/// heads form a QDSet and later allocations go through real quorum rounds.
/// No mobility: every message exchange is a pure function of the seed.
TwoClusterRun two_cluster_scenario(bool traced) {
  auto& rec = obs::process_recorder();
  if (traced) {
    rec.enable();
    rec.clear();
  }
  WorldParams wp;
  wp.transmission_range = 150.0;
  World world(wp, /*seed=*/7);
  QipParams qp;
  qp.pool_size = 512;
  QipEngine proto(world.transport(), world.rng(), qp);
  proto.start_hello();
  DriverOptions dopt;
  dopt.mobility = false;
  Driver driver(world, proto, dopt);

  driver.join_at({150, 500});  // west head (bootstraps the network)
  world.run_for(4.0);
  driver.join_at({270, 500});  // common node under the west head; relay
  world.run_for(4.0);
  driver.join_at({390, 500});  // out of the west head's range: east head
  world.run_for(4.0);
  driver.join_at({510, 500});  // common under the east head
  driver.join_at({450, 430});  // common under the east head
  driver.join_at({210, 430});  // common under the west head
  world.run_for(10.0);

  TwoClusterRun r;
  r.addresses = proto.configured_addresses();
  r.total_hops = world.stats().total_hops();
  r.configured = driver.configured_fraction();
  r.heads = proto.clusters().head_count();
  if (traced) {
    r.events = rec.events();
    rec.disable();
    rec.clear();
  }
  return r;
}

/// Canonical sim-time view for cross-run comparison: wall-clock sections are
/// excluded (real microseconds differ per run) and span ids are renumbered
/// by first appearance (the global recorder's id sequence is not reset
/// between runs).
std::vector<std::string> canonical_sim_events(
    const std::vector<obs::ParsedEvent>& parsed) {
  std::map<std::uint64_t, std::uint64_t> id_map;
  std::vector<std::string> out;
  for (const auto& e : parsed) {
    if (e.pid != 1) continue;
    std::uint64_t id = 0;
    if (e.ph == 'b' || e.ph == 'e') {
      id = id_map.emplace(e.id, id_map.size() + 1).first->second;
    }
    std::ostringstream os;
    os << e.ph << ' ' << e.name << ' ' << e.cat << ' ' << e.ts << " tid="
       << e.tid << " id=" << id;
    for (const auto& [k, v] : e.num_args) os << ' ' << k << '=' << v;
    for (const auto& [k, v] : e.str_args) os << ' ' << k << '=' << v;
    out.push_back(os.str());
  }
  return out;
}

TEST(QipTrace, TwoClusterSpanTreeIsExact) {
  const TwoClusterRun run = two_cluster_scenario(/*traced=*/true);
  ASSERT_EQ(run.configured, 1.0);
  ASSERT_EQ(run.heads, 2u);
  const auto parsed = obs::to_parsed(run.events);

  struct Span {
    double begin = -1.0;
    double end = -1.0;
    std::uint64_t txn = 0;
    std::string outcome;
  };
  std::map<std::uint64_t, Span> txn_spans;    // by span id
  std::map<std::uint64_t, Span> round_spans;  // by span id
  std::map<std::uint64_t, std::pair<double, double>> txn_window;  // by txn arg
  int head_elected_first = 0, head_elected_later = 0;
  std::uint64_t wall_sections = 0, votes = 0;

  for (const auto& e : parsed) {
    if (e.ph == 'X') {
      EXPECT_EQ(e.pid, 2u);
      ++wall_sections;
    }
    if (e.ph == 'i' && e.name == "head_elected") {
      EXPECT_EQ(e.cat, "cluster");
      (e.num_args.at("first") == 1.0 ? head_elected_first
                                     : head_elected_later)++;
    }
    if (e.ph == 'i' && e.name == "vote") {
      EXPECT_EQ(e.cat, "quorum");
      const std::string v = e.str_args.at("vote");
      EXPECT_TRUE(v == "grant" || v == "busy" || v == "conflict") << v;
      ++votes;
    }
    if (e.ph != 'b' && e.ph != 'e') continue;
    auto* spans = e.name == "config_txn"     ? &txn_spans
                  : e.name == "quorum_round" ? &round_spans
                                             : nullptr;
    ASSERT_NE(spans, nullptr) << "unexpected span " << e.name;
    Span& s = (*spans)[e.id];
    if (e.ph == 'b') {
      s.begin = e.ts;
      s.txn = static_cast<std::uint64_t>(e.num_args.at("txn"));
    } else {
      s.end = e.ts;
      if (auto o = e.str_args.find("outcome"); o != e.str_args.end()) {
        s.outcome = o->second;
      }
      if (auto r = e.str_args.find("result"); r != e.str_args.end()) {
        s.outcome = r->second;
      }
    }
  }

  // Every span opened exactly once and closed exactly once.
  ASSERT_FALSE(txn_spans.empty());
  ASSERT_FALSE(round_spans.empty());
  std::uint64_t committed = 0;
  for (const auto& [id, s] : txn_spans) {
    ASSERT_GE(s.begin, 0.0) << "config_txn end without begin";
    ASSERT_GE(s.end, s.begin) << "config_txn begin without end";
    EXPECT_TRUE(s.outcome == "committed" || s.outcome == "failed" ||
                s.outcome == "handover_failed" || s.outcome == "handoff")
        << s.outcome;
    if (s.outcome == "committed") ++committed;
    auto [it, fresh] = txn_window.emplace(
        s.txn, std::make_pair(s.begin, s.end));
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.begin);
      it->second.second = std::max(it->second.second, s.end);
    }
  }
  // A committed transaction per node that was allocated an address: all six
  // minus the bootstrap head, which created the network without one.
  EXPECT_EQ(committed, run.addresses.size() - 1);
  EXPECT_EQ(head_elected_first, 1);   // exactly one network founder
  EXPECT_GE(head_elected_later, 1);   // the east head, via the CH handshake
  EXPECT_GT(votes, 0u);               // two-head QDSet: real quorum voting

  // The span tree: every quorum_round nests inside the config_txn that
  // shares its txn id — child spans never leak outside their parent.
  for (const auto& [id, s] : round_spans) {
    ASSERT_GE(s.begin, 0.0);
    ASSERT_GE(s.end, s.begin);
    EXPECT_TRUE(s.outcome == "quorum" || s.outcome == "conflict" ||
                s.outcome == "busy" || s.outcome == "abort")
        << s.outcome;
    auto parent = txn_window.find(s.txn);
    ASSERT_NE(parent, txn_window.end())
        << "quorum_round with no config_txn parent (txn " << s.txn << ")";
    EXPECT_GE(s.begin, parent->second.first);
    EXPECT_LE(s.end, parent->second.second);
  }

  // Wall-clock profile sections (topology-cache rebuilds) ride along on
  // their own track; queue-depth sampling needs a busier run and is asserted
  // in FaultTrace below.
  EXPECT_GT(wall_sections, 0u);
}

TEST(QipTrace, TracedRunsAreDeterministicAndUnperturbed) {
  const TwoClusterRun a = two_cluster_scenario(/*traced=*/true);
  const TwoClusterRun b = two_cluster_scenario(/*traced=*/true);
  EXPECT_EQ(canonical_sim_events(obs::to_parsed(a.events)),
            canonical_sim_events(obs::to_parsed(b.events)));

  // Tracing must not perturb the simulation: the untraced run reaches the
  // same outcome, address for address and hop for hop.
  const TwoClusterRun off = two_cluster_scenario(/*traced=*/false);
  EXPECT_EQ(off.addresses, a.addresses);
  EXPECT_EQ(off.total_hops, a.total_hops);
  EXPECT_EQ(off.heads, a.heads);
}

// ---------------------------------------------------------------------------
// Faults in the trace
// ---------------------------------------------------------------------------

TEST(FaultTrace, DropReasonsReconcileWithInjectorStats) {
  RecorderScope scope;
  World world({}, /*seed=*/901);
  FaultPlan plan;
  plan.drop = 0.15;
  plan.duplicate = 0.05;
  world.enable_faults(plan);
  QipParams qp;
  qp.heal_on_conflict_evidence = true;
  QipEngine proto(world.transport(), world.rng(), qp);
  proto.start_hello();
  Driver driver(world, proto);
  driver.join(25);
  world.run_for(8.0);

  const auto parsed = obs::to_parsed(scope.rec().events());
  std::uint64_t loss = 0, dup = 0, counter_samples = 0;
  for (const auto& e : parsed) {
    if (e.ph == 'C' && e.name == "event_queue_depth") ++counter_samples;
    if (e.cat != "net.drop") continue;
    if (e.name == "dup") {
      ++dup;
    } else if (e.str_args.at("reason") == "loss") {
      ++loss;
    }
  }
  EXPECT_GT(counter_samples, 0u);  // a 25-node run executes >> 128 events
  const FaultStats& fs = world.faults()->stats();
  EXPECT_GT(fs.dropped, 0u);
  EXPECT_EQ(loss, fs.dropped);
  EXPECT_EQ(dup, fs.duplicated);

  const auto s = obs::summarize(parsed);
  EXPECT_EQ(s.drops.at("loss"), fs.dropped);
  EXPECT_EQ(s.retransmissions, world.stats().retransmissions());
  EXPECT_EQ(s.acks, world.stats().acks());
  EXPECT_GT(s.retransmissions, 0u);
}

// ---------------------------------------------------------------------------
// ReliableChannel accounting (regression: the breakout counters used to
// tally attempts before the transport routed them, so unroutable
// retransmissions inflated MessageStats past the per-Traffic charges)
// ---------------------------------------------------------------------------

TEST(ReliableAccounting, OnlyRoutedAttemptsReachMessageStats) {
  World world({}, /*seed=*/31);
  FaultPlan plan;
  plan.drop = 1.0;  // every delivery lost: the channel retries to the cap
  world.enable_faults(plan);
  world.topology().add_node(1, {100, 100});
  world.topology().add_node(2, {150, 100});

  ReliableChannel channel(world.transport());
  ASSERT_TRUE(channel.active());
  bool delivered = false;
  const auto hops =
      channel.send(1, 2, Traffic::kConfiguration,
                   [&](NodeId, std::uint32_t) { delivered = true; });
  ASSERT_TRUE(hops.has_value());

  // First retry fires at 0.08 s with the destination still routable...
  world.run_for(0.1);
  const std::uint64_t routed = world.stats().retransmissions();
  EXPECT_GT(routed, 0u);

  // ...then the destination vanishes mid-retry: the channel keeps burning
  // its retry budget (transient outages deserve the attempts) but none of
  // those unroutable sends may reach MessageStats.
  world.topology().remove_node(2);
  world.run_for(10.0);
  EXPECT_EQ(channel.gave_up(), 1u);
  EXPECT_FALSE(delivered);
  EXPECT_GT(channel.retransmissions(), world.stats().retransmissions());
  EXPECT_EQ(world.stats().retransmissions(), routed);

  // The reconciliation the fix restores: every configuration message charged
  // at send time is the first attempt plus exactly the routed
  // retransmissions — no acks ever flowed (nothing was delivered).
  EXPECT_EQ(world.stats().of(Traffic::kConfiguration).messages,
            1 + world.stats().retransmissions());
  EXPECT_EQ(world.stats().acks(), 0u);
}

// ---------------------------------------------------------------------------
// SimContext isolation (the de-globalization contract; the parallel half —
// interleaved worlds, replica merge order — lives in
// tests/parallel_runner_test.cpp.  See docs/PARALLELISM.md.)
// ---------------------------------------------------------------------------

TEST(SimContextIsolation, ContextBoundWorldBypassesProcessObservability) {
  RecorderScope scope;  // process recorder enabled and empty: leaks would land
  const std::string process_metrics_before =
      obs::process_metrics().render_text();

  SimContext ctx;
  ctx.recorder().enable();
  {
    World world({}, /*seed=*/77, ctx);
    QipEngine proto(world.transport(), world.rng(), QipParams{});
    proto.start_hello();
    Driver driver(world, proto);
    driver.join(15);
    world.run_for(3.0);
    world.stats().export_to(ctx.metrics());
  }

  // Everything the run did landed in the context...
  EXPECT_GT(ctx.recorder().size(), 0u);
  EXPECT_NE(ctx.metrics().render_text().find("qip_messages_total"),
            std::string::npos);
  // ...and nothing reached the process-wide recorder or registry, even with
  // process tracing switched on.
  EXPECT_EQ(scope.rec().size(), 0u);
  EXPECT_EQ(obs::process_metrics().render_text(), process_metrics_before);
}

TEST(SimContextIsolation, ProcessContextWorldStillFeedsProcessRecorder) {
  RecorderScope scope;
  SimContext bystander;
  bystander.recorder().enable();

  World world({}, /*seed=*/42);  // compatibility path: process context
  QipEngine proto(world.transport(), world.rng(), QipParams{});
  proto.start_hello();
  Driver driver(world, proto);
  driver.join(10);
  world.run_for(2.0);

  EXPECT_TRUE(world.ctx().is_process_context());
  EXPECT_GT(scope.rec().size(), 0u);
  EXPECT_EQ(bystander.recorder().size(), 0u);
}

}  // namespace
}  // namespace qip
