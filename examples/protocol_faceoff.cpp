// Protocol face-off: runs all eight implemented autoconfiguration protocols
// (QIP and the seven baselines of §III, built by name in harness/protocols)
// through the same scenario and prints a side-by-side comparison — a
// one-binary tour of the design space the paper surveys.
//
// Pass `--trace-dir DIR` to additionally record one structured trace per
// protocol (DIR/faceoff_<name>.trace.json, Perfetto-loadable) and print the
// qip-trace summary for each run.  The summaries use sim-time only, so the
// extra output is as deterministic as the comparison table.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "harness/driver.hpp"
#include "harness/protocols.hpp"
#include "harness/seed.hpp"
#include "harness/world.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_recorder.hpp"
#include "obs/trace_session.hpp"
#include "util/table.hpp"

using namespace qip;

namespace {

std::uint64_t g_seed = 99;
std::string g_trace_dir;

struct Row {
  std::string name;
  double configured = 0.0;
  double latency = 0.0;
  double config_hops = 0.0;
  double upkeep_hops = 0.0;
  std::string trace_file;
  std::string trace_summary;
};

// "QIP (this paper)" -> "qip_this_paper", for use in a filename.
std::string slugify(const std::string& name) {
  std::string slug;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

// Strips `--trace-dir <dir>` from argv, mirroring obs::extract_trace_arg.
std::string extract_trace_dir(int& argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-dir") != 0) continue;
    std::string dir = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    return dir;
  }
  return "";
}

Row run_scenario(const std::string& name, const std::string& protocol) {
  obs::TraceSession trace;
  std::string trace_file;
  if (!g_trace_dir.empty()) {
    trace_file = g_trace_dir + "/faceoff_" + slugify(name) + ".trace.json";
    trace = obs::TraceSession(trace_file);
  }
  // Fresh metric values per protocol so ProfileScope histograms and exported
  // counters describe this run alone (handles stay valid across resets).
  obs::process_metrics().reset_values();
  WorldParams wp;
  wp.transmission_range = 150.0;
  World world(wp, g_seed);
  auto proto = make_protocol(protocol, world);

  DriverOptions dopt;
  dopt.arrival_interval = 0.8;  // give slow protocols (DAD) room
  Driver driver(world, *proto, dopt);

  constexpr std::uint32_t kNodes = 80;
  PhaseMeter meter(world.stats());
  driver.join(kNodes);
  world.run_for(3.0);
  Row row;
  row.name = name;
  row.configured = driver.configured_fraction();
  row.latency = driver.mean_config_latency();
  row.config_hops =
      static_cast<double>(meter.hops(Traffic::kConfiguration)) / kNodes;

  meter.reset();
  world.run_for(20.0);  // steady state: upkeep only
  row.upkeep_hops = static_cast<double>(meter.protocol_hops()) / kNodes;

  if (trace.active()) {
    // Summarize from the live ring before dumping: identical numbers to
    // `qip-trace summary <file>`, minus the nondeterministic wall section.
    const auto parsed = obs::to_parsed(obs::process_recorder().events());
    row.trace_summary =
        obs::render_summary(obs::summarize(parsed), /*include_wall=*/false);
    row.trace_file = trace_file;
    trace.dump();
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  g_trace_dir = extract_trace_dir(argc, argv);
  g_seed = resolve_seed(/*fallback=*/99, argc, argv);
  std::printf("80 nodes join a 1 km^2 field (tr=150m, 20 m/s), then 20 s of "
              "steady state.\n\n");
  const std::pair<const char*, const char*> entrants[] = {
      {"QIP (this paper)", "qip"}, {"MANETconf [1]", "manetconf"},
      {"Buddy [2]", "buddy"},      {"C-tree [3]", "ctree"},
      {"DAD [9]", "dad"},          {"WeakDAD [11]", "weakdad"},
      {"PDAD [14]", "pdad"},       {"Boleng [10]", "boleng"}};
  std::vector<Row> rows;
  for (const auto& [name, protocol] : entrants) {
    rows.push_back(run_scenario(name, protocol));
  }

  TextTable table({"protocol", "configured%", "latency (hops)",
                   "config hops/node", "upkeep hops/node/20s"});
  for (const Row& r : rows) {
    table.add_row({r.name, format_double(100.0 * r.configured, 1),
                   format_double(r.latency, 2), format_double(r.config_hops, 1),
                   format_double(r.upkeep_hops, 1)});
  }
  std::printf("%s", table.render().c_str());

  if (!g_trace_dir.empty()) {
    for (const Row& r : rows) {
      std::printf("\n=== %s (trace: %s) ===\n%s", r.name.c_str(),
                  r.trace_file.c_str(), r.trace_summary.c_str());
    }
  }
  return 0;
}
