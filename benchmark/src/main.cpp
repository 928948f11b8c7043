// qip-benchmark: runs one rep of one benchmark workload and prints one JSON
// line with its metrics, its simulated-statistics digest and the monotonic
// time of its first timed step.  run.py drives it; see README.md.
//
//   qip-benchmark --workload NAME --seed N [--instance I] [--scale F]
//                 [--trace-out PATH]
//
// --trace-out makes the rep a traced one: the program's trace recorder is
// enabled, every call into a layer is timed and the spans are written to
// PATH as Chrome trace_event JSON.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qip-benchmark: %s\nusage: qip-benchmark --workload NAME "
               "--seed N [--instance I] [--scale F] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  qipbench::RepOptions opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0' || val[0] == '-') usage("bad --seed");
      have_seed = true;
    } else if (arg == "--instance") {
      const unsigned long v = std::strtoul(val, &end, 10);
      if (end == val || *end != '\0' || val[0] == '-' || v > 1000)
        usage("bad --instance");
      opt.instance = static_cast<std::uint32_t>(v);
    } else if (arg == "--scale") {
      opt.scale = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(opt.scale > 0.0 && opt.scale <= 1.0))
        usage("--scale must be in (0, 1]");
    } else if (arg == "--trace-out") {
      opt.trace_path = val;
      opt.traced = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed)
    usage("--workload and --seed are required");

  qipbench::RepResult r;
  try {
    r = qipbench::run_rep(opt);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qip-benchmark: %s rep failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  std::string line = "{\"workload\":" + json_string(opt.workload);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                ",\"seed\":%" PRIu64 ",\"instance\":%u,\"traced\":%s,"
                "\"sim_digest\":\"%016" PRIx64 "\",\"timed_start_mono_s\":%.9f",
                opt.seed, opt.instance, opt.traced ? "true" : "false",
                r.sim_digest, r.timed_start_mono_s);
  line += buf;
  line += ",\"compiler\":" + json_string(QIP_BENCH_COMPILER);
  line += ",\"build_type\":" + json_string(QIP_BENCH_BUILD_TYPE);
  line += ",\"first_violation\":" + json_string(r.first_violation);
  line += ",\"first_discard\":" + json_string(r.first_discard);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const qipbench::Metric& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%s%s:{\"value\":%.17g,\"unit\":%s}",
                  i ? "," : "", json_string(m.name).c_str(), m.value,
                  json_string(m.unit).c_str());
    line += buf;
  }
  line += "}}";
  std::puts(line.c_str());
  return std::fflush(stdout) == 0 ? 0 : 1;
}
