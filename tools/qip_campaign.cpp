// qip-campaign — fault-tolerant parameter-grid campaign runner.
//
//   qip-campaign [--protocols a,b,...] [--nodes N,N,...] [--ranges M,M,...]
//                [--speed M/S] [--duration SECS] [--churn N] [--abrupt R]
//                [--seeds R] [--base-seed S]
//                [--out DIR] [--resume] [--jobs N] [--retries N]
//                [--deadline-ms N] [--backoff-ms N] [--quiet]
//
// Expands the (protocol × nodes × range × seed) grid into independent cells
// and fans them across worker processes, journaling every state change to
// DIR/journal.txt so a killed campaign picks up with --resume, re-running
// only incomplete cells.  Writes DIR/report.txt, DIR/BENCH_campaign.json and
// one result artifact per cell under DIR/cells/; failed attempts leave
// cell_<idx>.attempt<k>.log post-mortems there.  The report is a pure
// function of the cell results, so an interrupted-then-resumed campaign
// reproduces it byte for byte (tools/check_resume_invariance.cmake).
//
// Environment: QIP_CAMPAIGN_JOBS, QIP_CAMPAIGN_RETRIES,
// QIP_CAMPAIGN_DEADLINE_MS, QIP_CAMPAIGN_BACKOFF_MS overlay the defaults
// (flags beat env); QIP_CAMPAIGN_INJECT injects deterministic faults (test
// hook; see campaign/inject.hpp).  All parse strictly: malformed → exit 2.
//
// Exit status: 0 every cell done; 1 some cells exhausted their retry budget
// (the report marks them); 2 usage or setup error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "util/env.hpp"

using namespace qip;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--protocols qip,manetconf,...] [--nodes N,N,...]\n"
      "          [--ranges M,M,...] [--speed M/S] [--duration SECS]\n"
      "          [--churn N] [--abrupt RATIO] [--seeds R] [--base-seed S]\n"
      "          [--out DIR] [--resume] [--jobs N] [--retries N]\n"
      "          [--deadline-ms N] [--backoff-ms N] [--quiet]\n",
      argv0);
  std::exit(2);
}

std::vector<std::string> split_list(const char* what, const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (item.empty()) {
      std::fprintf(stderr, "%s: empty list element in '%s'\n", what,
                   text.c_str());
      std::exit(2);
    }
    out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  CampaignOptions options = campaign_options_from_env();
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--protocols") {
      spec.protocols = split_list("--protocols", value());
    } else if (arg == "--nodes") {
      spec.nodes.clear();
      for (const std::string& n : split_list("--nodes", value())) {
        spec.nodes.push_back(parse_positive_u32("--nodes", n.c_str()));
      }
    } else if (arg == "--ranges") {
      spec.ranges.clear();
      for (const std::string& r : split_list("--ranges", value())) {
        spec.ranges.push_back(parse_double("--ranges", r.c_str()));
      }
    } else if (arg == "--speed") {
      spec.speed = parse_double("--speed", value());
    } else if (arg == "--duration") {
      spec.duration = parse_double("--duration", value());
    } else if (arg == "--churn") {
      spec.churn = parse_u32("--churn", value());
    } else if (arg == "--abrupt") {
      spec.abrupt = parse_double("--abrupt", value());
    } else if (arg == "--seeds") {
      spec.seeds = parse_positive_u32("--seeds", value());
    } else if (arg == "--base-seed") {
      spec.base_seed = parse_u64("--base-seed", value());
    } else if (arg == "--out") {
      options.out_dir = value();
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--jobs") {
      options.jobs = parse_positive_u32("--jobs", value());
    } else if (arg == "--retries") {
      options.retries = parse_u32("--retries", value());
    } else if (arg == "--deadline-ms") {
      options.deadline_ms = parse_u32("--deadline-ms", value());
    } else if (arg == "--backoff-ms") {
      options.backoff_ms = parse_u32("--backoff-ms", value());
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }

  std::string err;
  if (!spec.validate(&err)) {
    std::fprintf(stderr, "qip-campaign: %s\n", err.c_str());
    return 2;
  }
  if (!quiet) {
    std::fprintf(stderr,
                 "qip-campaign: %zu cells, %u jobs, %u retries, %u ms "
                 "deadline%s → %s\n",
                 spec.cell_count(), options.jobs, options.retries,
                 options.deadline_ms, options.resume ? " (resume)" : "",
                 options.out_dir.c_str());
  }

  CampaignRunner runner(spec, options, inject_plan_from_env());
  CampaignOutcome outcome;
  if (!runner.run(&outcome, &err)) {
    std::fprintf(stderr, "qip-campaign: %s\n", err.c_str());
    return 2;
  }
  if (!write_campaign_artifacts(spec, outcome, options.out_dir, &err)) {
    std::fprintf(stderr, "qip-campaign: %s\n", err.c_str());
    return 2;
  }
  const std::string report = render_campaign_report(spec, outcome);
  std::fputs(report.c_str(), stdout);
  if (!quiet) {
    std::fprintf(stderr, "qip-campaign: wrote %s/report.txt and "
                 "%s/BENCH_campaign.json\n",
                 options.out_dir.c_str(), options.out_dir.c_str());
  }
  return outcome.complete() ? 0 : 1;
}
