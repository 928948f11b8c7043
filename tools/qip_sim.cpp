// qip-sim — command-line scenario runner for every protocol in the library.
//
//   qip-sim [--protocol qip|manetconf|buddy|ctree|dad|weakdad|pdad|boleng]
//           [--nodes N] [--range M] [--speed M/S] [--seed S]
//           [--duration SECS] [--churn N] [--abrupt RATIO]
//           [--pool N] [--csv FILE] [--trace FILE] [--quiet]
//           [--rounds R] [--jobs N]
//
// Joins N nodes sequentially, applies the requested churn (departures +
// replacement arrivals), lets the network roam for the duration, and prints
// a summary plus (optionally) a per-node CSV of configuration records.  The
// scenario is the campaign's CellRunner (campaign/scenario.hpp): a qip-sim
// run is one campaign cell.  With --rounds R > 1 the whole scenario
// replicates R times with per-round seeds and the summary reports per-round
// and mean results; --jobs N (or QIP_JOBS) fans the rounds across worker
// threads — deterministically, so the report is byte-identical for every
// jobs value.  With --trace the whole run is recorded as a structured trace
// (.json loads in chrome://tracing / Perfetto; any other extension gets
// JSONL) — inspect it with `qip-trace summary <file>`.
//
// Every numeric flag parses strictly (util/env.hpp) and the cell is checked
// by the campaign's validator: malformed or out-of-range input exits 2.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "campaign/scenario.hpp"
#include "harness/parallel.hpp"
#include "harness/protocols.hpp"
#include "harness/seed.hpp"
#include "obs/trace_session.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

using namespace qip;

namespace {

struct Options {
  CellSpec cell;
  std::string csv_path;
  bool quiet = false;
  std::uint32_t rounds = 1;
  std::uint32_t jobs = 1;
};

[[noreturn]] void usage(const char* argv0) {
  std::string names;
  for (const std::string& name : protocol_names()) {
    names += (names.empty() ? "" : "|") + name;
  }
  std::fprintf(
      stderr,
      "usage: %s [--protocol %s]\n"
      "          [--nodes N] [--range M] [--speed M/S] [--seed S]\n"
      "          [--duration SECS] [--churn N] [--abrupt RATIO]\n"
      "          [--pool N] [--csv FILE] [--trace FILE] [--quiet]\n"
      "          [--rounds R] [--jobs N]\n",
      argv0, names.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.cell.nodes = 100;
  opt.cell.duration = 30.0;
  // Seed override order: --seed beats QIP_SEED beats the default.  The
  // banner (or --quiet runs' CSV consumers) sees the effective value.
  opt.cell.seed = resolve_seed(1, argc, argv, /*announce=*/false);
  opt.jobs = jobs_from_env(1);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--protocol") {
      opt.cell.protocol = value();
    } else if (arg == "--nodes") {
      opt.cell.nodes = parse_positive_u32("--nodes", value());
    } else if (arg == "--range") {
      opt.cell.range = parse_double("--range", value());
    } else if (arg == "--speed") {
      opt.cell.speed = parse_double("--speed", value());
    } else if (arg == "--seed") {
      value();  // applied by resolve_seed above
    } else if (arg == "--duration") {
      opt.cell.duration = parse_double("--duration", value());
    } else if (arg == "--churn") {
      opt.cell.churn = parse_u32("--churn", value());
    } else if (arg == "--abrupt") {
      opt.cell.abrupt = parse_double("--abrupt", value());
    } else if (arg == "--pool") {
      opt.cell.pool = parse_u64("--pool", value());
    } else if (arg == "--csv") {
      opt.csv_path = value();
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--rounds") {
      opt.rounds = parse_positive_u32("--rounds", value());
    } else if (arg == "--jobs") {
      opt.jobs = parse_positive_u32("--jobs", value());
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  std::string err;
  if (!opt.cell.validate(&err)) {
    std::fprintf(stderr, "qip-sim: %s\n", err.c_str());
    usage(argv[0]);
  }
  return opt;
}

void finish_trace(const Options& opt, obs::TraceSession& trace) {
  if (!trace.active()) return;
  const std::string path = trace.path();
  trace.dump();
  if (!opt.quiet) {
    std::printf("wrote trace to %s (inspect with: qip-trace summary %s)\n",
                path.c_str(), path.c_str());
  }
}

/// Replicated mode (--rounds R > 1): per-round seeds from the same
/// derivation the figure suite uses, rounds fanned across --jobs workers,
/// merged in round order — so the report never depends on the jobs value.
int run_replicated(const Options& opt, obs::TraceSession& trace) {
  if (!opt.csv_path.empty()) {
    std::fprintf(stderr, "--csv records a single run; drop --rounds\n");
    return 2;
  }
  const CellSpec& cell = opt.cell;
  if (!opt.quiet) {
    std::printf("qip-sim: %s replication, %u nodes, tr=%.0fm, %.0f m/s, "
                "seed %llu, %u rounds\n",
                cell.protocol.c_str(), cell.nodes, cell.range, cell.speed,
                static_cast<unsigned long long>(cell.seed), opt.rounds);
  }
  std::printf("%-6s %-12s %-14s %s\n", "round", "configured%", "latency_hops",
              "protocol_hops");
  double cfg = 0.0, lat = 0.0;
  std::uint64_t hops = 0;
  run_cells<CellResult>(
      process_context(), opt.jobs, opt.rounds,
      [&](std::size_t r, SimContext& ctx) {
        CellSpec round = cell;
        round.seed = derive_cell_seed(cell.seed, 0, r);
        CellRunner runner(round, ctx);
        runner.run_to_end();
        return runner.result();
      },
      [&](std::size_t r, CellResult&& s) {
        std::printf("%-6zu %-12.1f %-14.2f %llu\n", r, 100.0 * s.configured,
                    s.latency_hops,
                    static_cast<unsigned long long>(s.protocol_hops));
        cfg += s.configured;
        lat += s.latency_hops;
        hops += s.protocol_hops;
      });
  std::printf("mean   %-12.1f %-14.2f %.1f\n", 100.0 * cfg / opt.rounds,
              lat / opt.rounds,
              static_cast<double>(hops) / opt.rounds);
  finish_trace(opt, trace);
  return 0;
}

bool write_csv(const CellRunner& runner, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  CsvWriter csv(out);
  csv.write_row({"node", "success", "address", "latency_hops", "attempts",
                 "requested_at", "completed_at"});
  for (NodeId id = 0; id < runner.driver().joined_count(); ++id) {
    const ConfigRecord* rec = runner.protocol().config_record(id);
    if (!rec) continue;
    csv.write_row({std::to_string(id), rec->success ? "1" : "0",
                   rec->address.to_string(), std::to_string(rec->latency_hops),
                   std::to_string(rec->attempts),
                   std::to_string(rec->requested_at),
                   std::to_string(rec->completed_at)});
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  obs::TraceSession trace(obs::extract_trace_arg(argc, argv));
  const Options opt = parse(argc, argv);
  if (opt.rounds > 1) return run_replicated(opt, trace);

  const CellSpec& cell = opt.cell;
  CellRunner runner(cell, process_context());
  if (!opt.quiet) {
    std::printf("qip-sim: %s, %u nodes, tr=%.0fm, %.0f m/s, seed %llu\n",
                runner.protocol().name().c_str(), cell.nodes, cell.range,
                cell.speed, static_cast<unsigned long long>(cell.seed));
  }
  runner.run_to_end();

  // ---- summary ------------------------------------------------------------
  const CellResult r = runner.result();
  std::printf("configured: %.1f%%  mean latency: %.2f hops  joins: %u\n",
              100.0 * r.configured, r.latency_hops, r.joins);
  std::printf("%s", runner.world().stats().to_string().c_str());
  std::printf("protocol hops total (hello excluded): %llu\n",
              static_cast<unsigned long long>(r.protocol_hops));

  if (!opt.csv_path.empty()) {
    if (!write_csv(runner, opt.csv_path)) {
      std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
      return 1;
    }
    if (!opt.quiet) {
      std::printf("wrote per-node records to %s\n", opt.csv_path.c_str());
    }
  }
  finish_trace(opt, trace);
  return 0;
}
