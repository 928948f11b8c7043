// qip-sim — command-line scenario runner for every protocol in the library.
//
//   qip-sim [--protocol qip|manetconf|buddy|ctree|dad|weakdad|pdad|boleng]
//           [--nodes N] [--range M] [--speed M/S] [--seed S]
//           [--duration SECS] [--churn N] [--abrupt RATIO]
//           [--pool N] [--csv FILE] [--trace FILE] [--quiet]
//           [--rounds R] [--jobs N] [--quorum BACKEND]
//
// Joins N nodes sequentially, lets them roam for the duration, applies the
// requested churn (departures + replacement arrivals), and prints a summary
// plus (optionally) a per-node CSV of configuration records.  With
// --rounds R > 1 the whole scenario replicates R times with per-round seeds
// and the summary reports per-round and mean results; --jobs N (or
// QIP_JOBS) fans the rounds across worker threads — deterministically, so
// the report is byte-identical for every jobs value.  With --trace
// the whole run is recorded as a structured trace (.json loads in
// chrome://tracing / Perfetto; any other extension gets JSONL) — inspect it
// with `qip-trace summary <file>`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "baselines/boleng.hpp"
#include "baselines/buddy.hpp"
#include "baselines/ctree.hpp"
#include "baselines/dad.hpp"
#include "baselines/manetconf.hpp"
#include "baselines/pdad.hpp"
#include "baselines/weak_dad.hpp"
#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/parallel.hpp"
#include "harness/seed.hpp"
#include "harness/world.hpp"
#include "sim/sim_context.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_recorder.hpp"
#include "obs/trace_session.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

using namespace qip;

namespace {

struct Options {
  std::string protocol = "qip";
  std::uint32_t nodes = 100;
  double range = 150.0;
  double speed = 20.0;
  std::uint64_t seed = 1;
  double duration = 30.0;
  std::uint32_t churn = 0;
  double abrupt = 0.2;
  std::uint64_t pool = 1024;
  std::string csv_path;
  bool quiet = false;
  std::uint32_t rounds = 1;
  std::uint32_t jobs = 1;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--protocol qip|manetconf|buddy|ctree|dad|weakdad|pdad|"
      "boleng]\n"
      "          [--nodes N] [--range M] [--speed M/S] [--seed S]\n"
      "          [--duration SECS] [--churn N] [--abrupt RATIO]\n"
      "          [--pool N] [--csv FILE] [--trace FILE] [--quiet]\n"
      "          [--rounds R] [--jobs N]\n"
      "          [--quorum majority|dynamic_linear|slices]\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  // Seed override order: --seed beats QIP_SEED beats the default.  The
  // banner (or --quiet runs' CSV consumers) sees the effective value.
  opt.seed = resolve_seed(opt.seed, argc, argv, /*announce=*/false);
  opt.jobs = jobs_from_env(1);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--protocol") {
      opt.protocol = value();
    } else if (arg == "--nodes") {
      opt.nodes = static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--range") {
      opt.range = std::strtod(value(), nullptr);
    } else if (arg == "--speed") {
      opt.speed = std::strtod(value(), nullptr);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--duration") {
      opt.duration = std::strtod(value(), nullptr);
    } else if (arg == "--churn") {
      opt.churn = static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--abrupt") {
      opt.abrupt = std::strtod(value(), nullptr);
    } else if (arg == "--pool") {
      opt.pool = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--csv") {
      opt.csv_path = value();
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--rounds") {
      opt.rounds = parse_positive_u32("--rounds", value());
    } else if (arg == "--jobs") {
      opt.jobs = parse_positive_u32("--jobs", value());
    } else if (arg == "--quorum") {
      // Routed through QIP_QUORUM so every internally-built QipParams sees
      // it (only the qip protocol consults it; baselines have no quorums).
      const char* name = value();
      if (!parse_quorum_backend(name)) {
        std::fprintf(stderr,
                     "--quorum %s is not a quorum backend (expected "
                     "\"majority\", \"dynamic_linear\" or \"slices\")\n",
                     name);
        std::exit(2);
      }
      setenv("QIP_QUORUM", name, /*overwrite=*/1);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (opt.nodes == 0 || opt.range <= 0 || opt.pool < 4) usage(argv[0]);
  (void)quorum_backend_from_env();  // fail fast on a malformed QIP_QUORUM
  return opt;
}

std::unique_ptr<AutoconfProtocol> make_protocol(const Options& opt,
                                                World& world) {
  if (opt.protocol == "qip") {
    QipParams p;
    p.pool_size = opt.pool;
    auto proto = std::make_unique<QipEngine>(world.transport(), world.rng(), p);
    proto->start_hello();
    return proto;
  }
  if (opt.protocol == "manetconf") {
    ManetConfParams p;
    p.pool_size = opt.pool;
    return std::make_unique<ManetConf>(world.transport(), world.rng(), p);
  }
  if (opt.protocol == "buddy") {
    BuddyParams p;
    p.pool_size = opt.pool;
    auto proto =
        std::make_unique<BuddyProtocol>(world.transport(), world.rng(), p);
    proto->start_sync();
    return proto;
  }
  if (opt.protocol == "ctree") {
    CTreeParams p;
    p.pool_size = opt.pool;
    auto proto =
        std::make_unique<CTreeProtocol>(world.transport(), world.rng(), p);
    proto->start_updates();
    return proto;
  }
  if (opt.protocol == "dad") {
    DadParams p;
    p.pool_size = opt.pool;
    return std::make_unique<DadProtocol>(world.transport(), world.rng(), p);
  }
  if (opt.protocol == "weakdad") {
    WeakDadParams p;
    p.pool_size = opt.pool;
    auto proto =
        std::make_unique<WeakDadProtocol>(world.transport(), world.rng(), p);
    proto->start_updates();
    return proto;
  }
  if (opt.protocol == "pdad") {
    PdadParams p;
    p.pool_size = opt.pool;
    auto proto =
        std::make_unique<PdadProtocol>(world.transport(), world.rng(), p);
    proto->start_routing();
    return proto;
  }
  if (opt.protocol == "boleng") {
    auto proto =
        std::make_unique<BolengProtocol>(world.transport(), world.rng());
    proto->start_beacons();
    return proto;
  }
  std::fprintf(stderr, "unknown protocol: %s\n", opt.protocol.c_str());
  std::exit(2);
}

}  // namespace

namespace {

/// One replication of the scenario on `ctx`, summarized.
struct RoundSummary {
  double configured = 0.0;
  double latency = 0.0;
  std::uint32_t joins = 0;
  std::uint64_t protocol_hops = 0;
};

RoundSummary run_round(const Options& opt, std::uint64_t seed,
                       SimContext& ctx) {
  WorldParams wp;
  wp.transmission_range = opt.range;
  wp.speed = opt.speed;
  World world(wp, seed, ctx);
  auto proto = make_protocol(opt, world);
  Driver driver(world, *proto);
  driver.join(opt.nodes);
  world.run_for(2.0);
  if (opt.churn > 0) {
    for (std::uint32_t i = 0; i < opt.churn && !driver.members().empty();
         ++i) {
      const NodeId victim =
          driver.members()[world.rng().index(driver.members().size())];
      if (world.rng().chance(opt.abrupt)) {
        driver.depart_abrupt(victim);
      } else {
        driver.depart_graceful(victim);
      }
      driver.join_one();
    }
  }
  world.run_for(opt.duration);
  return RoundSummary{driver.configured_fraction(),
                      driver.mean_config_latency(), driver.joined_count(),
                      world.stats().protocol_hops()};
}

/// Replicated mode (--rounds R > 1): per-round seeds from the same
/// derivation the figure suite uses, rounds fanned across --jobs workers,
/// merged in round order — so the report never depends on the jobs value.
int run_replicated(const Options& opt, obs::TraceSession& trace) {
  if (!opt.csv_path.empty()) {
    std::fprintf(stderr, "--csv records a single run; drop --rounds\n");
    return 2;
  }
  if (!opt.quiet) {
    std::printf("qip-sim: %s replication, %u nodes, tr=%.0fm, %.0f m/s, "
                "seed %llu, %u rounds\n",
                opt.protocol.c_str(), opt.nodes, opt.range, opt.speed,
                static_cast<unsigned long long>(opt.seed), opt.rounds);
  }
  std::printf("%-6s %-12s %-14s %s\n", "round", "configured%", "latency_hops",
              "protocol_hops");
  double cfg = 0.0, lat = 0.0;
  std::uint64_t hops = 0;
  run_cells<RoundSummary>(
      process_context(), opt.jobs, opt.rounds,
      [&](std::size_t r, SimContext& ctx) {
        return run_round(opt, derive_cell_seed(opt.seed, 0, r), ctx);
      },
      [&](std::size_t r, RoundSummary&& s) {
        std::printf("%-6zu %-12.1f %-14.2f %llu\n", r, 100.0 * s.configured,
                    s.latency, static_cast<unsigned long long>(s.protocol_hops));
        cfg += s.configured;
        lat += s.latency;
        hops += s.protocol_hops;
      });
  std::printf("mean   %-12.1f %-14.2f %.1f\n", 100.0 * cfg / opt.rounds,
              lat / opt.rounds,
              static_cast<double>(hops) / opt.rounds);
  if (trace.active()) {
    const std::string path = trace.path();
    trace.dump();
    if (!opt.quiet) {
      std::printf("wrote trace to %s (inspect with: qip-trace summary %s)\n",
                  path.c_str(), path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::TraceSession trace(obs::extract_trace_arg(argc, argv));
  const Options opt = parse(argc, argv);
  if (opt.rounds > 1) return run_replicated(opt, trace);

  WorldParams wp;
  wp.transmission_range = opt.range;
  wp.speed = opt.speed;
  World world(wp, opt.seed);
  auto proto = make_protocol(opt, world);
  Driver driver(world, *proto);

  if (!opt.quiet) {
    std::printf("qip-sim: %s, %u nodes, tr=%.0fm, %.0f m/s, seed %llu\n",
                proto->name().c_str(), opt.nodes, opt.range, opt.speed,
                static_cast<unsigned long long>(opt.seed));
  }
  driver.join(opt.nodes);
  world.run_for(2.0);

  if (opt.churn > 0) {
    for (std::uint32_t i = 0; i < opt.churn && !driver.members().empty();
         ++i) {
      const NodeId victim =
          driver.members()[world.rng().index(driver.members().size())];
      if (world.rng().chance(opt.abrupt)) {
        driver.depart_abrupt(victim);
      } else {
        driver.depart_graceful(victim);
      }
      driver.join_one();
    }
  }
  world.run_for(opt.duration);

  // ---- summary ------------------------------------------------------------
  const auto& stats = world.stats();
  std::printf("configured: %.1f%%  mean latency: %.2f hops  joins: %u\n",
              100.0 * driver.configured_fraction(),
              driver.mean_config_latency(), driver.joined_count());
  std::printf("%s", stats.to_string().c_str());
  std::printf("protocol hops total (hello excluded): %llu\n",
              static_cast<unsigned long long>(stats.protocol_hops()));

  if (!opt.csv_path.empty()) {
    std::ofstream out(opt.csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
      return 1;
    }
    CsvWriter csv(out);
    csv.write_row({"node", "success", "address", "latency_hops", "attempts",
                   "requested_at", "completed_at"});
    for (NodeId id = 0; id < driver.joined_count(); ++id) {
      const ConfigRecord* rec = proto->config_record(id);
      if (!rec) continue;
      csv.write_row({std::to_string(id), rec->success ? "1" : "0",
                     rec->address.to_string(),
                     std::to_string(rec->latency_hops),
                     std::to_string(rec->attempts),
                     std::to_string(rec->requested_at),
                     std::to_string(rec->completed_at)});
    }
    if (!opt.quiet) {
      std::printf("wrote per-node records to %s\n", opt.csv_path.c_str());
    }
  }

  if (trace.active()) {
    const std::string path = trace.path();
    trace.dump();
    if (!opt.quiet) {
      std::printf("wrote trace to %s (inspect with: qip-trace summary %s)\n",
                  path.c_str(), path.c_str());
    }
  }
  return 0;
}
