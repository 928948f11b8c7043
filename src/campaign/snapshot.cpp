#include "campaign/snapshot.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace qip {

namespace {

void append_rng(std::string& out, const char* key,
                const std::array<std::uint64_t, 4>& s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "%s %016" PRIx64 " %016" PRIx64 " %016" PRIx64 " %016" PRIx64
                "\n",
                key, s[0], s[1], s[2], s[3]);
  out += buf;
}

bool parse_rng(const std::string& line, const char* key,
               std::array<std::uint64_t, 4>* out) {
  std::istringstream in(line);
  std::string tok;
  if (!(in >> tok) || tok != key) return false;
  for (auto& w : *out) {
    if (!(in >> tok)) return false;
    char* end = nullptr;
    w = std::strtoull(tok.c_str(), &end, 16);
    if (end == tok.c_str() || *end != '\0') return false;
  }
  return !(in >> tok);  // no trailing garbage
}

bool fail(std::string* err, const std::string& why) {
  if (err) *err = why;
  return false;
}

/// Double bits as hex, so the clock round-trips exactly (no decimal loss).
std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

bool save_snapshot(CellRunner& runner, const std::string& path,
                   std::string* err) {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s v%u\n", kSnapshotMagic,
                kSnapshotVersion);
  out += buf;
  out += "spec " + runner.spec().canonical() + "\n";
  std::snprintf(buf, sizeof(buf), "phase %zu\n", runner.phases_run());
  out += buf;
  std::snprintf(buf, sizeof(buf), "now %016" PRIx64 "\n",
                double_bits(runner.world().sim().now()));
  out += buf;
  std::snprintf(buf, sizeof(buf), "executed %" PRIu64 "\n",
                runner.world().sim().events_executed());
  out += buf;
  std::snprintf(buf, sizeof(buf), "live %" PRIu64 "\n",
                static_cast<std::uint64_t>(runner.world().sim().live_events()));
  out += buf;
  append_rng(out, "world_rng", runner.world().rng().state());
  std::snprintf(buf, sizeof(buf), "digest %016" PRIx64 "\n",
                runner.state_digest());
  out += buf;
  out += "end\n";

  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc | std::ios::binary);
    if (!f) return fail(err, "cannot write " + tmp);
    f << out;
    if (!f.flush()) return fail(err, "write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(err, "rename " + tmp + " -> " + path + " failed");
  }
  return true;
}

std::optional<Snapshot> load_snapshot(const std::string& path,
                                      std::string* err) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    fail(err, "cannot open " + path);
    return std::nullopt;
  }
  auto bad = [&](const std::string& why) {
    fail(err, path + ": " + why);
    return std::nullopt;
  };
  std::string line;
  if (!std::getline(f, line)) return bad("empty file");
  {
    std::istringstream head(line);
    std::string magic, ver;
    if (!(head >> magic >> ver) || magic != kSnapshotMagic) {
      return bad("bad magic (not a snapshot file)");
    }
    char buf[16];
    std::snprintf(buf, sizeof(buf), "v%u", kSnapshotVersion);
    if (ver != buf) {
      return bad("unsupported snapshot version '" + ver + "' (this build "
                 "reads " + buf + ")");
    }
  }
  Snapshot s;
  if (!std::getline(f, line) || line.rfind("spec ", 0) != 0 ||
      !CellSpec::parse(line.substr(5), &s.spec)) {
    return bad("missing or malformed spec line");
  }
  auto read_u64 = [&](const char* key, std::uint64_t* out, int base) {
    if (!std::getline(f, line)) return false;
    std::istringstream in(line);
    std::string k, v, rest;
    if (!(in >> k >> v) || k != key || (in >> rest)) return false;
    char* end = nullptr;
    *out = std::strtoull(v.c_str(), &end, base);
    return end != v.c_str() && *end == '\0';
  };
  std::uint64_t phase = 0, now_bits = 0;
  if (!read_u64("phase", &phase, 10)) return bad("malformed phase");
  s.phase = static_cast<std::size_t>(phase);
  if (!read_u64("now", &now_bits, 16)) return bad("malformed clock");
  s.now = bits_double(now_bits);
  if (!read_u64("executed", &s.executed, 10)) return bad("malformed executed");
  if (!read_u64("live", &s.live, 10)) return bad("malformed live");
  if (!std::getline(f, line) || !parse_rng(line, "world_rng", &s.world_rng)) {
    return bad("malformed world_rng");
  }
  if (!read_u64("digest", &s.digest, 16)) return bad("malformed digest");
  if (!std::getline(f, line) || line != "end") {
    return bad("truncated (no end marker)");
  }
  return s;
}

std::unique_ptr<CellRunner> restore_snapshot(const Snapshot& snap,
                                             SimContext& ctx,
                                             std::string* err) {
  auto runner = std::make_unique<CellRunner>(snap.spec, ctx);
  if (snap.phase > runner->phase_count()) {
    fail(err, "snapshot phase out of range for this spec");
    return nullptr;
  }
  // Deterministic replay to the phase boundary (see file comment: closures
  // in the event queue cannot be decoded, so replay re-derives them).
  while (runner->phases_run() < snap.phase) runner->run_phase();

  // Exact-state verification: every saved field must match the replayed
  // state bit for bit, or the snapshot does not describe this build/spec.
  auto mismatch = [&](const std::string& what) {
    fail(err, "snapshot mismatch after replay: " + what);
    return nullptr;
  };
  if (runner->world().sim().now() != snap.now) {
    return mismatch("simulation clock");
  }
  if (runner->world().sim().events_executed() != snap.executed) {
    return mismatch("executed-event count");
  }
  if (static_cast<std::uint64_t>(runner->world().sim().live_events()) !=
      snap.live) {
    return mismatch("live-event count");
  }
  if (runner->world().rng().state() != snap.world_rng) {
    return mismatch("world RNG stream");
  }
  if (runner->state_digest() != snap.digest) {
    return mismatch("state digest");
  }
  // Belt and braces: install the saved stream explicitly, so continuation
  // consumes exactly the recorded state regardless of how verification
  // evolves in later format versions.
  runner->world().rng().set_state(snap.world_rng);
  return runner;
}

}  // namespace qip
