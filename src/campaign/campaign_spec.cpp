#include "campaign/campaign_spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "addr/ip_address.hpp"
#include "harness/parallel.hpp"
#include "harness/protocols.hpp"

namespace qip {

namespace {

constexpr double kMaxDuration = 1e9;

/// Round-trippable double rendering: %.17g re-reads to the identical bits,
/// so canonical strings digest and parse stably.
void append_double(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%.17g", key, v);
  out += buf;
}

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, key, v);
  out += buf;
}

/// Pulls `key=` from a "k=v k=v ..." line.  Returns nullptr when absent.
const char* find_field(const std::string& text, const char* key,
                       std::string* value) {
  const std::string needle = std::string(key) + "=";
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) {
    if (tok.rfind(needle, 0) == 0) {
      *value = tok.substr(needle.size());
      return value->c_str();
    }
  }
  return nullptr;
}

bool parse_double_field(const std::string& text, const char* key,
                        double* out) {
  std::string v;
  if (!find_field(text, key, &v) || v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(v.c_str(), &end);
  return errno == 0 && end != v.c_str() && *end == '\0';
}

bool parse_u64_field(const std::string& text, const char* key,
                     std::uint64_t* out) {
  std::string v;
  if (!find_field(text, key, &v) || v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtoull(v.c_str(), &end, 0);
  return errno == 0 && end != v.c_str() && *end == '\0';
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& s) {
  return fnv1a64(s.data(), s.size());
}

std::string CellSpec::canonical() const {
  std::string out = "proto=" + protocol;
  append_u64(out, "nodes", nodes);
  append_double(out, "range", range);
  append_double(out, "speed", speed);
  append_double(out, "duration", duration);
  append_u64(out, "churn", churn);
  append_double(out, "abrupt", abrupt);
  append_u64(out, "pool", pool);
  char buf[32];
  std::snprintf(buf, sizeof(buf), " seed=0x%016" PRIx64, seed);
  out += buf;
  return out;
}

bool CellSpec::parse(const std::string& text, CellSpec* out) {
  CellSpec s;
  std::uint64_t nodes = 0, churn = 0;
  if (!find_field(text, "proto", &s.protocol) ||
      !parse_u64_field(text, "nodes", &nodes) || nodes > 0xffffffffULL ||
      !parse_double_field(text, "range", &s.range) ||
      !parse_double_field(text, "speed", &s.speed) ||
      !parse_double_field(text, "duration", &s.duration) ||
      !parse_u64_field(text, "churn", &churn) || churn > 0xffffffffULL ||
      !parse_double_field(text, "abrupt", &s.abrupt) ||
      !parse_u64_field(text, "pool", &s.pool) ||
      !parse_u64_field(text, "seed", &s.seed)) {
    return false;
  }
  s.nodes = static_cast<std::uint32_t>(nodes);
  s.churn = static_cast<std::uint32_t>(churn);
  if (!s.validate(nullptr)) return false;
  *out = s;
  return true;
}

bool CellSpec::validate(std::string* err) const {
  auto fail = [&](const std::string& why) {
    if (err) *err = why;
    return false;
  };
  const auto& names = protocol_names();
  if (std::find(names.begin(), names.end(), protocol) == names.end()) {
    return fail("unknown protocol '" + protocol + "'");
  }
  if (nodes == 0) return fail("node count must be positive");
  if (!(range > 0 && std::isfinite(range))) {
    return fail("transmission range must be positive and finite");
  }
  if (!(speed >= 0 && std::isfinite(speed))) {
    return fail("speed must be non-negative and finite");
  }
  // Roam time is cut into ceil(duration) phases; the bound keeps that count
  // far inside size_t.
  if (!(duration >= 0 && duration <= kMaxDuration)) {
    return fail("duration must be in [0, 1e9] seconds");
  }
  if (!(abrupt >= 0 && abrupt <= 1)) return fail("abrupt must be in [0,1]");
  // Pools start at kPoolBase and must end inside IPv4.
  const std::uint64_t max_pool = 0x100000000ULL - kPoolBase.value();
  if (pool < 4 || pool > max_pool) {
    return fail("pool must hold 4 to " + std::to_string(max_pool) +
                " addresses");
  }
  return true;
}

std::vector<CellSpec> CampaignSpec::expand() const {
  std::vector<CellSpec> cells;
  cells.reserve(cell_count());
  // Grid-point index feeds the historical derive_cell_seed(base, xi, round)
  // formula, so a campaign point replicates the equivalent figure cell.
  std::uint64_t point = 0;
  for (const std::string& proto : protocols) {
    for (std::uint32_t nn : nodes) {
      for (double tr : ranges) {
        for (std::uint32_t round = 0; round < seeds; ++round) {
          CellSpec c;
          c.protocol = proto;
          c.nodes = nn;
          c.range = tr;
          c.speed = speed;
          c.duration = duration;
          c.churn = churn;
          c.abrupt = abrupt;
          c.seed = derive_cell_seed(base_seed, point, round);
          cells.push_back(std::move(c));
        }
        ++point;
      }
    }
  }
  return cells;
}

std::string CampaignSpec::canonical() const {
  std::string out = "protocols=";
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    if (i) out += ',';
    out += protocols[i];
  }
  out += " nodes=";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(nodes[i]);
  }
  out += " ranges=";
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (i) out += ',';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", ranges[i]);
    out += buf;
  }
  append_double(out, "speed", speed);
  append_double(out, "duration", duration);
  append_u64(out, "churn", churn);
  append_double(out, "abrupt", abrupt);
  append_u64(out, "seeds", seeds);
  char buf[32];
  std::snprintf(buf, sizeof(buf), " base_seed=0x%016" PRIx64, base_seed);
  out += buf;
  return out;
}

std::uint64_t CampaignSpec::digest() const { return fnv1a64(canonical()); }

bool CampaignSpec::validate(std::string* err) const {
  auto fail = [&](const std::string& why) {
    if (err) *err = why;
    return false;
  };
  if (protocols.empty()) return fail("no protocols");
  if (nodes.empty()) return fail("no node counts");
  if (ranges.empty()) return fail("no transmission ranges");
  if (seeds == 0) return fail("seeds must be positive");
  for (const CellSpec& cell : expand()) {
    if (!cell.validate(err)) return false;
  }
  return true;
}

}  // namespace qip
