#include "campaign/scenario.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "harness/protocols.hpp"

namespace qip {

namespace {

void digest_u64(std::uint64_t& h, std::uint64_t v) {
  h = fnv1a64(&v, sizeof(v), h);
}

void digest_double(std::uint64_t& h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  digest_u64(h, bits);
}

}  // namespace

CellRunner::CellRunner(const CellSpec& spec, SimContext& ctx) : spec_(spec) {
  WorldParams wp;
  wp.transmission_range = spec.range;
  wp.speed = spec.speed;
  world_ = std::make_unique<World>(wp, spec.seed, ctx);
  proto_ = make_protocol(spec.protocol, *world_, spec.pool);
  driver_ = std::make_unique<Driver>(*world_, *proto_);
  roam_slices_ = spec.duration > 0
                     ? static_cast<std::size_t>(std::ceil(spec.duration))
                     : 0;
  phase_count_ = 1 + spec.churn + roam_slices_;
}

CellRunner::~CellRunner() = default;

void CellRunner::run_phase() {
  QIP_ASSERT_MSG(phases_run_ < phase_count_, "cell already complete");
  const std::size_t phase = phases_run_;
  if (phase == 0) {
    // Bringup: sequential arrivals, then a settle window.
    driver_->join(spec_.nodes);
    world_->run_for(2.0);
  } else if (phase <= spec_.churn) {
    // One departure (graceful or abrupt) plus a replacement arrival.
    if (!driver_->members().empty()) {
      const NodeId victim =
          driver_->members()[world_->rng().index(driver_->members().size())];
      if (world_->rng().chance(spec_.abrupt)) {
        driver_->depart_abrupt(victim);
      } else {
        driver_->depart_graceful(victim);
      }
      driver_->join_one();
    }
  } else {
    // Roam: equal slices of the post-churn duration.
    world_->run_for(spec_.duration / static_cast<double>(roam_slices_));
  }
  ++phases_run_;
}

std::uint64_t CellRunner::state_digest() const {
  std::uint64_t h = fnv1a64(spec_.canonical());
  digest_u64(h, phases_run_);
  digest_double(h, world_->sim().now());
  digest_u64(h, world_->sim().events_executed());
  digest_u64(h, world_->sim().live_events());
  for (std::uint64_t w : world_->rng().state()) digest_u64(h, w);
  const MessageStats& stats = world_->stats();
  for (std::size_t t = 0; t < static_cast<std::size_t>(Traffic::kCount); ++t) {
    digest_u64(h, stats.of(static_cast<Traffic>(t)).messages);
    digest_u64(h, stats.of(static_cast<Traffic>(t)).hops);
  }
  digest_u64(h, stats.dropped_in_flight());
  digest_u64(h, stats.retransmissions());
  digest_u64(h, stats.acks());
  // Per-node outcome records, in id order (ids are dense from the driver).
  for (NodeId id = 0; id < driver_->joined_count(); ++id) {
    const ConfigRecord* rec = proto_->config_record(id);
    if (rec == nullptr) {
      digest_u64(h, 0xdeadu);
      continue;
    }
    digest_u64(h, rec->success ? 1 : 2);
    digest_u64(h, rec->address.value());
    digest_u64(h, rec->latency_hops);
    digest_u64(h, rec->attempts);
    digest_double(h, rec->requested_at);
    digest_double(h, rec->completed_at);
  }
  // Live membership and positions pin the mobility layer.
  for (NodeId id : driver_->members()) {
    digest_u64(h, id);
    const Point& p = world_->topology().position(id);
    digest_double(h, p.x);
    digest_double(h, p.y);
  }
  return h;
}

CellResult CellRunner::result() const {
  QIP_ASSERT_MSG(phases_run_ == phase_count_,
                 "result() before the cell finished");
  CellResult r;
  r.configured = driver_->configured_fraction();
  r.latency_hops = driver_->mean_config_latency();
  r.protocol_hops = world_->stats().protocol_hops();
  r.joins = driver_->joined_count();
  r.state_digest = state_digest();
  return r;
}

std::string CellResult::render(const CellSpec& spec) const {
  std::string out = "qip-cell v1\n";
  out += "spec " + spec.canonical() + "\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "configured=%.17g\n", configured);
  out += buf;
  std::snprintf(buf, sizeof(buf), "latency_hops=%.17g\n", latency_hops);
  out += buf;
  std::snprintf(buf, sizeof(buf), "protocol_hops=%" PRIu64 "\n",
                protocol_hops);
  out += buf;
  std::snprintf(buf, sizeof(buf), "joins=%u\n", joins);
  out += buf;
  std::snprintf(buf, sizeof(buf), "digest=0x%016" PRIx64 "\n", state_digest);
  out += buf;
  return out;
}

bool CellResult::parse(const std::string& text, CellSpec* spec,
                       CellResult* out) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "qip-cell v1") return false;
  if (!std::getline(in, line) || line.rfind("spec ", 0) != 0) return false;
  if (!CellSpec::parse(line.substr(5), spec)) return false;
  CellResult r;
  bool saw_configured = false, saw_latency = false, saw_hops = false,
       saw_joins = false, saw_digest = false;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    char* end = nullptr;
    if (key == "configured") {
      r.configured = std::strtod(value.c_str(), &end);
      saw_configured = end != value.c_str() && *end == '\0';
    } else if (key == "latency_hops") {
      r.latency_hops = std::strtod(value.c_str(), &end);
      saw_latency = end != value.c_str() && *end == '\0';
    } else if (key == "protocol_hops") {
      r.protocol_hops = std::strtoull(value.c_str(), &end, 10);
      saw_hops = end != value.c_str() && *end == '\0';
    } else if (key == "joins") {
      r.joins = static_cast<std::uint32_t>(
          std::strtoul(value.c_str(), &end, 10));
      saw_joins = end != value.c_str() && *end == '\0';
    } else if (key == "digest") {
      r.state_digest = std::strtoull(value.c_str(), &end, 16);
      saw_digest = end != value.c_str() && *end == '\0';
    } else {
      return false;
    }
  }
  if (!(saw_configured && saw_latency && saw_hops && saw_joins &&
        saw_digest)) {
    return false;
  }
  *out = r;
  return true;
}

}  // namespace qip
