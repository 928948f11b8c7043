#include "campaign/inject.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace qip {

namespace {

bool fail(std::string* err, const std::string& why) {
  if (err) *err = why;
  return false;
}

/// Parses a strictly-decimal non-negative integer (no sign, no trailing
/// garbage).
bool parse_dec(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  *out = v;
  return true;
}

}  // namespace

bool InjectPlan::matches(InjectKind kind, std::size_t cell,
                         std::uint32_t attempt) const {
  for (const InjectPoint& p : points) {
    if (p.kind == kind && p.cell == cell && p.attempt == attempt) return true;
  }
  return false;
}

bool InjectPlan::parse(const std::string& text, InjectPlan* out,
                       std::string* err) {
  InjectPlan plan;
  std::istringstream in(text);
  std::string term;
  while (std::getline(in, term, ',')) {
    if (term.empty()) {
      return fail(err, "empty injection term");
    }
    const auto colon = term.find(':');
    if (colon == std::string::npos) {
      return fail(err, "injection term '" + term + "' has no ':'");
    }
    const std::string kind = term.substr(0, colon);
    const std::string rest = term.substr(colon + 1);
    if (kind == "die-after") {
      std::uint64_t n = 0;
      if (!parse_dec(rest, &n)) {
        return fail(err, "die-after wants a count, got '" + rest + "'");
      }
      plan.die_after = static_cast<std::size_t>(n);
      continue;
    }
    if (kind != "crash" && kind != "hang") {
      return fail(err, "unknown injection kind '" + kind + "'");
    }
    const auto at = rest.find('@');
    if (at == std::string::npos) {
      return fail(err, "injection term '" + term +
                  "' wants <cell>@<attempt>");
    }
    std::uint64_t cell = 0, attempt = 0;
    if (!parse_dec(rest.substr(0, at), &cell) ||
        !parse_dec(rest.substr(at + 1), &attempt)) {
      return fail(err, "injection term '" + term +
                  "' wants decimal <cell>@<attempt>");
    }
    if (attempt > std::numeric_limits<std::uint32_t>::max()) {
      return fail(err, "injection term '" + term + "' names an attempt past " +
                  std::to_string(std::numeric_limits<std::uint32_t>::max()));
    }
    InjectPoint p;
    p.kind = kind == "crash" ? InjectKind::kCrash : InjectKind::kHang;
    p.cell = static_cast<std::size_t>(cell);
    p.attempt = static_cast<std::uint32_t>(attempt);
    plan.points.push_back(p);
  }
  *out = plan;
  return true;
}

InjectPlan inject_plan_from_env() {
  const char* text = std::getenv("QIP_CAMPAIGN_INJECT");
  if (text == nullptr || *text == '\0') return {};
  InjectPlan plan;
  std::string err;
  if (!InjectPlan::parse(text, &plan, &err)) {
    std::fprintf(stderr, "qip: QIP_CAMPAIGN_INJECT: %s\n", err.c_str());
    std::exit(2);
  }
  return plan;
}

}  // namespace qip
