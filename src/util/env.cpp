#include "util/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace qip {

namespace {

[[noreturn]] void die(const char* what, const char* text, const char* want) {
  std::fprintf(stderr, "qip: invalid %s value '%s' (expected %s)\n", what,
               text, want);
  std::exit(2);
}

}  // namespace

std::uint32_t parse_positive_u32(const char* what, const char* text) {
  if (text == nullptr || *text == '\0') {
    die(what, text ? text : "", "a positive integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' ||
      std::strchr(text, '-') != nullptr) {
    die(what, text, "a positive integer");
  }
  if (v == 0 || v > 0xffffffffULL) {
    die(what, text, "a positive integer up to 2^32-1");
  }
  return static_cast<std::uint32_t>(v);
}

std::uint32_t parse_u32(const char* what, const char* text) {
  if (text == nullptr || *text == '\0') {
    die(what, text ? text : "", "a non-negative integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' ||
      std::strchr(text, '-') != nullptr) {
    die(what, text, "a non-negative integer");
  }
  if (v > 0xffffffffULL) {
    die(what, text, "a non-negative integer up to 2^32-1");
  }
  return static_cast<std::uint32_t>(v);
}

std::uint64_t parse_u64(const char* what, const char* text) {
  if (text == nullptr || *text == '\0') {
    die(what, text ? text : "", "an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (errno != 0 || end == text || *end != '\0' ||
      std::strchr(text, '-') != nullptr) {
    die(what, text, "an unsigned integer (decimal or 0x-hex)");
  }
  return static_cast<std::uint64_t>(v);
}

double parse_double(const char* what, const char* text) {
  if (text == nullptr) text = "";
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !std::isfinite(v)) {
    die(what, text, "a finite number");
  }
  return v;
}

bool parse_bool(const char* what, const char* text) {
  if (text != nullptr) {
    if (std::strcmp(text, "on") == 0 || std::strcmp(text, "1") == 0 ||
        std::strcmp(text, "true") == 0) {
      return true;
    }
    if (std::strcmp(text, "off") == 0 || std::strcmp(text, "0") == 0 ||
        std::strcmp(text, "false") == 0) {
      return false;
    }
  }
  die(what, text ? text : "", "on/off, 1/0 or true/false");
}

bool env_bool(const char* name, bool fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  return parse_bool(name, env);
}

std::uint32_t env_positive_u32(const char* name, std::uint32_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  return parse_positive_u32(name, env);
}

std::uint32_t env_u32(const char* name, std::uint32_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  return parse_u32(name, env);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  return parse_u64(name, env);
}

}  // namespace qip
