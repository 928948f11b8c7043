#include "harness/seed.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/env.hpp"

namespace qip {

std::uint64_t resolve_seed(std::uint64_t fallback, int argc,
                           const char* const* argv, bool announce) {
  std::uint64_t seed = fallback;
  const char* source = "default";

  if (std::getenv("QIP_SEED") != nullptr) {
    seed = env_u64("QIP_SEED", fallback);
    source = "QIP_SEED";
  }

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      seed = parse_u64("--seed", argv[i + 1]);
      source = "--seed";
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = parse_u64("--seed", arg + 7);
      source = "--seed";
    }
  }

  if (announce) {
    std::printf("effective seed: %llu (%s)\n",
                static_cast<unsigned long long>(seed), source);
  }
  return seed;
}

}  // namespace qip
