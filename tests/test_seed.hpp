// Seeds of the randomized differential tests: a fresh seed each run, so the
// suite keeps exploring new inputs, printed so that a failing run can be
// replayed with IDDQ_TEST_SEED=<seed>.
//
//   const std::uint64_t seed = testutil::run_seed();
//   SCOPED_TRACE(testutil::replay_note(seed));
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>

namespace iddq::testutil {

/// "seed N (replay with IDDQ_TEST_SEED=N)": what run_seed() prints and
/// what SCOPED_TRACE adds to a failure message.
inline std::string replay_note(std::uint64_t seed) {
  return "seed " + std::to_string(seed) +
         " (replay with IDDQ_TEST_SEED=" + std::to_string(seed) + ")";
}

/// IDDQ_TEST_SEED when set, else a fresh seed; printed either way.
inline std::uint64_t run_seed() {
  std::uint64_t seed = 0;
  if (const char* env = std::getenv("IDDQ_TEST_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  } else {
    std::random_device device;
    seed = (std::uint64_t{device()} << 32) ^ device();
  }
  std::printf("%s\n", replay_note(seed).c_str());
  return seed;
}

}  // namespace iddq::testutil
