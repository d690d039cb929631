// Deterministic pseudo-random number generation.
//
// A self-contained xoshiro256** implementation is used instead of <random>
// engines so that results are reproducible bit-for-bit across standard-library
// implementations — every stochastic component of iddqsyn (evolution strategy,
// Monte-Carlo descendants, circuit generators, pattern generators) takes an
// explicit seed and produces identical runs on any platform.
#pragma once

#include <cstdint>
#include <vector>

namespace iddq {

/// xoshiro256** by Blackman & Vigna (public domain algorithm), seeded via
/// splitmix64. Satisfies the essentials of UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initialises the state from a 64-bit seed (splitmix64 expansion).
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() { return next(); }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal deviate (Marsaglia polar method).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with probability `p` of returning true.
  bool chance(double p);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element index of a non-empty container size.
  std::size_t index(std::size_t size);

  /// Derives an independent child generator (for parallel components).
  Rng split();

  /// Deterministically combines a base seed with a salt (task index, method
  /// index, ...) into a well-mixed derived seed. Used by the flow engine and
  /// the sweep shard seeds so per-task streams are independent of
  /// scheduling order.
  static std::uint64_t mix_seed(std::uint64_t base, std::uint64_t salt);

 private:
  std::uint64_t next();

  std::uint64_t s_[4] = {};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace iddq
