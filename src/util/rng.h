#ifndef CHAMELEON_UTIL_RNG_H_
#define CHAMELEON_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chameleon::util {

/// Deterministic pseudo-random generator (xoshiro256**), seeded via
/// splitmix64. Every stochastic component of the library takes an explicit
/// Rng so experiments are reproducible run-to-run.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached spare).
  double NextGaussian();

  /// Advances the stream exactly as a discarded NextGaussian() would: the
  /// same NextU64 draws (including the u1 <= 0 retry) and the same spare
  /// parity, so every later draw is unchanged. Skipping the first half of
  /// a pair keeps its uniforms and computes the spare only if a later
  /// NextGaussian() asks for it, with NextGaussian's own expression; a
  /// skipped pair therefore costs no log/sin/cos at all.
  void SkipGaussian();

  /// Gaussian with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Samples an index from an (unnormalized, non-negative) weight vector.
  /// Returns weights.size() if all weights are zero or the vector is empty.
  size_t NextWeighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

  /// Forks an independent child generator (stable given call order).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
  /// Set when the pending spare came from SkipGaussian and is still
  /// unevaluated: spare_u1_/spare_u2_ hold the pair's uniforms.
  bool spare_deferred_ = false;
  double spare_u1_ = 0.0;
  double spare_u2_ = 0.0;
};

}  // namespace chameleon::util

#endif  // CHAMELEON_UTIL_RNG_H_
