// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in eclarity (ECV sampling, workload generation,
// measurement noise) flows through Rng so that experiments are reproducible
// from a seed. The engine is xoshiro256++, seeded via SplitMix64.

#ifndef ECLARITY_SRC_UTIL_RNG_H_
#define ECLARITY_SRC_UTIL_RNG_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace eclarity {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  uint64_t NextUint64();

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  // avoid modulo bias.
  uint64_t UniformUint64(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Standard normal via Box-Muller (mean 0, stddev 1).
  double Normal();
  double Normal(double mean, double stddev);

  // Samples an index from an (unnormalised) weight vector. Weights must be
  // non-negative with positive sum; returns weights.size()-1 as a guard on
  // floating point slack.
  size_t Categorical(const std::vector<double>& weights) {
    return CategoricalOf(weights, [](double w) { return w; });
  }

  // Categorical over any non-empty range, `weight(item)` giving each item's
  // weight: one UniformDouble() draw, the weights summed and subtracted in
  // range order. Callers draw from their own data without copying weights.
  template <typename Range, typename Weight>
  size_t CategoricalOf(const Range& items, Weight weight) {
    assert(!std::empty(items));
    double total = 0.0;
    for (const auto& item : items) {
      assert(weight(item) >= 0.0);
      total += weight(item);
    }
    assert(total > 0.0);
    double u = UniformDouble() * total;
    size_t i = 0;
    for (const auto& item : items) {
      u -= weight(item);
      if (u < 0.0) {
        return i;
      }
      ++i;
    }
    return i - 1;
  }

  // Zipf-distributed rank in [0, n) with exponent s > 0. Implemented by
  // precomputing nothing: uses rejection-inversion would be heavy, so this is
  // simple inverse-CDF over cached harmonic weights per (n, s) call-site via
  // ZipfSampler below; this method is a convenience for one-off draws.
  // Prefer ZipfSampler for hot loops.
  size_t Zipf(size_t n, double s);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation for large means).
  uint64_t Poisson(double mean);

  // Exponential with the given rate (> 0).
  double Exponential(double rate);

  // Forks an independent stream (distinct sequence derived from this one).
  Rng Fork();

 private:
  uint64_t state_[4];
};

// Efficient repeated Zipf sampling over a fixed (n, s): O(log n) per draw via
// binary search on the cached CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);

  size_t Sample(Rng& rng) const;
  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_UTIL_RNG_H_
