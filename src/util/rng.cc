#include "src/util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace eclarity {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling over the largest multiple of bound.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<int64_t>(NextUint64());
  }
  return lo + static_cast<int64_t>(UniformUint64(span));
}

double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return UniformDouble() < p;
}

double Rng::Normal() {
  // Box-Muller; discards the second variate for simplicity.
  double u1 = UniformDouble();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

size_t Rng::Zipf(size_t n, double s) {
  ZipfSampler sampler(n, s);
  return sampler.Sample(*this);
}

uint64_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean <= 0.0) {
    return 0;
  }
  if (mean < 30.0) {
    // Knuth's algorithm.
    const double limit = std::exp(-mean);
    double product = UniformDouble();
    uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= UniformDouble();
    }
    return count;
  }
  // Normal approximation with continuity correction.
  const double sample = Normal(mean, std::sqrt(mean));
  return sample <= 0.0 ? 0 : static_cast<uint64_t>(sample + 0.5);
}

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  double u = UniformDouble();
  if (u < 1e-300) {
    u = 1e-300;
  }
  return -std::log(u) / rate;
}

Rng Rng::Fork() { return Rng(NextUint64() ^ 0xda3e39cb94b95bdbULL); }

ZipfSampler::ZipfSampler(size_t n, double exponent) {
  assert(n > 0);
  cdf_.resize(n);
  double running = 0.0;
  for (size_t rank = 0; rank < n; ++rank) {
    running += 1.0 / std::pow(static_cast<double>(rank + 1), exponent);
    cdf_[rank] = running;
  }
  for (double& c : cdf_) {
    c /= running;
  }
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) {
    return cdf_.size() - 1;
  }
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace eclarity
