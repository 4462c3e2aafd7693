// Certified distribution algebra: sub-probability measures with sound
// error envelopes.
//
// Exact path enumeration is exponential in ECV depth; the analytic
// evaluation modes (src/eval/analytic.h) sidestep it by composing
// per-construct distributions directly — convolution for independent
// additive ECV contributions, mixtures for probabilistic branches — the
// way the probabilistic-profiling line of work composes per-construct
// cost distributions. Approximate answers are still useful when they
// carry certified error bounds, so every operation here tracks enough
// state to bound how far a truncated answer can sit from the exact one.
//
// A CertifiedDist is an *unnormalised retained measure* plus a certified
// envelope of what was dropped:
//
//   * atoms()        — retained atoms, sorted by value, probabilities
//                      summing to (1 - pruned_mass). Convolution merges
//                      only bit-equal values (never mass-weighted value
//                      merging, which would silently perturb the support
//                      and void the bounds).
//   * pruned_mass()  — total probability mass dropped by threshold
//                      pruning and support truncation.
//   * min/max_value()— sound bounds on the FULL support, including every
//                      dropped atom. Maintained exactly through the
//                      algebra (sums of endpoint bounds, weighted hulls).
//
// Finalize() turns the working measure into a CertifiedDistribution whose
// mean carries a sound error bound: any dropped mass m lies inside
// [min, max], so assigning it the midpoint costs at most m*(max-min)/2,
// plus a conservative floating-point slack for the reordered summations.
// With no pruning the bound degenerates to the FP slack alone.

#ifndef ECLARITY_SRC_DIST_CERTIFIED_H_
#define ECLARITY_SRC_DIST_CERTIFIED_H_

#include <cstddef>
#include <vector>

#include "src/dist/distribution.h"
#include "src/util/status.h"

namespace eclarity {

// The finalized result of a certified evaluation: a distribution (or, in
// moments-only mode, just its summary statistics) with a sound error bound.
struct CertifiedDistribution {
  // Normalised retained distribution. Invalid (empty) when the evaluation
  // ran in moments-only mode; check has_distribution.
  Distribution distribution;
  bool has_distribution = true;

  // Best estimate of the exact mean, in Joules, with a certified bound:
  // |exact_mean - mean| <= mean_error_bound.
  double mean = 0.0;
  double mean_error_bound = 0.0;

  // Variance of the retained distribution (best effort; no certified bound).
  double variance = 0.0;

  // Total probability mass dropped by pruning/truncation. 0 when exact.
  double pruned_mass = 0.0;

  // Sound bounds on the FULL support (dropped atoms included).
  double min_joules = 0.0;
  double max_joules = 0.0;

  // True only when `distribution` is bit-identical to the exact
  // enumeration fold (same atoms, same probability bits) — set when
  // enumeration answered (kEnumerate, or an analytic mode falling back),
  // never by the bounded or moments engines.
  bool exact = false;
};

// Working sub-probability measure for the analytic engines and the
// property-test surface of the algebra.
class CertifiedDist {
 public:
  // All mass on a single value.
  static CertifiedDist Point(double value);

  // From explicit outcomes (an ECV support, a guarded-increment table).
  // Probabilities must be finite, non-negative, and sum to at most 1 + eps;
  // duplicates are merged, values sorted. The measure is NOT normalised.
  static Result<CertifiedDist> FromOutcomes(std::vector<Atom> atoms);

  // Rebuilds a working measure from a finalized sub-result (e.g. a cached
  // callee distribution): retained atoms are scaled back to mass
  // (1 - pruned_mass) and the callee's residual bound is carried forward.
  static CertifiedDist FromCertified(const CertifiedDistribution& cd);

  // Distribution of X + Y for independent X, Y. Exact up to bit-equal
  // duplicate merging; if the cross product exceeds `max_support`, the
  // lowest-probability atoms are dropped into pruned_mass (soundly — the
  // full-support bounds already cover them).
  static CertifiedDist Convolve(const CertifiedDist& a, const CertifiedDist& b,
                                size_t max_support);

  // Weighted mixture. Weights must be non-negative and sum to 1 (within
  // 1e-9): the engines pass resolved ECV outcome probabilities.
  static Result<CertifiedDist> Mixture(const std::vector<double>& weights,
                                       const std::vector<CertifiedDist>& parts);

  // X -> scale * X + offset (affine wrappers around sub-interface calls).
  CertifiedDist Affine(double scale, double offset) const;

  // Mass-threshold pruning: drops every retained atom with probability
  // strictly below `threshold`, accumulating the dropped mass. Always
  // keeps at least the single heaviest atom. Monotone by construction: a
  // larger threshold never drops less mass, so the finalized error bound
  // is monotone in the threshold ("tighter threshold => tighter bound").
  void PruneBelow(double threshold);

  // Hard support cap: drops the lowest-probability atoms beyond
  // `max_support` (sound; grows pruned_mass).
  void TruncateSupport(size_t max_support);

  const std::vector<Atom>& atoms() const { return atoms_; }
  double pruned_mass() const { return pruned_; }
  double min_value() const { return min_v_; }
  double max_value() const { return max_v_; }
  // Residual error carried from composed sub-results (FP slack of cached
  // callees); included in the finalized bound.
  double carried_bound() const { return carried_; }

  // Normalises the retained measure and computes the certified summary.
  CertifiedDistribution Finalize() const;

 private:
  CertifiedDist() = default;

  // Sorts by value and merges bit-equal duplicates (probability sums).
  void SortMerge();

  std::vector<Atom> atoms_;  // sorted by value; mass = 1 - pruned_
  double pruned_ = 0.0;
  double min_v_ = 0.0;  // full-support bounds
  double max_v_ = 0.0;
  double carried_ = 0.0;
  // Count of floating-point composition steps, for the FP slack term.
  size_t ops_ = 0;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_DIST_CERTIFIED_H_
