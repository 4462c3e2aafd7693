// Analytic distribution evaluation over the lowered IR.
//
// Exact enumeration visits every ECV assignment — exponential in draw
// depth. The engines here answer with a certified error bound by composing
// distributions instead of paths:
//
//   * AnalyticAnalysis — a one-shot shape analysis over the lowered program
//     (eval/lower.h) deciding, per interface, whether the analytic engines
//     apply. Anything outside the analyzable fragment (for loops,
//     multi-call returns, unresolved callees, bodies that can fall off the
//     end) is rejected, and the evaluator falls back to enumeration.
//
//   * AnalyticApprox — the certified approximate engines. Independent
//     additive ECV contributions convolve in O(|support|^2); draws consumed
//     in any other way expand as mixtures; sub-interface calls compose
//     through cached CertifiedDistributions under runtime-extracted affine
//     wrappers. In bounded mode the working measure is mass-threshold
//     pruned (EvalOptions::prune_threshold) with the dropped mass certified
//     into the final bound; in moments mode only mean/variance/range
//     propagate and no distribution is materialised. Approximation never
//     errors: anything off-template returns nullopt and the caller answers
//     through enumeration, which also raises any genuine error.
//
// Everything here is internal to Evaluator::EvalCertified; the analysis is
// built once per evaluator and shared across threads (it is immutable after
// construction).

#ifndef ECLARITY_SRC_EVAL_ANALYTIC_H_
#define ECLARITY_SRC_EVAL_ANALYTIC_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dist/certified.h"
#include "src/eval/interp.h"
#include "src/eval/lower.h"
#include "src/util/status.h"

namespace eclarity {

// One "accumulator increment" site: an ECV draw whose only consumer adds a
// deterministic term to the single accumulator slot, either guarded by the
// drawn boolean or scaled through a term reading the drawn value. The
// engines convolve these without branching per path.
struct AnalyticIncrement {
  const LStmt* draw = nullptr;       // the paired kEcv statement
  const LExpr* then_term = nullptr;  // guard form: term added when true
  const LExpr* else_term = nullptr;  // guard form: term added when false
  const LExpr* value_term = nullptr; // value form: term reading the drawn slot
};

// Per-interface verdict of the shape analysis.
struct AnalyticShape {
  // The body lies in the analyzable fragment, so the step and call-depth
  // bounds below hold. An interface calling this one is analyzable only
  // when it is set, and the increment classification runs only then. (No
  // engine answers exactly from it: exact answers come from enumeration.)
  bool exact_ok = false;
  // The convolution/mixture and moments engines may run on this interface.
  // Set only together with exact_ok.
  bool bounded_ok = false;
  // First disqualifier, for metrics/debugging ("for loop", ...). Set when
  // exact_ok or bounded_ok is false.
  std::string reason;

  // Worst-case statements executed on any single path, callee bodies
  // inlined — compared against EvalOptions::max_steps so the analytic
  // answer can never succeed where enumeration would exhaust its budget.
  size_t max_path_stmts = 0;
  // Nesting depth of inlined interface calls (this interface counts 1);
  // compared against EvalOptions::max_call_depth for the same reason.
  int call_depth = 1;

  // draw statement -> its paired increment statement (the kIf or kAssign).
  std::unordered_map<const LStmt*, const LStmt*> conv_pair;
  // increment statement -> site description. Walkers skip these statements
  // and apply the increment algebraically.
  std::unordered_map<const LStmt*, AnalyticIncrement> increments;
};

// Immutable per-program shape analysis, memoized across the call DAG
// (recursive call cycles reject every interface on the cycle).
class AnalyticAnalysis {
 public:
  static std::unique_ptr<const AnalyticAnalysis> Analyze(
      const Program& program, const LoweredProgram& lowered);

  const AnalyticShape* Find(const LoweredInterface* iface) const {
    const auto it = shapes_.find(iface);
    return it == shapes_.end() ? nullptr : &it->second;
  }

 private:
  friend class AnalyticAnalyzer;
  std::unordered_map<const LoweredInterface*, AnalyticShape> shapes_;
};

// Resolves a callee's certified sub-distribution (cache-aware; supplied by
// the evaluator). nullopt aborts the approximate evaluation.
using AnalyticSubEval = std::function<std::optional<CertifiedDistribution>(
    const LoweredInterface& callee, const std::vector<Value>& args)>;

// Approximate evaluation of `iface` (which must be bounded_ok):
// convolution/mixture with certified bounds, or moments-only propagation
// when `moments_only`. Returns nullopt on any off-template construct,
// expansion over budget or non-finite answer; never raises errors.
std::optional<CertifiedDistribution> AnalyticApprox(
    const AnalyticAnalysis& analysis, const LoweredInterface& iface,
    const std::vector<Value>& args, const EcvProfile& profile,
    const EvalOptions& options, const EnergyCalibration* calibration,
    bool moments_only, const AnalyticSubEval& subeval);

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_ANALYTIC_H_
