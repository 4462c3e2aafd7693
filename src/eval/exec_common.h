// Internals shared by the execution engines (interp.cc, bytecode.cc,
// batch.cc).
//
// The tree walk and the bytecode VM must be observably identical: same
// values, same probabilities, same draw order and same error statuses.
// Everything in this header exists so each observable behaviour is
// implemented in exactly one place — choosers (the ECV-resolution
// strategies), error contexts, and the engine counters. Trace events are
// not here: only the tree walk emits them (interp.cc).
//
// This is an implementation header for src/eval; it is not part of the
// public evaluator API.

#ifndef ECLARITY_SRC_EVAL_EXEC_COMMON_H_
#define ECLARITY_SRC_EVAL_EXEC_COMMON_H_

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/eval/ecv_profile.h"
#include "src/lang/ast.h"
#include "src/lang/value.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace eclarity {
namespace eval_internal {

inline std::string PosContext(const InterfaceDecl& iface, int line,
                              int column) {
  std::ostringstream os;
  os << "in '" << iface.name << "' at " << line << ":" << column;
  return os.str();
}

// Built-in instrumentation. The references are resolved once; every update
// afterwards is a single relaxed atomic increment, and all of them sit on
// cold paths (construction, analytic dispatch, budget failures).
#define ECLARITY_EVAL_METRICS(COUNTER, HISTOGRAM)                              \
  COUNTER(engine_treewalk, "eclarity_eval_engine_treewalk_total",              \
          "evaluators the tree walk serves (the kTreeWalk engine or a "        \
          "bytecode compile fallback)")                                        \
  COUNTER(engine_bytecode, "eclarity_eval_engine_bytecode_total",              \
          "evaluators the bytecode VM serves")                                 \
  COUNTER(bytecode_fallbacks, "eclarity_eval_bytecode_fallback_total",         \
          "bytecode-engine evaluators that fell back to the tree walk "        \
          "because the program did not compile (e.g. register overflow)")      \
  COUNTER(bytecode_specializations, "eclarity_eval_bytecode_specialize_total", \
          "bytecode programs re-specialized against an ECV profile")           \
  COUNTER(budget_steps, "eclarity_eval_budget_steps_exhausted_total",          \
          "evaluations aborted by the max_steps statement budget")             \
  COUNTER(budget_depth, "eclarity_eval_budget_depth_exhausted_total",          \
          "evaluations aborted by the max_call_depth budget")                  \
  COUNTER(budget_paths, "eclarity_eval_budget_paths_exhausted_total",          \
          "enumerations aborted by the max_paths budget")                      \
  COUNTER(mc_samples, "eclarity_mc_samples_total",                             \
          "Monte Carlo samples drawn by MonteCarloMean")                       \
  COUNTER(analytic_hits, "eclarity_eval_analytic_hits_total",                  \
          "certified evaluations answered by the analytic engines")            \
  COUNTER(analytic_fallbacks, "eclarity_eval_analytic_fallbacks_total",        \
          "certified evaluations that fell back to exact enumeration")         \
  HISTOGRAM(analytic_pruned_mass, "eclarity_eval_analytic_pruned_mass",        \
            "certified pruned probability mass per analytic evaluation",       \
            LinearBuckets(0.0, 0.05, 20))                                      \
  HISTOGRAM(bytecode_compile_micros, "eclarity_bytecode_compile_micros",       \
            "wall-clock microseconds spent compiling or specializing one "     \
            "bytecode program",                                                \
            LinearBuckets(0.0, 50.0, 20))

struct EvalCounters {
  ECLARITY_EVAL_METRICS(ECLARITY_COUNTER_MEMBER, ECLARITY_HISTOGRAM_MEMBER)

  static EvalCounters& Get() {
    static EvalCounters* counters = new EvalCounters{ECLARITY_EVAL_METRICS(
        ECLARITY_COUNTER_LOOKUP, ECLARITY_HISTOGRAM_LOOKUP)};
    return *counters;
  }
};

// Strategy for resolving ECV draws. The sampling chooser draws randomly;
// the enumerating chooser drives a DFS over the whole choice tree.
class Chooser {
 public:
  virtual ~Chooser() = default;
  // Returns the index of the chosen outcome in `support`.
  virtual Result<size_t> Choose(const std::string& qualified_name,
                                const EcvSupport& support) = 0;
};

class SamplingChooser : public Chooser {
 public:
  explicit SamplingChooser(Rng& rng) : rng_(rng) {}

  Result<size_t> Choose(const std::string& /*qualified_name*/,
                        const EcvSupport& support) override {
    return rng_.CategoricalOf(
        support.outcomes,
        [](const std::pair<Value, double>& outcome) { return outcome.second; });
  }

 private:
  Rng& rng_;
};

// Drives repeated executions through every combination of choices.
// Execution i follows the recorded prefix and extends with first choices;
// Advance() then increments the deepest counter (dropping exhausted ones)
// like an odometer over a tree with heterogeneous arity.
class EnumeratingChooser : public Chooser {
 public:
  Result<size_t> Choose(const std::string& qualified_name,
                        const EcvSupport& support) override {
    if (cursor_ < path_.size()) {
      // Replaying the recorded prefix.
      ChoicePoint& cp = path_[cursor_];
      if (cp.arity != support.outcomes.size()) {
        return InternalError("non-deterministic choice structure for ECV '" +
                             qualified_name + "'");
      }
      probability_ *= support.outcomes[cp.index].second;
      assignments_.emplace_back(qualified_name,
                                support.outcomes[cp.index].first);
      return path_[cursor_++].index;
    }
    // New choice point: take the first outcome and record it.
    path_.push_back(ChoicePoint{0, support.outcomes.size()});
    ++cursor_;
    probability_ *= support.outcomes[0].second;
    assignments_.emplace_back(qualified_name, support.outcomes[0].first);
    return size_t{0};
  }

  // Prepares the next execution. Returns false when the tree is exhausted.
  bool Advance() {
    while (!path_.empty()) {
      ChoicePoint& last = path_.back();
      if (last.index + 1 < last.arity) {
        ++last.index;
        Reset();
        return true;
      }
      path_.pop_back();
    }
    return false;
  }

  void Reset() {
    cursor_ = 0;
    probability_ = 1.0;
    assignments_.clear();
  }

  double probability() const { return probability_; }
  // Moves the current execution's draws out (qualified name, drawn value,
  // in draw order). The next execution's Reset() clears them anyway.
  std::vector<std::pair<std::string, Value>> TakeAssignments() {
    return std::move(assignments_);
  }
  size_t depth() const { return path_.size(); }

 private:
  struct ChoicePoint {
    size_t index;
    size_t arity;
  };
  std::vector<ChoicePoint> path_;
  size_t cursor_ = 0;
  double probability_ = 1.0;
  std::vector<std::pair<std::string, Value>> assignments_;
};

}  // namespace eval_internal
}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_EXEC_COMMON_H_
