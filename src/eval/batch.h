// Structure-of-arrays batch evaluation: one compiled interface over many
// argument vectors per pass (ROADMAP item 3; see DESIGN.md, "Batch
// evaluation").
//
// A BatchPlan binds an evaluator and an entry interface; each pass runs the
// lowered program once per enumeration path with every value held as a
// *column*: one entry per lane, contiguous per slot.
// Term loops over number planes are plain `double` loops the compiler can
// vectorize; constants and shared ECV draws stay one scalar for the whole
// pass. The engine is strictly opportunistic: whenever it cannot prove the
// vector pass bit-identical to running each lane alone on the scalar
// engine — divergent control flow, a per-lane error, an unsupported
// construct — it abandons the pass and reruns every lane on the scalar
// interpreter (the reference semantics), counting the retreat in
// eclarity_eval_batch_scalar_fallbacks_total. Answers are therefore
// positionally bit-identical to scalar dispatch by construction, including
// error codes and messages.

#ifndef ECLARITY_SRC_EVAL_BATCH_H_
#define ECLARITY_SRC_EVAL_BATCH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/eval/ecv_profile.h"
#include "src/eval/interp.h"
#include "src/lang/value.h"
#include "src/util/status.h"

namespace eclarity {

class BatchPlan {
 public:
  // Binds the plan to `evaluator` (must outlive the plan) and an entry
  // interface. Never fails: entry points the vector engine cannot serve
  // simply run every lane on the scalar engine.
  BatchPlan(const Evaluator& evaluator, std::string interface_name);

  const std::string& interface_name() const { return interface_name_; }

  // Exact enumeration, one lane per argument vector, all lanes sharing
  // `profile` (callers group by effective-profile fingerprint first).
  // Lanes are processed in SoA tiles; a tile that cannot be vector-served
  // falls back lane by lane to the scalar enumeration. Results align
  // positionally with `lane_args` and are bit-identical — values, error
  // codes and messages — to folding each lane's scalar enumeration through
  // FoldOutcomes.
  std::vector<Result<ExactFold>> EnumerateFold(
      const std::vector<const std::vector<Value>*>& lane_args,
      const EcvProfile& profile, const EnergyCalibration* calibration) const;

  // Lanes per SoA tile in EnumerateFold: bounds per-pass atom storage while
  // keeping the number planes long enough to vectorize.
  static constexpr size_t kTileLanes = 64;

 private:
  Result<ExactFold> ScalarLaneFold(
      const std::vector<Value>& args, const EcvProfile& profile,
      const EnergyCalibration* calibration) const;

  const Evaluator* evaluator_;
  std::string interface_name_;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_BATCH_H_
