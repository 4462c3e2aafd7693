// EnergyInterface: the toolkit's primary public handle.
//
// An EnergyInterface bundles an EIL program with a designated entry
// interface and exposes the paper's uses of energy interfaces as methods:
//
//   * read    — ToSource() renders canonical EIL for humans;
//   * execute — Expected()/Distribution()/Paths() answer "how much energy
//               would this input cost?" a priori (paper §2);
//   * bound   — WorstCase() gives guaranteed envelopes (paper §4.1);
//   * retarget— Rebind() swaps the bottom-layer (hardware) interfaces to
//               move a stack to a different machine (paper §3: "only some of
//               the energy interfaces in the bottom layer need to be
//               replaced").

#ifndef ECLARITY_SRC_IFACE_ENERGY_INTERFACE_H_
#define ECLARITY_SRC_IFACE_ENERGY_INTERFACE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/dist/distribution.h"
#include "src/eval/interp.h"
#include "src/eval/interval.h"
#include "src/lang/ast.h"
#include "src/obs/provenance.h"
#include "src/units/abstract_energy.h"
#include "src/util/status.h"

namespace eclarity {

class EnergyInterface {
 public:
  // Parses `source`, checks it, and selects `entry` as the entry point.
  // Unresolved callees are rejected unless listed in `imports` (they must be
  // satisfied by a later Rebind/Merge before evaluation).
  static Result<EnergyInterface> FromSource(
      const std::string& source, const std::string& entry,
      const std::vector<std::string>& imports = {});

  // Wraps an existing program (checked the same way).
  static Result<EnergyInterface> FromProgram(
      Program program, const std::string& entry,
      const std::vector<std::string>& imports = {});

  // Moving transfers the program; the evaluator memo is rebuilt lazily in
  // the destination (it holds pointers into the program's old storage).
  EnergyInterface(EnergyInterface&& other) noexcept;
  EnergyInterface& operator=(EnergyInterface&& other) noexcept;

  const std::string& entry() const { return entry_; }
  const Program& program() const { return program_; }
  const std::vector<std::string>& params() const { return params_; }
  // Interfaces this program still imports (must be empty to evaluate).
  std::vector<std::string> UnresolvedImports() const;

  // --- Execution (delegates to Evaluator / IntervalEvaluator) -------------

  Result<Energy> Expected(const std::vector<Value>& args,
                          const EcvProfile& profile = {},
                          const EnergyCalibration* calibration = nullptr,
                          const EvalOptions& options = {}) const;

  Result<Distribution> EnergyDistribution(
      const std::vector<Value>& args, const EcvProfile& profile = {},
      const EnergyCalibration* calibration = nullptr,
      const EvalOptions& options = {}) const;

  // Certified evaluation through the analytic distribution algebra:
  // options.dist_mode selects the engine, and every answer carries a sound
  // bound |exact_mean - mean| <= mean_error_bound (zero when enumeration
  // answered: kEnumerate, or a query the analytic engines declined).
  Result<CertifiedDistribution> Certified(
      const std::vector<Value>& args, const EcvProfile& profile = {},
      const EnergyCalibration* calibration = nullptr,
      const EvalOptions& options = {}) const;

  Result<std::vector<WeightedOutcome>> Paths(
      const std::vector<Value>& args, const EcvProfile& profile = {},
      const EvalOptions& options = {}) const;

  Result<EnergyInterval> WorstCase(
      const std::vector<IntervalValue>& args, const EcvProfile& profile = {},
      const EnergyCalibration* calibration = nullptr,
      const IntervalOptions& options = {}) const;

  Result<Value> Sample(const std::vector<Value>& args,
                       const EcvProfile& profile, Rng& rng,
                       const EvalOptions& options = {}) const;

  // Energy provenance of one entry call (src/obs/provenance.h): the merged
  // call tree with the expectation attributed to individual energy terms.
  Result<ProvenanceTree> Provenance(
      const std::vector<Value>& args, const EcvProfile& profile = {},
      const ProvenanceOptions& options = {}) const;

  // --- Composition ----------------------------------------------------------

  // Returns a copy whose interfaces colliding with `layer` are replaced by
  // the versions in `layer`, and whose missing imports are satisfied from
  // `layer`. This is the §3 machine-retargeting operation.
  Result<EnergyInterface> Rebind(const Program& layer) const;

  // Merges `other` (no overwrites) to satisfy imports.
  Result<EnergyInterface> Link(const Program& other) const;

  // Canonical EIL source of the whole program.
  std::string ToSource() const;

 private:
  friend Result<EnergyInterface> MakeEnergyInterface(Program, std::string,
                                                     std::vector<std::string>);
  EnergyInterface(Program program, std::string entry,
                  std::vector<std::string> params)
      : program_(std::move(program)),
        entry_(std::move(entry)),
        params_(std::move(params)),
        memo_(std::make_shared<EvaluatorMemo>()) {}

  Status RequireClosed() const;

  // The memoised evaluator for the most recent EvalOptions. Keeping it
  // across calls preserves the lowered program (interface pre-binding, slot
  // tables) and the evaluator's fold slot, so repeated Expected() queries —
  // the resource-manager usage pattern — skip all setup work.
  struct EvaluatorMemo {
    std::mutex mu;
    std::shared_ptr<Evaluator> evaluator;
    EvalOptions options;
  };
  std::shared_ptr<Evaluator> EvaluatorFor(const EvalOptions& options) const;

  Program program_;
  std::string entry_;
  std::vector<std::string> params_;
  mutable std::shared_ptr<EvaluatorMemo> memo_;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_IFACE_ENERGY_INTERFACE_H_
