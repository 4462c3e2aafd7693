// The EIL interpreter: executable energy interfaces.
//
// An energy interface "can be executed ... to know a priori the energy that
// the resource would consume" (paper §2). Evaluator provides three
// executable views over one shared semantics:
//
//   * EvalSampled     — one run; ECVs drawn from their (possibly overridden)
//                       distributions. Monte Carlo building block.
//   * Enumerate       — exact: every reachable combination of ECV draws,
//                       with its probability and the resulting energy. This
//                       is simultaneously the paper's "return value is a
//                       probability distribution" (§3) and the per-path view
//                       used by the §4 workflows.
//   * EvalDistribution / ExpectedEnergy — the enumeration folded into a
//                       numeric distribution / expectation over Joules,
//                       resolving abstract units through a calibration.
//
// Two execution engines implement the same semantics (see DESIGN.md,
// "Evaluation fast path" and "Bytecode VM"):
//
//   * kBytecode (default) — lowers the program once (eval/lower), compiles
//     the lowered IR to register bytecode (eval/bytecode), and dispatches
//     over it. An interface too large to compile (more than 65535
//     registers) makes the evaluator run the tree walk instead, counted in
//     eclarity_eval_bytecode_fallback_total.
//   * kTreeWalk — the AST interpreter, kept as the executable
//     specification the bytecode engine is tested against. Observable
//     behaviour — values, probabilities, draw order, error codes and
//     messages — is identical on both. It is the only engine that emits
//     trace events, so a traced evaluator runs it (EvalOptions::trace).
//
// The interval/worst-case evaluator lives in interval.h; the shared AST and
// value semantics keep the two consistent.

#ifndef ECLARITY_SRC_EVAL_INTERP_H_
#define ECLARITY_SRC_EVAL_INTERP_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/dist/certified.h"
#include "src/dist/distribution.h"
#include "src/eval/ecv_profile.h"
#include "src/lang/ast.h"
#include "src/lang/value.h"
#include "src/units/abstract_energy.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace eclarity {

class AnalyticAnalysis;
class BytecodeProgram;
class LoweredProgram;
class TraceSink;
class VmProfiler;

enum class EvalEngine {
  kTreeWalk,  // reference AST interpreter
  kBytecode,  // lowered IR compiled to register bytecode (the default)
};

// How EvalCertified / EvalDistribution / ExpectedEnergy compute their
// answers (see DESIGN.md, "Analytic distribution algebra").
enum class DistMode {
  // Exact enumeration fold over every ECV assignment (the default, and the
  // only mode before the analytic algebra existed).
  kEnumerate,
  // Convolution/mixture algebra with mass-threshold pruning. Approximate,
  // but every answer carries a certified bound:
  // |exact_mean - mean| <= mean_error_bound. Programs outside the analyzable
  // shape are enumerated (exact == true, zero bound).
  kAnalyticBounded,
  // Mean/variance propagation only — no distribution is materialised. Same
  // bound contract and enumeration fallback as kAnalyticBounded.
  kAnalyticMoments,
};

struct EvalOptions {
  // Statement-execution budget per evaluation (guards runaway loops).
  size_t max_steps = 1'000'000;
  // Interface call depth budget (guards unbounded recursion).
  int max_call_depth = 64;
  // Budget on enumerated ECV assignments in Enumerate().
  size_t max_paths = 200'000;
  // Guard on the size of a single ECV's support (e.g. wide uniform_int).
  size_t max_ecv_support = 4096;
  // Which execution engine runs the program. Both produce identical
  // results; kBytecode transparently falls back to the tree walk when the
  // program does not compile (see DESIGN.md, "Bytecode VM") or `trace` is
  // set.
  EvalEngine engine = EvalEngine::kBytecode;
  // Switches the thread-local fold slot behind EvalDistribution and
  // ExpectedEnergy: 0 turns it off, any other value on (the slot holds one
  // answer whatever the value; the name predates it). Enumerate() never
  // caches.
  size_t enum_cache_capacity = 128;
  // Evaluation tracing (src/obs/trace.h). When set, the evaluator reports
  // structured events — interface enter/exit, ECV draws, branches, energy
  // terms, enumeration path markers — to the sink. Only the tree walk emits
  // them, so a traced evaluator runs it whatever `engine` says, neither
  // lowering nor compiling (counted in eclarity_eval_engine_treewalk_total),
  // and bypasses the fold slot (a slot hit would emit no events). Answers
  // are the untraced ones, bit for bit. The sink must outlive the
  // evaluator. nullptr (default) leaves the engine choice to `engine`.
  TraceSink* trace = nullptr;
  // Distribution-evaluation mode for EvalCertified / EvalDistribution /
  // ExpectedEnergy. Tracing forces kEnumerate behaviour (a traced evaluator
  // runs the tree walk, which the analytic engines do not serve).
  DistMode dist_mode = DistMode::kEnumerate;
  // kAnalyticBounded only: after each composition step, retained atoms with
  // probability strictly below this threshold are dropped; the dropped mass
  // is certified into CertifiedDistribution::mean_error_bound. 0 disables
  // pruning. A larger threshold never yields a tighter certified bound.
  double prune_threshold = 0.0;
  // Bytecode VM profiler (src/eval/vm_profile.h). When set, the bytecode
  // engine runs its profiled dispatch loop — per-opcode hit counters plus a
  // sampled instruction-site histogram merged into the profiler as each
  // interpreter retires. nullptr (default) selects the unprofiled loop,
  // which carries no profiling instructions at all. The profiler must
  // outlive the evaluator. Results are unaffected either way.
  VmProfiler* vm_profiler = nullptr;

  bool operator==(const EvalOptions&) const = default;
};

// One enumerated outcome: the energy produced under a specific sequence of
// ECV draws, its probability, and the draws themselves (qualified name ->
// drawn value, in draw order).
struct WeightedOutcome {
  Value value;
  double probability = 0.0;
  std::vector<std::pair<std::string, Value>> ecv_assignments;
};

// An exact answer: enumerated outcomes folded to their Joules distribution
// and its mean (see FoldOutcomes).
struct ExactFold {
  Distribution distribution;
  double mean = 0.0;
};

class Evaluator {
 public:
  // The program must outlive the evaluator. With the default bytecode
  // engine the program is lowered and compiled here, once.
  explicit Evaluator(const Program& program, EvalOptions options = {});
  ~Evaluator();

  // Not copyable or movable: holds lowered state pointing into `program`
  // plus mutex-guarded state. Every current use constructs in place.
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  const Program& program() const { return *program_; }
  const EvalOptions& options() const { return options_; }

  // Runs `interface_name` once on `args`; each ECV encountered is sampled
  // from its profile override or declared distribution using `rng`.
  Result<Value> EvalSampled(const std::string& interface_name,
                            const std::vector<Value>& args,
                            const EcvProfile& profile, Rng& rng) const;

  // Exactly enumerates every combination of ECV draws (depth-first over
  // choice points; handles ECVs inside loops and nested calls). Outcome
  // probabilities sum to 1. Fails with kResourceExhausted if more than
  // options.max_paths assignments exist. Never cached; thread-safe.
  Result<std::vector<WeightedOutcome>> Enumerate(
      const std::string& interface_name, const std::vector<Value>& args,
      const EcvProfile& profile) const;

  // Enumerate() folded to a Distribution over Joules. Abstract energy
  // returns are resolved through `calibration` (pass nullptr to require
  // fully concrete returns). Under kEnumerate, an immediate repeat on the
  // same thread is answered by the fold slot (see FoldShared).
  Result<Distribution> EvalDistribution(
      const std::string& interface_name, const std::vector<Value>& args,
      const EcvProfile& profile,
      const EnergyCalibration* calibration = nullptr) const;

  // Exact expected energy: Σ p_i * E_i.
  Result<Energy> ExpectedEnergy(
      const std::string& interface_name, const std::vector<Value>& args,
      const EcvProfile& profile,
      const EnergyCalibration* calibration = nullptr) const;

  // Monte Carlo: mean of `samples` sampled evaluations, in Joules. Used by
  // property tests to cross-validate Enumerate(). Samples run in chunks on
  // the calling thread; each chunk's RNG stream is forked from `rng` in
  // chunk order and chunk sums are reduced in that order, so the result for
  // a given seed and sample count is deterministic. Starts no threads.
  Result<Energy> MonteCarloMean(const std::string& interface_name,
                                const std::vector<Value>& args,
                                const EcvProfile& profile, Rng& rng,
                                size_t samples,
                                const EnergyCalibration* calibration = nullptr)
      const;

  // Certified evaluation through the analytic distribution algebra
  // (options.dist_mode selects the engine; kEnumerate, the tree-walk engine
  // and every query the analytic engines decline answer via exact
  // enumeration with a zero bound). Enumerated answers have exact == true
  // and distributions bit-identical to the enumeration fold; bounded/moments
  // answers certify |exact_mean - mean| <= mean_error_bound. Within one
  // call, each sub-interface answer is computed once per (callee,
  // arguments) and reused at every call site; nothing is kept across calls.
  // Thread-safe.
  Result<CertifiedDistribution> EvalCertified(
      const std::string& interface_name, const std::vector<Value>& args,
      const EcvProfile& profile,
      const EnergyCalibration* calibration = nullptr) const;

  // As EvalCertified, but with an explicit mode overriding
  // options().dist_mode (per-query mode selection, e.g. QueryService).
  Result<CertifiedDistribution> EvalCertifiedMode(
      const std::string& interface_name, const std::vector<Value>& args,
      const EcvProfile& profile, const EnergyCalibration* calibration,
      DistMode mode) const;

  // Bytecode engine only: compiles a program specialized against `profile`
  // (ECV profile decisions baked into the code; see DESIGN.md, "Bytecode
  // VM") and installs it for evaluations whose profile matches. Compilation
  // runs outside the selection lock, so concurrent readers keep answering
  // from the generic (or previously specialized) program — QueryService
  // calls this before publishing each snapshot. `profile` must stay alive
  // and unmodified while evaluations use it. No-op when the tree walk
  // serves; a failed specialization keeps the generic program serving.
  void PrepareSpecialized(const EcvProfile& profile) const;

  // Bytecode-engine observability (tests, metrics). bytecode() is the
  // generic program, or nullptr when the engine is not kBytecode or
  // compilation fell back; specialized_bytecode() is the program installed
  // by the last successful PrepareSpecialized.
  std::shared_ptr<const BytecodeProgram> bytecode() const { return bytecode_; }
  std::shared_ptr<const BytecodeProgram> specialized_bytecode() const;

  // Analytic-engine observability: evaluations, top-level or sub-interface,
  // answered analytically vs. fallen back to enumeration. A sub-interface
  // answer reused within one call counts neither.
  size_t analytic_hits() const {
    return analytic_hits_.load(std::memory_order_relaxed);
  }
  size_t analytic_fallbacks() const {
    return analytic_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  // The SoA batch engine (eval/batch) interprets lowered_ directly and
  // shares options_; it is an alternative execution frontend, not a client.
  friend class BatchPlan;

  // Bytecode program serving `profile`: the specialized program when its
  // baked profile matches (by address, then by fingerprint), the generic
  // program otherwise, nullptr when the tree walk serves.
  std::shared_ptr<const BytecodeProgram> PickBytecode(
      const EcvProfile& profile) const;

  // One folded enumeration. The calling thread's fold slot keeps the last
  // answer, keyed by (evaluator, interface, arguments, ECV profile,
  // calibration), so an immediate repeat skips the enumeration, fold and
  // Distribution build. The returned pointer stays valid until the calling
  // thread's next FoldShared call; callers consume it immediately.
  Result<const ExactFold*> FoldShared(
      const std::string& interface_name, const std::vector<Value>& args,
      const EcvProfile& profile, const EnergyCalibration* calibration) const;

  // Sub-interface answers within one top-level certified evaluation
  // (defined in interp.cc).
  struct CertifiedMemo;

  // EvalCertifiedMode's body: sub-interface calls resolve through `memo`,
  // which the top-level call owns.
  Result<CertifiedDistribution> EvalCertifiedMemo(
      const std::string& interface_name, const std::vector<Value>& args,
      const EcvProfile& profile, const EnergyCalibration* calibration,
      DistMode mode, CertifiedMemo& memo) const;

  // Exact enumeration folded into a CertifiedDistribution (exact == true,
  // zero bound). The universal fallback for every analytic mode.
  Result<CertifiedDistribution> EnumerateToCertified(
      const std::string& interface_name, const std::vector<Value>& args,
      const EcvProfile& profile, const EnergyCalibration* calibration) const;

  // Lazily builds (once) and returns the analytic shape analysis of the
  // lowered program. Requires lowered_ != nullptr.
  const AnalyticAnalysis* EnsureAnalysis() const;

  const Program* program_;
  EvalOptions options_;
  std::unique_ptr<LoweredProgram> lowered_;  // null when engine == kTreeWalk
  // Generic compiled program (kBytecode engine; null after a compile
  // fallback, when the tree walk serves). Immutable once constructed, so
  // reads need no lock.
  std::shared_ptr<const BytecodeProgram> bytecode_;

  // Profile-specialized program, swapped in by PrepareSpecialized. The flag
  // lets unspecialized evaluators skip the mutex entirely.
  mutable std::mutex spec_mu_;
  mutable std::atomic<bool> has_spec_{false};
  mutable std::shared_ptr<const BytecodeProgram> spec_bytecode_;
  mutable std::string spec_fingerprint_;
  mutable const EcvProfile* spec_profile_ = nullptr;

  // Distinguishes this evaluator in the thread-local fold slot (never
  // reused, so an evaluator reallocated at the same address cannot alias a
  // stale slot the way an address tag could).
  const uint64_t eval_id_;

  // Shape analysis, built on the first certified evaluation under
  // analytic_mu_ and immutable afterwards.
  mutable std::mutex analytic_mu_;
  mutable std::unique_ptr<const AnalyticAnalysis> analysis_;
  mutable std::atomic<uint64_t> analytic_hits_{0};
  mutable std::atomic<uint64_t> analytic_fallbacks_{0};
};

// Resolves an outcome's energy value to Joules (through `calibration` when
// abstract; nullptr requires concreteness).
Result<double> OutcomeJoules(const Value& value,
                             const EnergyCalibration* calibration);

// The exact fold: each outcome through OutcomeJoules, the atoms through
// Distribution::Categorical (canonical atom order), then Mean. Every exact
// answer — evaluator, batch lane, query service — is folded here, so they
// share bits.
Result<ExactFold> FoldOutcomes(const std::vector<WeightedOutcome>& outcomes,
                               const EnergyCalibration* calibration);

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_INTERP_H_
