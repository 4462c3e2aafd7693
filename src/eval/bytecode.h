// Register bytecode for energy interfaces.
//
// The serving execution engine (see DESIGN.md, "Bytecode VM"): LoweredProgram
// is compiled once into a flat register-based instruction buffer — constant
// pool, pre-resolved call targets (direct code offsets instead of
// LoweredInterface* chasing), pre-rendered error statuses, and
// superinstructions for the hot term shapes (fused sum-of-terms accumulate,
// guarded ECV-branch select). A dispatch-loop interpreter then executes the
// buffer over one contiguous, reusable register stack.
//
// The compiler can additionally *specialize* a program against a fixed
// EcvProfile: every ECV site whose resolution is decided by the profile
// (override, static support, or static error) is baked into the code, so
// per-draw profile map lookups disappear. QueryService snapshots carry one
// specialized program per profile generation; profile swaps re-specialize
// from the already-lowered IR without re-lowering and never block readers.
//
// Parity contract: the bytecode engine is observationally identical to the
// tree walk — same values, probability bits, draw order, error codes *and
// messages* (tests/engine_parity_test.cc, tests/bytecode_test.cc, and the
// differential harness hold the line). It emits no trace events: a traced
// evaluator runs the tree walk (interp.h, EvalOptions::trace).
// Compilation is total for every program the lowerer accepts except
// degenerate register pressure (> 65535 live registers in one interface),
// where Compile() fails and the evaluator transparently falls back to the
// tree walk, counting the fallback.

#ifndef ECLARITY_SRC_EVAL_BYTECODE_H_
#define ECLARITY_SRC_EVAL_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/eval/ecv_profile.h"
#include "src/eval/exec_common.h"
#include "src/eval/interp.h"
#include "src/eval/lower.h"
#include "src/eval/vm_profile.h"
#include "src/lang/value.h"
#include "src/util/status.h"

namespace eclarity {

// The opcode list, declared once. X(name) expands it into the BcOp enum
// below and the VmOpName table in bytecode.cc; the dispatch loop is compiled
// against this order.
#define ECLARITY_BC_OPS(X)                                                          \
  X(kConst)         /* regs[a] = const_pool[imm] (no binary operand) */             \
  X(kMove)          /* regs[a] = regs[b] */                                         \
  X(kUnary)         /* regs[a] = sub regs[b]; error context ctx_pool[imm] */        \
  X(kBinary)        /* regs[a] = regs[b] sub regs[c]; error context ctx[imm] */     \
  X(kBinaryRK)      /* regs[a] = regs[b] sub const_pool[c] */                       \
  X(kBinaryKR)      /* regs[a] = const_pool[b] sub regs[c] */                       \
  X(kFoldChain)     /* regs[a] = fold of c steps from fold_steps[imm] (superop) */  \
  X(kJump)          /* pc = imm */                                                  \
  X(kAndShort)      /* regs[b] false ? regs[a]=false, pc=imm : fall through */      \
  X(kOrShort)       /* regs[b] true ? regs[a]=true, pc=imm : fall through */        \
  X(kBoolCast)      /* regs[a] = regs[b], which must be a bool */                   \
  X(kCondJump)      /* conditional expr: regs[b] false -> pc = imm */               \
  X(kBranch)        /* if stmt: regs[b] false -> else target */                     \
  X(kStep)          /* ++steps > max_steps -> status_pool[imm] */                   \
  X(kFail)          /* return status_pool[imm] */                                   \
  X(kBuiltin)       /* regs[a] = builtin(regs[b..b+c)); builtin_sites[imm] */       \
  X(kCall)          /* regs[a] = call ifaces[imm](regs[b..b+c)) */                  \
  X(kReturn)        /* return regs[a] from the current frame */                     \
  X(kForPrep)       /* regs[a]=bits(llround(AsNumber)), regs[b]=bits(... end) */    \
  X(kForNext)       /* i>=hi -> pc=end; else budget, regs[c]=Number(i) */           \
  X(kForIncJump)    /* ++i (bit-stored in regs[a]); pc = imm */                     \
  X(kEcvBegin)      /* profile override check; hit -> pc = draw target */           \
  X(kEcvStatic)     /* cur support = lowered static support */                      \
  X(kEcvBaked)      /* cur support = baked_supports[site.baked] (specialized) */    \
  X(kEcvCatOpen)    /* open a categorical accumulation level */                     \
  X(kEcvCatPush)    /* push (regs[b], AsNumber(regs[c])) onto the open level */     \
  X(kEcvDynBern)    /* cur support = Bernoulli(AsNumber(regs[b])) */                \
  X(kEcvDynUniform) /* cur support = uniform_int(regs[b], regs[c]) */               \
  X(kEcvDynCat)     /* cur support = Make(open level) */                            \
  X(kEcvDraw)       /* choose + store slot (ecv_sites[imm]) */                      \
  X(kEcvDrawBranch) /* kEcvDraw fused with an immediately-guarding if (superop) */

// One 12-byte instruction. `a` is the destination register, `b`/`c` are
// operand registers (a constant-pool index for the K side of kBinaryRK and
// kBinaryKR) or an argument base/count, `imm` indexes a pool or site table
// or is an absolute jump target. Registers are frame-relative; slots
// [0, frame_size) alias the lowered frame slots and expression temporaries
// live above them. An opcode builds a Status only when it fails: the
// operators run the inline kernel (TryApplyBinary, TryApplyUnary) and reach
// the out-of-line operator only when it declines, and the bool tests check
// is_bool() in place.
enum class BcOp : uint8_t {
#define ECLARITY_BC_ENUM(name) name,
  ECLARITY_BC_OPS(ECLARITY_BC_ENUM)
#undef ECLARITY_BC_ENUM
};

#define ECLARITY_BC_COUNT(name) +1
inline constexpr size_t kBcOpCount = 0 ECLARITY_BC_OPS(ECLARITY_BC_COUNT);
#undef ECLARITY_BC_COUNT
static_assert(kBcOpCount <= kVmOpCount,
              "grow kVmOpCount (src/eval/vm_profile.h) with the opcode list");

struct Instr {
  BcOp op = BcOp::kFail;
  uint8_t sub = 0;  // UnaryOp / BinaryOp payload
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint32_t imm = 0;
};

class BytecodeProgram {
 public:
  struct CompileOptions {
    // When non-null, bake ECV resolution against this profile. The
    // resulting program answers *only* for profiles with this fingerprint;
    // the evaluator checks before selecting it.
    const EcvProfile* specialize_profile = nullptr;
  };

  // Compiles every interface of `lowered`, which must outlive the result
  // (instructions reference lowered ECV metadata and pre-rendered operator
  // contexts in place). Fails only on register overflow; the caller is
  // expected to fall back to the tree walk.
  static Result<std::shared_ptr<const BytecodeProgram>> Compile(
      const LoweredProgram& lowered, const CompileOptions& options);
  static Result<std::shared_ptr<const BytecodeProgram>> Compile(
      const LoweredProgram& lowered) {
    return Compile(lowered, CompileOptions());
  }

  // The index of interface `name` for BytecodeInterpreter::Call, or the
  // error CallByName returns for an unknown name or a wrong argument count.
  // Resolving once serves every path or sample of a query.
  Result<uint32_t> Resolve(const std::string& name, size_t argc) const;

  // Introspection (tests, metrics).
  size_t instruction_count() const { return code_.size(); }
  size_t constant_pool_size() const { return const_pool_.size(); }
  size_t superinstruction_count() const { return superinstruction_count_; }
  bool specialized() const { return specialized_; }
  // EcvProfile::Fingerprint() of the baked profile (empty-profile
  // fingerprint when specialized against an empty profile).
  const std::string& specialization_fingerprint() const {
    return spec_fingerprint_;
  }

 private:
  friend class BytecodeCompiler;
  friend class BytecodeInterpreter;
  friend class VmProfiler;  // resolves interface names for profile merges

  struct BuiltinSite {
    const CallExpr* call = nullptr;
    const std::string* ctx = nullptr;
  };
  struct BranchSite {
    std::string prefix;  // "in 'iface' at L:C: if condition: "
    uint32_t else_target = 0;
  };
  struct ForSite {
    uint32_t budget_status = 0;
    uint32_t end_target = 0;
  };
  struct FoldStep {
    BinaryOp bop = BinaryOp::kAdd;
    bool from_pool = false;
    uint16_t src = 0;  // register or constant-pool index
    uint32_t ctx = 0;
  };
  struct EcvSite {
    const LEcv* ecv = nullptr;
    int slot = -1;
    uint32_t draw_target = 0;
    Status redef_error;     // stmt.error when the binding was rejected
    Status range_error;     // bernoulli probability out of [0,1]
    Status inverted_error;  // uniform_int with inverted bounds
    Status toolarge_error;  // uniform_int support too large
    std::string cat_prefix; // "in 'iface' at L:C: "
    int32_t baked = -1;     // index into baked_supports_ (kEcvBaked)
    uint32_t fused_step_status = 0;  // kEcvDrawBranch: the if's budget error
    uint32_t fused_branch = 0;       // kEcvDrawBranch: branch site
  };
  struct BcIface {
    const LoweredInterface* src = nullptr;
    uint32_t entry = 0;
    uint32_t nregs = 0;
    uint32_t frame_size = 0;
    Status depth_error;   // pre-rendered call-depth budget status
    Status falloff_error; // pre-rendered fell-off-the-end status
  };

  std::vector<Instr> code_;
  std::vector<Value> const_pool_;
  std::vector<Status> status_pool_;
  std::vector<const std::string*> ctx_pool_;  // lowered LExpr contexts
  std::vector<BuiltinSite> builtin_sites_;
  std::vector<BranchSite> branch_sites_;
  std::vector<ForSite> for_sites_;
  std::vector<FoldStep> fold_steps_;
  std::vector<EcvSite> ecv_sites_;
  std::vector<BcIface> ifaces_;
  std::unordered_map<std::string, uint32_t> index_;
  std::vector<EcvSupport> baked_supports_;
  bool specialized_ = false;
  std::string spec_fingerprint_;
  size_t superinstruction_count_ = 0;
};

// One execution of a compiled program: a dispatch loop over a flat register
// stack, with an explicit frame stack for nested interface calls. Mirrors
// the tree walk observable-step for observable-step. Reusable across runs
// (Reset()) — registers and frame storage are retained.
class BytecodeInterpreter {
 public:
  BytecodeInterpreter(const BytecodeProgram& bc, const EvalOptions& options,
                      const EcvProfile& profile,
                      eval_internal::Chooser& chooser);
  // Merges any accumulated profiling data into options.vm_profiler.
  ~BytecodeInterpreter();

  // Reuses this interpreter (and its register storage) for another run.
  void Reset();

  // Runs interface `iface`, an index BytecodeProgram::Resolve returned for
  // `args.size()` arguments.
  Result<Value> Call(uint32_t iface, const std::vector<Value>& args);
  Result<Value> CallByName(const std::string& name,
                           const std::vector<Value>& args);

 private:
  struct CallFrame {
    uint32_t ret_pc = 0;
    uint32_t ret_dst = 0;      // absolute register index
    uint32_t caller_base = 0;
    uint32_t caller_iface = 0;
  };

  // The dispatch loop is compiled twice: the kProfiled=false instantiation
  // is the production loop and carries no profiling instructions; the
  // kProfiled=true one counts every dispatch and times every
  // sample_interval-th instruction (src/eval/vm_profile.h). Run() picks the
  // instantiation once per call, so the hot loop itself stays branch-free
  // on the profiling question. The loop keeps the pc and the current
  // frame's register base in locals; `base_` follows calls and returns.
  Result<Value> Run(uint32_t pc) {
    return profiler_ != nullptr ? RunImpl<true>(pc) : RunImpl<false>(pc);
  }
  template <bool kProfiled>
  Result<Value> RunImpl(uint32_t pc);
  Result<const Value*> DrawEcv(const BytecodeProgram::EcvSite& site);
  void EnsureRegs(size_t needed);

  const BytecodeProgram& bc_;
  const EvalOptions& options_;
  const EcvProfile& profile_;
  eval_internal::Chooser& chooser_;
  VmProfiler* const profiler_;
  uint32_t prof_interval_ = 0;
  double prof_overhead_ns_ = 0.0;
  VmLocalProfile local_prof_;

  std::vector<Value> regs_;
  std::vector<CallFrame> frames_;
  uint32_t base_ = 0;
  uint32_t reg_top_ = 0;
  uint32_t cur_iface_ = 0;

  // ECV resolution scratch. Every control path into a draw sets
  // cur_support_ in the immediately preceding instruction, so nested draws
  // (inside dynamic-parameter evaluation) cannot clobber a pending one.
  // Categorical accumulation nests through calls, hence a stack of levels
  // rather than one vector.
  const EcvSupport* cur_support_ = nullptr;
  EcvSupport dyn_support_;
  std::vector<std::vector<std::pair<Value, double>>> cat_stack_;

  std::vector<Value> builtin_scratch_;
  size_t steps_ = 0;
  int depth_ = 0;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_BYTECODE_H_
