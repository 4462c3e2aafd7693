// Lowered form of an EIL program: the input of the bytecode compiler, the
// batch engine and the analytic pass.
//
// Lowering runs once per Evaluator and removes every per-execution cost that
// is not genuinely dynamic:
//
//   * variable accesses become frame-slot indices (ResolveSlots in
//     lang/checker supplies the symbol tables);
//   * interface calls bind directly to the callee's LoweredInterface — no
//     per-call name lookup;
//   * pure numeric / unit / boolean subexpressions are constant-folded;
//   * ECV distributions with constant parameters get their support vectors
//     built ahead of time (profile overrides still win at evaluation time);
//   * operator error contexts ("in 'iface' at L:C") are pre-rendered so the
//     hot path never allocates strings for them.
//
// Lowering never fails. Constructs the dynamic semantics would reject —
// undefined names, arity mismatches, same-scope redefinitions, over-budget
// ECV supports — lower to error nodes that reproduce the tree-walking
// evaluator's status when, and only when, they actually execute, so checked
// and unchecked programs behave identically on both paths.

#ifndef ECLARITY_SRC_EVAL_LOWER_H_
#define ECLARITY_SRC_EVAL_LOWER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/eval/ecv_profile.h"
#include "src/lang/ast.h"
#include "src/lang/value.h"
#include "src/util/status.h"

namespace eclarity {

struct LoweredInterface;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class LExprKind {
  kConst,        // folded constant (literal, const decl, pure subexpression)
  kSlot,         // frame-slot load
  kUnary,
  kBinary,
  kConditional,
  kBuiltin,      // builtin call; name/string_args read from the AST node
  kCall,         // interface call, pre-bound to the callee
  kError,        // yields `error` when (and only when) evaluated
};

struct LExpr;
using LExprPtr = std::unique_ptr<LExpr>;

struct LExpr {
  explicit LExpr(LExprKind k) : kind(k) {}

  LExprKind kind;
  Value constant;                       // kConst
  int slot = -1;                        // kSlot
  UnaryOp uop = UnaryOp::kNeg;          // kUnary
  BinaryOp bop = BinaryOp::kAdd;        // kBinary
  std::vector<LExprPtr> children;       // operands / call arguments
  const CallExpr* call_src = nullptr;   // kBuiltin: callee name + string args
  const LoweredInterface* callee = nullptr;  // kCall (nullptr: unknown)
  Status call_error;                    // kCall: unknown callee / bad arity;
                                        // raised after the arguments evaluate
  std::string context;                  // pre-rendered "in 'iface' at L:C"
  Status error;                         // kError
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class LStmtKind { kStore, kAssign, kEcv, kIf, kFor, kReturn };

struct LStmt;
using LStmtPtr = std::unique_ptr<LStmt>;

// An ECV choice point. `static_support` / `static_error` capture the
// declared distribution when its parameters folded to constants; otherwise
// `params` is evaluated per execution, exactly like the tree walk.
struct LEcv {
  std::string qualified;  // "iface.ecv": profile lookup + outcome label
  std::string bare;       // unqualified name, for bare profile overrides
  EcvDistKind dist_kind = EcvDistKind::kBernoulli;
  std::vector<LExprPtr> params;
  std::optional<EcvSupport> static_support;
  Status static_error;  // non-OK: the constant distribution is invalid
};

struct LStmt {
  explicit LStmt(LStmtKind k) : kind(k) {}

  LStmtKind kind;
  int line = 0;
  int column = 0;

  // kStore (let), kAssign, kEcv, kFor: slot of the bound variable. -1 marks
  // a binding the dynamic semantics rejects; `error` carries the status.
  int slot = -1;
  Status error;

  LExprPtr a;  // let init / assign value / if condition / for begin / return
  LExprPtr b;  // for end
  std::vector<LStmtPtr> then_block;  // if-then / for body
  std::vector<LStmtPtr> else_block;
  std::unique_ptr<LEcv> ecv;
};

// ---------------------------------------------------------------------------
// Interfaces and programs
// ---------------------------------------------------------------------------

struct LoweredInterface {
  const InterfaceDecl* decl = nullptr;
  size_t frame_size = 0;
  // Frame slot of each parameter. A duplicated parameter name sets
  // `entry_error` instead; it fires when the interface is called.
  std::vector<int> param_slots;
  Status entry_error;
  std::vector<LStmtPtr> body;
};

class LoweredProgram {
 public:
  // Lowers every interface of `program`, which must outlive the result.
  // `max_ecv_support` mirrors EvalOptions::max_ecv_support so statically
  // over-budget ECV supports lower to the same kResourceExhausted error the
  // tree walk reports. Energy literals fold like any other constant: a
  // traced evaluator never lowers, since only the tree walk emits events.
  static LoweredProgram Lower(const Program& program, size_t max_ecv_support);

  const LoweredInterface* Find(const std::string& name) const {
    const auto it = index_.find(name);
    return it == index_.end() ? nullptr : it->second;
  }

  // Declaration-ordered view of every lowered interface (the bytecode
  // compiler walks this to assign code-buffer entry points).
  const std::vector<std::unique_ptr<LoweredInterface>>& interfaces() const {
    return interfaces_;
  }

 private:
  std::vector<std::unique_ptr<LoweredInterface>> interfaces_;
  std::unordered_map<std::string, const LoweredInterface*> index_;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_LOWER_H_
