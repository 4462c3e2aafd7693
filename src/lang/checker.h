// Static checks over EIL programs.
//
// Interfaces are contracts, so a malformed interface should be rejected
// before anything evaluates it. CheckProgram verifies, per interface:
//
//   * every referenced name is defined (param, let, ecv, const, loop var);
//   * assignment targets exist and were declared `mut`;
//   * no redefinition within a scope, no shadowing of parameters;
//   * every control-flow path ends in a return;
//   * no statements after a return in the same block;
//   * call arity matches the callee's declaration (or a known builtin);
//   * ECV names are unique within an interface;
//   * calls resolve to interfaces in the program, builtins, or names listed
//     in `allow_unresolved` (imports satisfied later by composition).

#ifndef ECLARITY_SRC_LANG_CHECKER_H_
#define ECLARITY_SRC_LANG_CHECKER_H_

#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/lang/ast.h"
#include "src/util/status.h"

namespace eclarity {

struct CheckOptions {
  // Callee names that may remain unresolved (to be bound by later Merge).
  std::set<std::string> allow_unresolved;
  // When false (default), a call to an undefined non-builtin name is an
  // error; composition workflows set this to true and check closure later.
  bool allow_any_unresolved = false;
};

// Returns all problems found (empty means the program is well-formed).
std::vector<Status> CheckProgram(const Program& program,
                                 const CheckOptions& options = {});

// Convenience: first problem or OK.
Status CheckProgramOk(const Program& program, const CheckOptions& options = {});

// Collects the names of all ECVs declared anywhere in `decl`.
std::vector<std::string> CollectEcvNames(const InterfaceDecl& decl);

// --- Slot resolution (symbol tables for lowering) -------------------------
//
// Assigns every local binding in an interface (parameter, let, ecv, loop
// variable) a dense frame-slot index so the evaluator can replace
// string-keyed scope lookups with O(1) indexed loads. The walk mirrors the
// *dynamic* scoping rules of the tree-walking evaluator exactly — shadowing
// an outer scope allocates a fresh slot, a same-scope redefinition is a
// runtime error (encoded in the table, not reported here), and a `for` body
// gets a fresh scope per iteration — so a lowered program binds names to
// precisely the storage the tree walk would have used.

// How an assignment target resolves under the dynamic scoping rules.
enum class AssignResolution { kOk, kUndefined, kImmutable };

struct SlotTable {
  // Total number of value slots the interface's frame needs.
  size_t frame_size = 0;
  // Slot of each parameter, in declaration order. A repeated parameter name
  // maps to -1: binding it fails at call time in the dynamic semantics.
  std::vector<int> param_slots;
  // let / ecv / for statements -> slot of the variable they bind. -1 marks a
  // binding the dynamic semantics rejects (same-scope redefinition).
  std::unordered_map<const Stmt*, int> decl_slots;
  // VarRef -> slot. Absent means the name is not a local binding at that
  // point (a top-level const, or undefined — the consumer decides which).
  std::unordered_map<const Expr*, int> ref_slots;
  // AssignStmt -> (how the target resolves, slot when kOk).
  std::unordered_map<const Stmt*, std::pair<AssignResolution, int>> assigns;
};

// Builds the symbol table for one interface. Never fails: name errors are
// encoded in the table, because they must surface at evaluation time and
// only if the offending statement actually executes.
SlotTable ResolveSlots(const InterfaceDecl& decl);

// Collects names of interfaces called (transitively, within `program`)
// starting from `root`. Includes `root` itself. Unknown callees are skipped.
std::set<std::string> TransitiveCallees(const Program& program,
                                        const std::string& root);

}  // namespace eclarity

#endif  // ECLARITY_SRC_LANG_CHECKER_H_
