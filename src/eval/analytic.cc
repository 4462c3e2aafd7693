#include "src/eval/analytic.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/eval/builtins.h"

namespace eclarity {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

bool HasCall(const LExpr& e) {
  if (e.kind == LExprKind::kCall) {
    return true;
  }
  for (const LExprPtr& c : e.children) {
    if (HasCall(*c)) {
      return true;
    }
  }
  return false;
}

// Number of kSlot reads of `slot` anywhere in `e`.
size_t CountSlotReads(const LExpr& e, int slot) {
  size_t n = e.kind == LExprKind::kSlot && e.slot == slot ? 1 : 0;
  for (const LExprPtr& c : e.children) {
    n += CountSlotReads(*c, slot);
  }
  return n;
}

void CollectSlotReads(const LExpr& e, std::unordered_map<int, size_t>* reads) {
  if (e.kind == LExprKind::kSlot) {
    ++(*reads)[e.slot];
  }
  for (const LExprPtr& c : e.children) {
    CollectSlotReads(*c, reads);
  }
}

// True when every execution of `block` ends in a return: the walkers use
// this to decide whether an if-arm is a sub-tree (recurse) or a straight
// line of simple statements (execute and continue).
bool BlockTerminal(const std::vector<LStmtPtr>& block) {
  for (const LStmtPtr& stmt : block) {
    if (stmt->kind == LStmtKind::kReturn) {
      return true;
    }
    if (stmt->kind == LStmtKind::kIf && BlockTerminal(stmt->then_block) &&
        BlockTerminal(stmt->else_block)) {
      return true;
    }
  }
  return false;
}

// Deterministic expression evaluation over a slot frame: the lowered-IR
// mirror of the tree walk's Eval minus tracing (the analytic engines never
// run under a trace sink) and minus interface calls (rejected by the
// analysis in deterministic positions). Shares ApplyBinary / ApplyUnary /
// ApplyBuiltin with both interpreters, so values are bit-identical.
Result<Value> EvalDet(const LExpr& e, const std::vector<Value>& frame) {
  switch (e.kind) {
    case LExprKind::kConst:
      return e.constant;
    case LExprKind::kSlot:
      return frame[e.slot];
    case LExprKind::kError:
      return e.error;
    case LExprKind::kUnary: {
      ECLARITY_ASSIGN_OR_RETURN(Value operand, EvalDet(*e.children[0], frame));
      return ApplyUnary(e.uop, operand, e.context);
    }
    case LExprKind::kBinary: {
      if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
        ECLARITY_ASSIGN_OR_RETURN(Value lhs, EvalDet(*e.children[0], frame));
        ECLARITY_ASSIGN_OR_RETURN(bool lv, lhs.AsBool());
        if (e.bop == BinaryOp::kAnd && !lv) {
          return Value::Bool(false);
        }
        if (e.bop == BinaryOp::kOr && lv) {
          return Value::Bool(true);
        }
        ECLARITY_ASSIGN_OR_RETURN(Value rhs, EvalDet(*e.children[1], frame));
        ECLARITY_ASSIGN_OR_RETURN(bool rv, rhs.AsBool());
        return Value::Bool(rv);
      }
      ECLARITY_ASSIGN_OR_RETURN(Value lhs, EvalDet(*e.children[0], frame));
      ECLARITY_ASSIGN_OR_RETURN(Value rhs, EvalDet(*e.children[1], frame));
      return ApplyBinary(e.bop, lhs, rhs, e.context);
    }
    case LExprKind::kConditional: {
      ECLARITY_ASSIGN_OR_RETURN(Value cond, EvalDet(*e.children[0], frame));
      ECLARITY_ASSIGN_OR_RETURN(bool truth, cond.AsBool());
      return EvalDet(*e.children[truth ? 1 : 2], frame);
    }
    case LExprKind::kBuiltin: {
      std::vector<Value> args;
      args.reserve(e.children.size());
      for (const LExprPtr& child : e.children) {
        ECLARITY_ASSIGN_OR_RETURN(Value v, EvalDet(*child, frame));
        args.push_back(std::move(v));
      }
      return ApplyBuiltin(e.call_src->callee, args, e.call_src->string_args,
                          e.context);
    }
    case LExprKind::kCall:
      return InternalError("interface call in deterministic context");
  }
  return InternalError("unknown expression kind");
}

// Resolved support for one draw, in the interpreters' resolution order:
// profile override first, then static error, static support, dynamic
// parameters. All values and probabilities are produced by
// the same code paths the interpreters use (EcvSupport::Bernoulli / Make),
// so they are bit-identical. Failures here are anomalies — the enumeration
// fallback reproduces the precise status and message.
Result<const EcvSupport*> ResolveSupport(const LStmt& stmt,
                                         const EcvProfile& profile,
                                         const EvalOptions& options,
                                         const std::vector<Value>& frame,
                                         EcvSupport* storage) {
  const LEcv& ecv = *stmt.ecv;
  if (!profile.empty()) {
    if (const EcvSupport* s = profile.FindQualified(ecv.qualified, ecv.bare)) {
      return s;
    }
  }
  if (!ecv.static_error.ok()) {
    return ecv.static_error;
  }
  if (ecv.static_support.has_value()) {
    return &*ecv.static_support;
  }
  switch (ecv.dist_kind) {
    case EcvDistKind::kBernoulli: {
      ECLARITY_ASSIGN_OR_RETURN(Value p_v, EvalDet(*ecv.params[0], frame));
      ECLARITY_ASSIGN_OR_RETURN(double p, p_v.AsNumber());
      if (p < 0.0 || p > 1.0) {
        return InvalidArgumentError("bernoulli probability out of [0,1]");
      }
      *storage = EcvSupport::Bernoulli(p);
      return storage;
    }
    case EcvDistKind::kUniformInt: {
      ECLARITY_ASSIGN_OR_RETURN(Value lo_v, EvalDet(*ecv.params[0], frame));
      ECLARITY_ASSIGN_OR_RETURN(Value hi_v, EvalDet(*ecv.params[1], frame));
      ECLARITY_ASSIGN_OR_RETURN(double lo_n, lo_v.AsNumber());
      ECLARITY_ASSIGN_OR_RETURN(double hi_n, hi_v.AsNumber());
      const int64_t lo = static_cast<int64_t>(std::llround(lo_n));
      const int64_t hi = static_cast<int64_t>(std::llround(hi_n));
      if (hi < lo) {
        return InvalidArgumentError("uniform_int with inverted bounds");
      }
      const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
      if (span > options.max_ecv_support) {
        return ResourceExhaustedError("uniform_int support too large");
      }
      std::vector<std::pair<Value, double>> outcomes;
      outcomes.reserve(span);
      for (int64_t v = lo; v <= hi; ++v) {
        outcomes.emplace_back(Value::Number(static_cast<double>(v)), 1.0);
      }
      ECLARITY_ASSIGN_OR_RETURN(*storage,
                                EcvSupport::Make(std::move(outcomes)));
      return storage;
    }
    case EcvDistKind::kCategorical: {
      std::vector<std::pair<Value, double>> outcomes;
      for (size_t i = 0; i + 1 < ecv.params.size(); i += 2) {
        ECLARITY_ASSIGN_OR_RETURN(Value v, EvalDet(*ecv.params[i], frame));
        ECLARITY_ASSIGN_OR_RETURN(Value p_v,
                                  EvalDet(*ecv.params[i + 1], frame));
        ECLARITY_ASSIGN_OR_RETURN(double p, p_v.AsNumber());
        outcomes.emplace_back(std::move(v), p);
      }
      ECLARITY_ASSIGN_OR_RETURN(*storage,
                                EcvSupport::Make(std::move(outcomes)));
      return storage;
    }
  }
  return InternalError("unknown ECV distribution kind");
}

}  // namespace

// ---------------------------------------------------------------------------
// Shape analysis
// ---------------------------------------------------------------------------

class AnalyticAnalyzer {
 public:
  std::unordered_map<const LoweredInterface*, AnalyticShape> Run(
      const Program& program, const LoweredProgram& lowered) {
    for (const InterfaceDecl& decl : program.interfaces()) {
      if (const LoweredInterface* iface = lowered.Find(decl.name)) {
        Get(iface);
      }
    }
    return std::move(shapes_);
  }

 private:
  struct BlockCheck {
    bool ok = true;
    std::string reason;
    bool terminal = false;
    size_t max_stmts = 0;
    int call_depth = 1;
  };

  const AnalyticShape& Get(const LoweredInterface* iface) {
    const auto it = shapes_.find(iface);
    if (it != shapes_.end()) {
      return it->second;
    }
    if (!in_progress_.insert(iface).second) {
      AnalyticShape s;
      s.reason = "recursive call cycle";
      return shapes_.emplace(iface, std::move(s)).first->second;
    }
    AnalyticShape s = Compute(*iface);
    in_progress_.erase(iface);
    return shapes_.insert_or_assign(iface, std::move(s)).first->second;
  }

  AnalyticShape Compute(const LoweredInterface& iface) {
    AnalyticShape s;
    if (iface.decl == nullptr || !iface.entry_error.ok()) {
      s.reason = "interface entry error";
      return s;
    }
    BlockCheck c = CheckBlock(iface.body);
    if (!c.ok) {
      s.reason = c.reason;
      return s;
    }
    if (!c.terminal) {
      s.reason = "body may fall off the end";
      return s;
    }
    s.exact_ok = true;
    s.max_path_stmts = c.max_stmts;
    s.call_depth = c.call_depth;
    ClassifyIncrements(iface, &s);
    return s;
  }

  // Deterministic-expression admissibility: no interface calls, no
  // unresolvable nodes. (Runtime *value* errors — type mismatches, division
  // by zero — are fine: the engines abort and the fallback reproduces them.)
  bool DetOk(const LExpr& e, std::string* reason) {
    if (e.kind == LExprKind::kCall) {
      *reason = "interface call in deterministic position";
      return false;
    }
    if (e.kind == LExprKind::kError) {
      *reason = "unresolvable expression";
      return false;
    }
    for (const LExprPtr& c : e.children) {
      if (!DetOk(*c, reason)) {
        return false;
      }
    }
    return true;
  }

  // Return expressions: at most one interface call, not inside
  // short-circuit operands, builtin arguments, or another call's arguments;
  // the callee itself must be analyzable.
  bool CheckReturn(const LExpr& e, size_t* calls, size_t* callee_stmts,
                   int* callee_depth, std::string* reason) {
    switch (e.kind) {
      case LExprKind::kCall: {
        if (++*calls > 1) {
          *reason = "multiple interface calls in one return";
          return false;
        }
        if (e.callee == nullptr || !e.call_error.ok()) {
          *reason = "unresolved interface call";
          return false;
        }
        for (const LExprPtr& arg : e.children) {
          if (!DetOk(*arg, reason)) {
            return false;
          }
        }
        const AnalyticShape& cs = Get(e.callee);
        if (!cs.exact_ok) {
          *reason = "callee not analyzable: " + cs.reason;
          return false;
        }
        *callee_stmts = cs.max_path_stmts;
        *callee_depth = cs.call_depth;
        return true;
      }
      case LExprKind::kBinary:
        if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
          // Short-circuit operands must be call-free (conditional
          // evaluation of a callee's draws would change the path set).
          return DetOk(e, reason);
        }
        return CheckReturn(*e.children[0], calls, callee_stmts, callee_depth,
                           reason) &&
               CheckReturn(*e.children[1], calls, callee_stmts, callee_depth,
                           reason);
      case LExprKind::kUnary:
        return CheckReturn(*e.children[0], calls, callee_stmts, callee_depth,
                           reason);
      case LExprKind::kConditional:
        // The condition must be call-free; each branch may carry the call
        // (the total across the whole expression still being one).
        return DetOk(*e.children[0], reason) &&
               CheckReturn(*e.children[1], calls, callee_stmts, callee_depth,
                           reason) &&
               CheckReturn(*e.children[2], calls, callee_stmts, callee_depth,
                           reason);
      case LExprKind::kBuiltin:
        return DetOk(e, reason);
      case LExprKind::kConst:
      case LExprKind::kSlot:
        return true;
      case LExprKind::kError:
        *reason = "unresolvable expression";
        return false;
    }
    *reason = "unknown expression kind";
    return false;
  }

  BlockCheck CheckBlock(const std::vector<LStmtPtr>& block) {
    BlockCheck c;
    auto fail = [&c](const std::string& why) {
      c.ok = false;
      c.reason = why;
      return c;
    };
    for (const LStmtPtr& stmt : block) {
      switch (stmt->kind) {
        case LStmtKind::kStore:
        case LStmtKind::kAssign: {
          if (stmt->slot < 0) {
            return fail("rejected binding");
          }
          std::string why;
          if (!DetOk(*stmt->a, &why)) {
            return fail(why);
          }
          c.max_stmts += 1;
          break;
        }
        case LStmtKind::kEcv: {
          if (stmt->slot < 0) {
            return fail("rejected ECV binding");
          }
          std::string why;
          for (const LExprPtr& p : stmt->ecv->params) {
            if (!DetOk(*p, &why)) {
              return fail(why);
            }
          }
          c.max_stmts += 1;
          break;
        }
        case LStmtKind::kIf: {
          std::string why;
          if (!DetOk(*stmt->a, &why)) {
            return fail(why);
          }
          size_t then_stmts = 0;
          size_t else_stmts = 0;
          bool then_term = false;
          bool else_term = false;
          if (!CheckArm(stmt->then_block, &then_stmts, &then_term, &c, &why) ||
              !CheckArm(stmt->else_block, &else_stmts, &else_term, &c, &why)) {
            return fail(why);
          }
          c.max_stmts += 1 + std::max(then_stmts, else_stmts);
          if (then_term && else_term) {
            // Both arms return; anything after this statement is dead.
            c.terminal = true;
            return c;
          }
          break;
        }
        case LStmtKind::kFor:
          return fail("for loop");
        case LStmtKind::kReturn: {
          size_t calls = 0;
          size_t callee_stmts = 0;
          int callee_depth = 0;
          std::string why;
          if (!CheckReturn(*stmt->a, &calls, &callee_stmts, &callee_depth,
                           &why)) {
            return fail(why);
          }
          c.max_stmts += 1 + callee_stmts;
          if (calls > 0) {
            c.call_depth = std::max(c.call_depth, 1 + callee_depth);
          }
          c.terminal = true;
          return c;
        }
      }
    }
    return c;  // fell through: terminal stays false
  }

  // One if-arm: either a terminal sub-tree (recursively checked) or a
  // straight line of deterministic stores/assigns.
  bool CheckArm(const std::vector<LStmtPtr>& arm, size_t* stmts, bool* term,
                BlockCheck* parent, std::string* reason) {
    if (BlockTerminal(arm)) {
      BlockCheck sub = CheckBlock(arm);
      if (!sub.ok) {
        *reason = sub.reason;
        return false;
      }
      parent->call_depth = std::max(parent->call_depth, sub.call_depth);
      *stmts = sub.max_stmts;
      *term = true;
      return true;
    }
    for (const LStmtPtr& stmt : arm) {
      if (stmt->kind != LStmtKind::kStore && stmt->kind != LStmtKind::kAssign) {
        *reason = "non-trivial statement in a non-terminal branch";
        return false;
      }
      if (stmt->slot < 0) {
        *reason = "rejected binding";
        return false;
      }
      std::string why;
      if (!DetOk(*stmt->a, &why)) {
        *reason = why;
        return false;
      }
    }
    *stmts = arm.size();
    *term = false;
    return true;
  }

  // -------------------------------------------------------------------------
  // Increment classification (conv vs. mix draws) + accumulator discipline
  // -------------------------------------------------------------------------

  struct Candidate {
    const LStmt* add_stmt = nullptr;
    AnalyticIncrement inc;
    int target = -1;
    size_t reads = 0;  // reads of the drawn slot attributable to this site
    bool duplicate = false;
  };

  // Parses `arm` as the body of a guarded increment: empty, or exactly one
  // `acc = acc + T`. Returns false when it is anything else.
  static bool ParseGuardArm(const std::vector<LStmtPtr>& arm, int* target,
                            const LExpr** term) {
    *term = nullptr;
    if (arm.empty()) {
      return true;
    }
    if (arm.size() != 1 || arm[0]->kind != LStmtKind::kAssign ||
        arm[0]->slot < 0) {
      return false;
    }
    const LExpr& a = *arm[0]->a;
    if (a.kind != LExprKind::kBinary || a.bop != BinaryOp::kAdd ||
        a.children[0]->kind != LExprKind::kSlot ||
        a.children[0]->slot != arm[0]->slot) {
      return false;
    }
    if (*target >= 0 && *target != arm[0]->slot) {
      return false;
    }
    *target = arm[0]->slot;
    *term = a.children[1].get();
    return true;
  }

  void ClassifyIncrements(const LoweredInterface& iface, AnalyticShape* s) {
    // Draw slots, total reads of each slot, candidate sites, and the
    // accumulator write/read discipline are all gathered in one recursive
    // scan. `visible` marks blocks the analytic walkers step through
    // statement by statement (the body and terminal if-arms); only those
    // may host increment sites.
    std::unordered_map<int, const LStmt*> draw_of_slot;
    std::unordered_map<int, size_t> reads;
    std::unordered_map<int, Candidate> candidates;  // keyed by draw slot
    std::vector<const LStmt*> returns;
    struct AccWrite {
      const LStmt* stmt;
      bool add_form;  // `acc = acc + T` (T captured in term)
      const LExpr* term;
      bool is_store;
    };
    std::vector<AccWrite> writes;  // filled for every kStore/kAssign

    // Pass 1: draw slots.
    CollectDraws(iface.body, &draw_of_slot);

    auto is_ecv_slot = [&](int slot) { return draw_of_slot.count(slot) > 0; };
    auto term_reads_ecv_only = [&](const LExpr& t, int allowed_slot,
                                   size_t* allowed_reads) {
      std::unordered_map<int, size_t> r;
      CollectSlotReads(t, &r);
      *allowed_reads = 0;
      for (const auto& [slot, n] : r) {
        if (slot == allowed_slot) {
          *allowed_reads = n;
          continue;
        }
        if (is_ecv_slot(slot)) {
          return false;  // reads a second draw: not a single-draw site
        }
      }
      return true;
    };

    // Pass 2: reads, candidates, writes, returns.
    std::function<void(const std::vector<LStmtPtr>&, bool)> scan =
        [&](const std::vector<LStmtPtr>& block, bool visible) {
          for (const LStmtPtr& stmt : block) {
            switch (stmt->kind) {
              case LStmtKind::kStore:
              case LStmtKind::kAssign: {
                CollectSlotReads(*stmt->a, &reads);
                const LExpr& a = *stmt->a;
                const bool add_form =
                    a.kind == LExprKind::kBinary && a.bop == BinaryOp::kAdd &&
                    a.children[0]->kind == LExprKind::kSlot &&
                    a.children[0]->slot == stmt->slot;
                writes.push_back({stmt.get(), add_form,
                                  add_form ? a.children[1].get() : nullptr,
                                  stmt->kind == LStmtKind::kStore});
                // Value-form candidate: `acc = acc + T` with T reading
                // exactly one drawn slot.
                if (visible && add_form && stmt->kind == LStmtKind::kAssign) {
                  std::unordered_map<int, size_t> tr;
                  CollectSlotReads(*a.children[1], &tr);
                  int draw_slot = -1;
                  size_t draw_reads = 0;
                  bool single = true;
                  for (const auto& [slot, n] : tr) {
                    if (!is_ecv_slot(slot)) {
                      continue;
                    }
                    if (draw_slot >= 0) {
                      single = false;
                      break;
                    }
                    draw_slot = slot;
                    draw_reads = n;
                  }
                  if (single && draw_slot >= 0 &&
                      tr.find(stmt->slot) == tr.end()) {
                    Candidate cand;
                    cand.add_stmt = stmt.get();
                    cand.inc.draw = draw_of_slot[draw_slot];
                    cand.inc.value_term = a.children[1].get();
                    cand.target = stmt->slot;
                    cand.reads = draw_reads;
                    auto [it, fresh] =
                        candidates.emplace(draw_slot, std::move(cand));
                    if (!fresh) {
                      it->second.duplicate = true;
                    }
                  }
                }
                break;
              }
              case LStmtKind::kEcv:
                for (const LExprPtr& p : stmt->ecv->params) {
                  CollectSlotReads(*p, &reads);
                }
                break;
              case LStmtKind::kIf: {
                CollectSlotReads(*stmt->a, &reads);
                // Guard-form candidate: `if (b) { acc = acc + T } [else ...]`
                // with a drawn boolean as the whole condition.
                bool matched = false;
                if (visible && stmt->a->kind == LExprKind::kSlot &&
                    is_ecv_slot(stmt->a->slot)) {
                  const int e_slot = stmt->a->slot;
                  int target = -1;
                  const LExpr* then_term = nullptr;
                  const LExpr* else_term = nullptr;
                  if (ParseGuardArm(stmt->then_block, &target, &then_term) &&
                      ParseGuardArm(stmt->else_block, &target, &else_term) &&
                      (then_term != nullptr || else_term != nullptr)) {
                    size_t dummy = 0;
                    const bool terms_ok =
                        (then_term == nullptr ||
                         (term_reads_ecv_only(*then_term, -1, &dummy) &&
                          CountSlotReads(*then_term, target) == 0)) &&
                        (else_term == nullptr ||
                         (term_reads_ecv_only(*else_term, -1, &dummy) &&
                          CountSlotReads(*else_term, target) == 0));
                    if (terms_ok) {
                      Candidate cand;
                      cand.add_stmt = stmt.get();
                      cand.inc.draw = draw_of_slot[e_slot];
                      cand.inc.then_term = then_term;
                      cand.inc.else_term = else_term;
                      cand.target = target;
                      cand.reads = 1;  // the guard itself
                      auto [it, fresh] =
                          candidates.emplace(e_slot, std::move(cand));
                      if (!fresh) {
                        it->second.duplicate = true;
                      }
                      matched = true;
                      // The arm terms still count as reads (of det slots
                      // only) and the arm assigns as writes:
                      for (const std::vector<LStmtPtr>* arm :
                           {&stmt->then_block, &stmt->else_block}) {
                        for (const LStmtPtr& a : *arm) {
                          CollectSlotReads(*a->a, &reads);
                          writes.push_back(
                              {a.get(), true, a->a->children[1].get(), false});
                        }
                      }
                    }
                  }
                }
                if (!matched) {
                  scan(stmt->then_block,
                       visible && BlockTerminal(stmt->then_block));
                  scan(stmt->else_block,
                       visible && BlockTerminal(stmt->else_block));
                  if (BlockTerminal(stmt->then_block) &&
                      BlockTerminal(stmt->else_block)) {
                    return;  // statements after a terminal if are dead
                  }
                }
                break;
              }
              case LStmtKind::kFor:
                break;  // rejected earlier; unreachable
              case LStmtKind::kReturn:
                CollectSlotReads(*stmt->a, &reads);
                returns.push_back(stmt.get());
                return;  // statements after a return are dead
            }
          }
        };
    scan(iface.body, /*visible=*/true);

    // Conv draws: a unique candidate site accounts for every read of the
    // drawn slot. Everything else expands as a mixture.
    int acc = -1;
    bool multiple_accs = false;
    for (auto& [slot, cand] : candidates) {
      if (cand.duplicate || reads[slot] != cand.reads) {
        continue;
      }
      if (acc >= 0 && acc != cand.target) {
        multiple_accs = true;
        break;
      }
      acc = cand.target;
      s->conv_pair[cand.inc.draw] = cand.add_stmt;
      s->increments[cand.add_stmt] = cand.inc;
    }
    if (multiple_accs) {
      s->conv_pair.clear();
      s->increments.clear();
      s->bounded_ok = false;
      s->reason = "increments target multiple accumulators";
      return;
    }

    // Mixture-only interfaces are bounded-evaluable with no further
    // discipline: every draw binds its slot and everything downstream is
    // evaluated concretely per branch.
    if (s->increments.empty()) {
      s->bounded_ok = true;
      return;
    }

    // Accumulator discipline, required because the approximate walker keeps
    // pending increments out of the frame until the leaf:
    //  * acc is written only by its initial store and add-form assigns
    //    whose term never reads acc;
    //  * acc is read only inside those adds and in return expressions;
    //  * every return is linear in acc: reads it exactly once, through a
    //    chain of additions from the root.
    for (const AccWrite& w : writes) {
      if (w.stmt->slot != acc) {
        continue;
      }
      if (w.is_store) {
        if (CountSlotReads(*w.stmt->a, acc) != 0) {
          s->reason = "accumulator initializer reads the accumulator";
          return;  // bounded_ok stays false
        }
        continue;
      }
      if (!w.add_form || CountSlotReads(*w.term, acc) != 0) {
        s->reason = "accumulator overwritten outside the add form";
        return;
      }
    }
    // Read accounting: every read of acc must be the `acc` operand of an
    // add-form write or sit inside a return.
    size_t allowed = 0;
    for (const AccWrite& w : writes) {
      if (w.stmt->slot == acc && w.add_form) {
        allowed += 1;  // the kSlot(acc) left operand
      }
    }
    for (const LStmt* ret : returns) {
      allowed += CountSlotReads(*ret->a, acc);
    }
    if (reads[acc] != allowed) {
      s->reason = "accumulator read outside adds and returns";
      return;
    }
    for (const LStmt* ret : returns) {
      if (!ReturnLinearInAcc(*ret->a, acc)) {
        s->reason = "return is not linear in the accumulator";
        return;
      }
    }
    s->bounded_ok = true;
  }

  static void CollectDraws(const std::vector<LStmtPtr>& block,
                           std::unordered_map<int, const LStmt*>* draws) {
    for (const LStmtPtr& stmt : block) {
      if (stmt->kind == LStmtKind::kEcv && stmt->slot >= 0) {
        // Two draws sharing a slot would be ambiguous; lowering gives each
        // variable its own slot, but stay defensive: drop both.
        auto [it, fresh] = draws->emplace(stmt->slot, stmt.get());
        if (!fresh) {
          it->second = nullptr;
        }
      }
      CollectDraws(stmt->then_block, draws);
      CollectDraws(stmt->else_block, draws);
    }
    // Erase ambiguous entries.
    for (auto it = draws->begin(); it != draws->end();) {
      it = it->second == nullptr ? draws->erase(it) : std::next(it);
    }
  }

  // True when `e` reads `acc` exactly once, reachable from the root through
  // kAdd nodes only (coefficient +1), so pending increments add linearly.
  static bool ReturnLinearInAcc(const LExpr& e, int acc) {
    if (CountSlotReads(e, acc) != 1) {
      return false;
    }
    const LExpr* cur = &e;
    for (;;) {
      if (cur->kind == LExprKind::kSlot && cur->slot == acc) {
        return true;
      }
      if (cur->kind != LExprKind::kBinary || cur->bop != BinaryOp::kAdd) {
        return false;
      }
      cur = CountSlotReads(*cur->children[0], acc) == 1
                ? cur->children[0].get()
                : cur->children[1].get();
    }
  }

  std::unordered_map<const LoweredInterface*, AnalyticShape> shapes_;
  std::unordered_set<const LoweredInterface*> in_progress_;
};

std::unique_ptr<const AnalyticAnalysis> AnalyticAnalysis::Analyze(
    const Program& program, const LoweredProgram& lowered) {
  auto analysis = std::make_unique<AnalyticAnalysis>();
  AnalyticAnalyzer analyzer;
  analysis->shapes_ = analyzer.Run(program, lowered);
  return analysis;
}

// ---------------------------------------------------------------------------
// Approximate engines (bounded convolution/mixture + moments)
// ---------------------------------------------------------------------------

namespace {

// First-order rounding slack for the moments algebra, mirroring the
// certified algebra's envelope.
double MomentsFpSlack(size_t ops, double scale) {
  return static_cast<double>(ops + 16) * 8.0 *
         std::numeric_limits<double>::epsilon() * scale;
}

// Algebra over certified working measures.
struct CertAlg {
  using V = CertifiedDist;

  const EvalOptions& options;

  V Point(double joules) const { return CertifiedDist::Point(joules); }

  std::optional<V> FromAtoms(std::vector<Atom> atoms) const {
    Result<CertifiedDist> d = CertifiedDist::FromOutcomes(std::move(atoms));
    if (!d.ok()) {
      return std::nullopt;
    }
    d->PruneBelow(options.prune_threshold);
    return *std::move(d);
  }

  V Conv(const V& a, const V& b) const {
    V out = CertifiedDist::Convolve(a, b, options.max_ecv_support);
    out.PruneBelow(options.prune_threshold);
    return out;
  }

  std::optional<V> Mix(const std::vector<double>& weights,
                       const std::vector<V>& parts) const {
    Result<CertifiedDist> d = CertifiedDist::Mixture(weights, parts);
    if (!d.ok()) {
      return std::nullopt;
    }
    d->TruncateSupport(options.max_ecv_support);
    d->PruneBelow(options.prune_threshold);
    return *std::move(d);
  }

  std::optional<V> FromCallee(const CertifiedDistribution& cd, double scale,
                              double offset) const {
    if (!cd.has_distribution) {
      return std::nullopt;
    }
    return CertifiedDist::FromCertified(cd).Affine(scale, offset);
  }

  CertifiedDistribution Finish(const V& v) const { return v.Finalize(); }
};

// Moments-only algebra: mean/variance/range/error, no atoms.
struct MomAlg {
  struct V {
    double mean = 0.0;
    double var = 0.0;
    double min = 0.0;
    double max = 0.0;
    double err = 0.0;
    double pruned = 0.0;
    size_t ops = 0;
  };

  const EvalOptions& options;

  V Point(double joules) const { return {joules, 0.0, joules, joules}; }

  std::optional<V> FromAtoms(std::vector<Atom> atoms) const {
    if (atoms.empty()) {
      return std::nullopt;
    }
    V v;
    v.min = atoms[0].value;
    v.max = atoms[0].value;
    double second = 0.0;
    for (const Atom& a : atoms) {
      v.mean += a.value * a.probability;
      second += a.value * a.value * a.probability;
      v.min = std::min(v.min, a.value);
      v.max = std::max(v.max, a.value);
    }
    v.var = std::max(0.0, second - v.mean * v.mean);
    v.ops = atoms.size();
    return v;
  }

  V Conv(const V& a, const V& b) const {
    V v;
    v.mean = a.mean + b.mean;
    v.var = a.var + b.var;  // independence
    v.min = a.min + b.min;
    v.max = a.max + b.max;
    v.err = a.err + b.err;
    v.pruned = 1.0 - (1.0 - a.pruned) * (1.0 - b.pruned);
    v.ops = a.ops + b.ops + 1;
    return v;
  }

  std::optional<V> Mix(const std::vector<double>& weights,
                       const std::vector<V>& parts) const {
    if (weights.size() != parts.size() || parts.empty()) {
      return std::nullopt;
    }
    V v;
    v.min = parts[0].min;
    v.max = parts[0].max;
    double second = 0.0;
    for (size_t i = 0; i < parts.size(); ++i) {
      const V& p = parts[i];
      v.mean += weights[i] * p.mean;
      second += weights[i] * (p.var + p.mean * p.mean);
      v.err += weights[i] * p.err;
      v.pruned += weights[i] * p.pruned;
      v.min = std::min(v.min, p.min);
      v.max = std::max(v.max, p.max);
      v.ops += p.ops;
    }
    v.var = std::max(0.0, second - v.mean * v.mean);
    v.ops += 1;
    return v;
  }

  std::optional<V> FromCallee(const CertifiedDistribution& cd, double scale,
                              double offset) const {
    V v;
    v.mean = scale * cd.mean + offset;
    v.var = scale * scale * cd.variance;
    const double lo = scale * cd.min_joules + offset;
    const double hi = scale * cd.max_joules + offset;
    v.min = std::min(lo, hi);
    v.max = std::max(lo, hi);
    v.err = std::abs(scale) * cd.mean_error_bound;
    v.pruned = cd.pruned_mass;
    v.ops = 1;
    return v;
  }

  CertifiedDistribution Finish(const V& v) const {
    CertifiedDistribution cd;
    cd.has_distribution = false;
    cd.mean = v.mean;
    cd.variance = v.var;
    cd.min_joules = v.min;
    cd.max_joules = v.max;
    cd.pruned_mass = std::clamp(v.pruned, 0.0, 1.0);
    const double scale = std::max(std::abs(v.min), std::abs(v.max));
    cd.mean_error_bound = v.err + MomentsFpSlack(v.ops, scale);
    cd.exact = false;
    return cd;
  }
};

// The approximate walker, templated over the algebra. Conv draws stash
// their resolved support and convolve at their paired increment; everything
// else binds the slot and expands as a mixture over the rest of the block.
template <typename Alg>
class ApproxWalker {
 public:
  using V = typename Alg::V;

  ApproxWalker(const AnalyticAnalysis& analysis, const EcvProfile& profile,
               const EvalOptions& options,
               const EnergyCalibration* calibration,
               const AnalyticSubEval& subeval, Alg alg)
      : analysis_(analysis),
        profile_(profile),
        options_(options),
        calibration_(calibration),
        subeval_(subeval),
        alg_(std::move(alg)) {}

  std::optional<V> WalkInterface(const LoweredInterface& iface,
                                 const std::vector<Value>& args) {
    const AnalyticShape* shape = analysis_.Find(&iface);
    if (shape == nullptr || !shape->bounded_ok) {
      return std::nullopt;
    }
    std::vector<Value> frame(iface.frame_size);
    for (size_t i = 0; i < args.size(); ++i) {
      frame[iface.param_slots[i]] = args[i];
    }
    return WalkBlock(*shape, iface.body, 0, frame);
  }

 private:
  std::optional<V> WalkBlock(const AnalyticShape& shape,
                             const std::vector<LStmtPtr>& block, size_t start,
                             std::vector<Value>& frame) {
    std::optional<V> inc;  // pending convolved increments of this walk
    auto with_inc = [&](std::optional<V> leaf) -> std::optional<V> {
      if (!leaf.has_value() || !inc.has_value()) {
        return leaf;
      }
      return alg_.Conv(*inc, *leaf);
    };
    for (size_t i = start; i < block.size(); ++i) {
      const LStmt& stmt = *block[i];
      const auto inc_it = shape.increments.find(&stmt);
      if (inc_it != shape.increments.end()) {
        std::optional<V> level = IncrementLevel(inc_it->second, frame);
        if (!level.has_value()) {
          return std::nullopt;
        }
        inc = inc.has_value() ? alg_.Conv(*inc, *level) : std::move(level);
        continue;
      }
      switch (stmt.kind) {
        case LStmtKind::kStore:
        case LStmtKind::kAssign: {
          Result<Value> v = EvalDet(*stmt.a, frame);
          if (!v.ok()) {
            return std::nullopt;
          }
          frame[stmt.slot] = *std::move(v);
          break;
        }
        case LStmtKind::kEcv: {
          EcvSupport storage;
          Result<const EcvSupport*> support =
              ResolveSupport(stmt, profile_, options_, frame, &storage);
          if (!support.ok()) {
            return std::nullopt;
          }
          if (shape.conv_pair.count(&stmt) > 0) {
            pending_[&stmt] = **support;  // convolved at the paired add
            break;
          }
          // Mixture expansion: bind each outcome and walk the rest. Each
          // branch walks a pristine copy of the frame so branch-local
          // mutations (accumulator writes) don't leak into siblings.
          const auto& outcomes = (*support)->outcomes;
          expansions_ += outcomes.size();
          if (expansions_ > options_.max_paths) {
            return std::nullopt;
          }
          std::vector<double> weights;
          std::vector<V> parts;
          weights.reserve(outcomes.size());
          parts.reserve(outcomes.size());
          const std::vector<Value> saved = frame;
          for (const auto& [value, p] : outcomes) {
            frame = saved;
            frame[stmt.slot] = value;
            std::optional<V> part = WalkBlock(shape, block, i + 1, frame);
            if (!part.has_value()) {
              return std::nullopt;
            }
            weights.push_back(p);
            parts.push_back(*std::move(part));
          }
          return with_inc(alg_.Mix(weights, parts));
        }
        case LStmtKind::kIf: {
          Result<Value> cond = EvalDet(*stmt.a, frame);
          if (!cond.ok()) {
            return std::nullopt;
          }
          Result<bool> truth = cond->AsBool();
          if (!truth.ok()) {
            return std::nullopt;
          }
          const std::vector<LStmtPtr>& arm =
              *truth ? stmt.then_block : stmt.else_block;
          if (BlockTerminal(arm)) {
            return with_inc(WalkBlock(shape, arm, 0, frame));
          }
          for (const LStmtPtr& s : arm) {
            Result<Value> v = EvalDet(*s->a, frame);
            if (!v.ok()) {
              return std::nullopt;
            }
            frame[s->slot] = *std::move(v);
          }
          break;
        }
        case LStmtKind::kFor:
          return std::nullopt;
        case LStmtKind::kReturn:
          return with_inc(Leaf(*stmt.a, frame));
      }
    }
    return std::nullopt;  // fell off the end
  }

  // One increment site folded into a (delta, probability) table over the
  // draw's resolved support.
  std::optional<V> IncrementLevel(const AnalyticIncrement& site,
                                  std::vector<Value>& frame) {
    const auto it = pending_.find(site.draw);
    if (it == pending_.end()) {
      return std::nullopt;
    }
    const EcvSupport& support = it->second;
    std::vector<Atom> atoms;
    atoms.reserve(support.outcomes.size());
    if (site.value_term != nullptr) {
      for (const auto& [value, p] : support.outcomes) {
        frame[site.draw->slot] = value;
        Result<Value> t = EvalDet(*site.value_term, frame);
        if (!t.ok()) {
          return std::nullopt;
        }
        Result<double> joules = OutcomeJoules(*t, calibration_);
        if (!joules.ok()) {
          return std::nullopt;
        }
        atoms.push_back({*joules, p});
      }
    } else {
      std::optional<double> t_then;
      std::optional<double> t_else;
      if (site.then_term != nullptr) {
        Result<Value> t = EvalDet(*site.then_term, frame);
        if (!t.ok()) {
          return std::nullopt;
        }
        Result<double> joules = OutcomeJoules(*t, calibration_);
        if (!joules.ok()) {
          return std::nullopt;
        }
        t_then = *joules;
      }
      if (site.else_term != nullptr) {
        Result<Value> t = EvalDet(*site.else_term, frame);
        if (!t.ok()) {
          return std::nullopt;
        }
        Result<double> joules = OutcomeJoules(*t, calibration_);
        if (!joules.ok()) {
          return std::nullopt;
        }
        t_else = *joules;
      }
      for (const auto& [value, p] : support.outcomes) {
        if (!value.is_bool()) {
          return std::nullopt;
        }
        const std::optional<double>& t = value.boolean() ? t_then : t_else;
        atoms.push_back({t.has_value() ? *t : 0.0, p});
      }
    }
    return alg_.FromAtoms(std::move(atoms));
  }

  // Return-expression leaf: a deterministic value, or a single interface
  // call under a runtime-extracted affine wrapper composed with the
  // callee's cached certified distribution.
  std::optional<V> Leaf(const LExpr& e, std::vector<Value>& frame) {
    if (!HasCall(e)) {
      return DetLeaf(e, frame);
    }
    // Invariant down the descent: leaf value = scale * value(cur) + offset.
    double scale = 1.0;
    double offset = 0.0;
    const LExpr* cur = &e;
    while (cur->kind != LExprKind::kCall) {
      switch (cur->kind) {
        case LExprKind::kUnary: {
          if (cur->uop != UnaryOp::kNeg) {
            return std::nullopt;
          }
          scale = -scale;
          cur = cur->children[0].get();
          break;
        }
        case LExprKind::kBinary: {
          if (cur->bop == BinaryOp::kAnd || cur->bop == BinaryOp::kOr) {
            return std::nullopt;
          }
          const bool left = HasCall(*cur->children[0]);
          const bool right = HasCall(*cur->children[1]);
          if (left == right) {
            return std::nullopt;
          }
          const LExpr& det = *cur->children[left ? 1 : 0];
          Result<Value> dv = EvalDet(det, frame);
          if (!dv.ok()) {
            return std::nullopt;
          }
          switch (cur->bop) {
            case BinaryOp::kAdd: {
              Result<double> j = OutcomeJoules(*dv, calibration_);
              if (!j.ok()) {
                return std::nullopt;
              }
              offset += scale * *j;
              break;
            }
            case BinaryOp::kSub: {
              Result<double> j = OutcomeJoules(*dv, calibration_);
              if (!j.ok()) {
                return std::nullopt;
              }
              if (left) {
                offset -= scale * *j;  // (call) - det
              } else {
                offset += scale * *j;  // det - (call)
                scale = -scale;
              }
              break;
            }
            case BinaryOp::kMul: {
              if (!dv->is_number()) {
                return std::nullopt;
              }
              scale *= dv->number();
              break;
            }
            case BinaryOp::kDiv: {
              if (!left || !dv->is_number() || dv->number() == 0.0) {
                return std::nullopt;
              }
              scale /= dv->number();
              break;
            }
            default:
              return std::nullopt;
          }
          cur = cur->children[left ? 0 : 1].get();
          break;
        }
        case LExprKind::kConditional: {
          Result<Value> cond = EvalDet(*cur->children[0], frame);
          if (!cond.ok()) {
            return std::nullopt;
          }
          Result<bool> truth = cond->AsBool();
          if (!truth.ok()) {
            return std::nullopt;
          }
          const LExpr* chosen = cur->children[*truth ? 1 : 2].get();
          if (!HasCall(*chosen)) {
            return DetLeaf(e, frame);  // taken branch is call-free
          }
          cur = chosen;
          break;
        }
        default:
          return std::nullopt;
      }
    }
    if (cur->callee == nullptr || !cur->call_error.ok()) {
      return std::nullopt;
    }
    std::vector<Value> args;
    args.reserve(cur->children.size());
    for (const LExprPtr& child : cur->children) {
      Result<Value> v = EvalDet(*child, frame);
      if (!v.ok()) {
        return std::nullopt;
      }
      args.push_back(*std::move(v));
    }
    std::optional<CertifiedDistribution> cd = subeval_(*cur->callee, args);
    if (!cd.has_value()) {
      return std::nullopt;
    }
    return alg_.FromCallee(*cd, scale, offset);
  }

  std::optional<V> DetLeaf(const LExpr& e, std::vector<Value>& frame) {
    Result<Value> v = EvalDet(e, frame);
    if (!v.ok()) {
      return std::nullopt;
    }
    Result<double> joules = OutcomeJoules(*v, calibration_);
    if (!joules.ok()) {
      return std::nullopt;
    }
    return alg_.Point(*joules);
  }

  const AnalyticAnalysis& analysis_;
  const EcvProfile& profile_;
  const EvalOptions& options_;
  const EnergyCalibration* calibration_;
  const AnalyticSubEval& subeval_;
  Alg alg_;
  // draw statement -> its most recently resolved support.
  std::unordered_map<const LStmt*, EcvSupport> pending_;
  size_t expansions_ = 0;
};

}  // namespace

std::optional<CertifiedDistribution> AnalyticApprox(
    const AnalyticAnalysis& analysis, const LoweredInterface& iface,
    const std::vector<Value>& args, const EcvProfile& profile,
    const EvalOptions& options, const EnergyCalibration* calibration,
    bool moments_only, const AnalyticSubEval& subeval) {
  std::optional<CertifiedDistribution> cd;
  if (moments_only) {
    ApproxWalker<MomAlg> walker(analysis, profile, options, calibration,
                                subeval, MomAlg{options});
    if (std::optional<MomAlg::V> v = walker.WalkInterface(iface, args)) {
      cd = MomAlg{options}.Finish(*v);
    }
  } else {
    ApproxWalker<CertAlg> walker(analysis, profile, options, calibration,
                                 subeval, CertAlg{options});
    if (std::optional<CertifiedDist> v = walker.WalkInterface(iface, args)) {
      cd = CertAlg{options}.Finish(*v);
    }
  }
  // A NaN or infinite term poisons the answer; enumeration then raises the
  // exact fold's error ("non-finite atom") or answers exactly.
  if (cd.has_value() &&
      !(std::isfinite(cd->mean) && std::isfinite(cd->min_joules) &&
        std::isfinite(cd->max_joules) && std::isfinite(cd->mean_error_bound))) {
    return std::nullopt;
  }
  return cd;
}

}  // namespace eclarity
