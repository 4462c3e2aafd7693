#include "src/eval/lower.h"

#include <cmath>
#include <set>
#include <sstream>
#include <utility>

#include "src/eval/builtins.h"
#include "src/lang/checker.h"

namespace eclarity {
namespace {

// Must render identically to the tree-walking evaluator's PosContext so
// lowered error messages are indistinguishable from reference ones.
std::string PosContext(const std::string& iface_name, int line, int column) {
  std::ostringstream os;
  os << "in '" << iface_name << "' at " << line << ":" << column;
  return os.str();
}

const Value* FoldableConst(const LExprPtr& e) {
  return e->kind == LExprKind::kConst ? &e->constant : nullptr;
}

// Lowers one interface body. Folding is conservative: a subexpression is
// replaced by its value only when the tree walk would have computed exactly
// that value with no observable effects (no ECV draws, no interface calls)
// and no possibility of error; anything that could fail stays a live node so
// the failure surfaces at evaluation time, with the same message, and only
// on paths that actually execute.
class Lowerer {
 public:
  Lowerer(const Program& program, const LoweredProgram& lowered,
          size_t max_ecv_support, const InterfaceDecl& iface,
          const SlotTable& table)
      : program_(program),
        lowered_(lowered),
        max_ecv_support_(max_ecv_support),
        iface_(iface),
        table_(table) {}

  std::vector<LStmtPtr> LowerBody() { return LowerBlock(iface_.body); }

 private:
  std::string Ctx(int line, int column) const {
    return PosContext(iface_.name, line, column);
  }

  static LExprPtr New(LExprKind kind) { return std::make_unique<LExpr>(kind); }

  static LExprPtr MakeConst(Value v) {
    LExprPtr e = New(LExprKind::kConst);
    e->constant = std::move(v);
    return e;
  }

  static LExprPtr MakeError(Status status) {
    LExprPtr e = New(LExprKind::kError);
    e->error = std::move(status);
    return e;
  }

  // `in_const` marks lowering inside an inlined const initializer, where
  // the use site's locals are not visible (the symbol table has no entries
  // for nodes outside the interface body anyway).
  LExprPtr LowerExpr(const Expr& e, bool in_const) {
    switch (e.kind) {
      case ExprKind::kNumberLit:
        return MakeConst(Value::Number(static_cast<const NumberLit&>(e).value));
      case ExprKind::kEnergyLit:
        return MakeConst(
            Value::Joules(static_cast<const EnergyLit&>(e).joules));
      case ExprKind::kBoolLit:
        return MakeConst(Value::Bool(static_cast<const BoolLit&>(e).value));
      case ExprKind::kVarRef:
        return LowerVarRef(static_cast<const VarRef&>(e), in_const);
      case ExprKind::kUnary:
        return LowerUnary(static_cast<const UnaryExpr&>(e), in_const);
      case ExprKind::kBinary:
        return LowerBinary(static_cast<const BinaryExpr&>(e), in_const);
      case ExprKind::kConditional:
        return LowerConditional(static_cast<const ConditionalExpr&>(e),
                                in_const);
      case ExprKind::kCall:
        return LowerCall(static_cast<const CallExpr&>(e), in_const);
    }
    return MakeError(InternalError("unknown expression kind"));
  }

  LExprPtr LowerVarRef(const VarRef& var, bool in_const) {
    if (!in_const) {
      const auto it = table_.ref_slots.find(&var);
      if (it != table_.ref_slots.end()) {
        LExprPtr e = New(LExprKind::kSlot);
        e->slot = it->second;
        return e;
      }
    }
    const ConstDecl* constant = program_.FindConst(var.name);
    if (constant != nullptr) {
      // The tree walk evaluates the const's initializer at every use site;
      // inlining it here is the same computation done once. Cycles would
      // crash the reference path; fail deterministically instead.
      if (consts_in_flight_.count(constant) > 0) {
        return MakeError(ResourceExhaustedError(
            "recursion while expanding const '" + var.name + "'"));
      }
      consts_in_flight_.insert(constant);
      LExprPtr inlined = LowerExpr(*constant->value, /*in_const=*/true);
      consts_in_flight_.erase(constant);
      return inlined;
    }
    return MakeError(NotFoundError(Ctx(var.line, var.column) +
                                   ": undefined name '" + var.name + "'"));
  }

  LExprPtr LowerUnary(const UnaryExpr& u, bool in_const) {
    LExprPtr e = New(LExprKind::kUnary);
    e->uop = u.op;
    e->context = Ctx(u.line, u.column);
    e->children.push_back(LowerExpr(*u.operand, in_const));
    if (const Value* operand = FoldableConst(e->children[0])) {
      Result<Value> folded = ApplyUnary(u.op, *operand, e->context);
      if (folded.ok()) {
        return MakeConst(std::move(folded).value());
      }
    }
    return e;
  }

  LExprPtr LowerBinary(const BinaryExpr& b, bool in_const) {
    LExprPtr e = New(LExprKind::kBinary);
    e->bop = b.op;
    e->context = Ctx(b.line, b.column);
    e->children.push_back(LowerExpr(*b.lhs, in_const));
    e->children.push_back(LowerExpr(*b.rhs, in_const));
    const Value* lhs = FoldableConst(e->children[0]);
    const Value* rhs = FoldableConst(e->children[1]);
    if (b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr) {
      // Mirror the short-circuit: a constant deciding lhs folds the whole
      // expression even when the rhs is dynamic (it would never evaluate).
      if (lhs != nullptr) {
        Result<bool> lv = lhs->AsBool();
        if (lv.ok()) {
          if (b.op == BinaryOp::kAnd && !lv.value()) {
            return MakeConst(Value::Bool(false));
          }
          if (b.op == BinaryOp::kOr && lv.value()) {
            return MakeConst(Value::Bool(true));
          }
          if (rhs != nullptr) {
            Result<bool> rv = rhs->AsBool();
            if (rv.ok()) {
              return MakeConst(Value::Bool(rv.value()));
            }
          }
        }
      }
      return e;
    }
    if (lhs != nullptr && rhs != nullptr) {
      Result<Value> folded = ApplyBinary(b.op, *lhs, *rhs, e->context);
      if (folded.ok()) {
        return MakeConst(std::move(folded).value());
      }
    }
    return e;
  }

  LExprPtr LowerConditional(const ConditionalExpr& c, bool in_const) {
    LExprPtr e = New(LExprKind::kConditional);
    e->children.push_back(LowerExpr(*c.condition, in_const));
    e->children.push_back(LowerExpr(*c.then_value, in_const));
    e->children.push_back(LowerExpr(*c.else_value, in_const));
    if (const Value* cond = FoldableConst(e->children[0])) {
      Result<bool> truth = cond->AsBool();
      if (truth.ok()) {
        // The untaken branch never evaluates in the tree walk; drop it.
        return std::move(e->children[truth.value() ? 1 : 2]);
      }
    }
    return e;
  }

  LExprPtr LowerCall(const CallExpr& call, bool in_const) {
    if (IsBuiltinName(call.callee)) {
      LExprPtr e = New(LExprKind::kBuiltin);
      e->call_src = &call;
      e->context = Ctx(call.line, call.column);
      bool all_const = true;
      for (const ExprPtr& arg : call.args) {
        e->children.push_back(LowerExpr(*arg, in_const));
        all_const = all_const && FoldableConst(e->children.back()) != nullptr;
      }
      if (all_const) {
        std::vector<Value> args;
        args.reserve(e->children.size());
        for (const LExprPtr& child : e->children) {
          args.push_back(child->constant);
        }
        Result<Value> folded =
            ApplyBuiltin(call.callee, args, call.string_args, e->context);
        if (folded.ok()) {
          return MakeConst(std::move(folded).value());
        }
      }
      return e;
    }
    LExprPtr e = New(LExprKind::kCall);
    for (const ExprPtr& arg : call.args) {
      e->children.push_back(LowerExpr(*arg, in_const));
    }
    const LoweredInterface* callee = lowered_.Find(call.callee);
    if (callee == nullptr) {
      e->call_error =
          NotFoundError("call to undefined interface '" + call.callee + "'");
      return e;
    }
    if (callee->decl->params.size() != call.args.size()) {
      std::ostringstream os;
      os << "interface '" << call.callee << "' takes "
         << callee->decl->params.size() << " arguments, got "
         << call.args.size();
      e->call_error = InvalidArgumentError(os.str());
      return e;
    }
    e->callee = callee;
    return e;
  }

  LStmtPtr NewStmt(LStmtKind kind, const Stmt& src) {
    auto s = std::make_unique<LStmt>(kind);
    s->line = src.line;
    s->column = src.column;
    return s;
  }

  std::vector<LStmtPtr> LowerBlock(const Block& block) {
    std::vector<LStmtPtr> out;
    out.reserve(block.statements.size());
    for (const StmtPtr& stmt : block.statements) {
      out.push_back(LowerStmt(*stmt));
    }
    return out;
  }

  LStmtPtr LowerStmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kLet: {
        const auto& s = static_cast<const LetStmt&>(stmt);
        LStmtPtr l = NewStmt(LStmtKind::kStore, stmt);
        l->a = LowerExpr(*s.init, /*in_const=*/false);
        l->slot = table_.decl_slots.at(&stmt);
        if (l->slot < 0) {
          l->error = AlreadyExistsError("redefinition of '" + s.name + "'");
        }
        return l;
      }
      case StmtKind::kAssign: {
        const auto& s = static_cast<const AssignStmt&>(stmt);
        LStmtPtr l = NewStmt(LStmtKind::kAssign, stmt);
        l->a = LowerExpr(*s.value, /*in_const=*/false);
        const auto [resolution, slot] = table_.assigns.at(&stmt);
        switch (resolution) {
          case AssignResolution::kOk:
            l->slot = slot;
            break;
          case AssignResolution::kUndefined:
            l->error =
                NotFoundError("assignment to undefined '" + s.name + "'");
            break;
          case AssignResolution::kImmutable:
            l->error = FailedPreconditionError("assignment to immutable '" +
                                               s.name + "'");
            break;
        }
        return l;
      }
      case StmtKind::kEcv:
        return LowerEcv(static_cast<const EcvStmt&>(stmt));
      case StmtKind::kIf: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        LStmtPtr l = NewStmt(LStmtKind::kIf, stmt);
        l->a = LowerExpr(*s.condition, /*in_const=*/false);
        l->then_block = LowerBlock(s.then_block);
        if (s.else_block.has_value()) {
          l->else_block = LowerBlock(*s.else_block);
        }
        return l;
      }
      case StmtKind::kFor: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        LStmtPtr l = NewStmt(LStmtKind::kFor, stmt);
        l->a = LowerExpr(*s.begin, /*in_const=*/false);
        l->b = LowerExpr(*s.end, /*in_const=*/false);
        l->slot = table_.decl_slots.at(&stmt);
        l->then_block = LowerBlock(s.body);
        return l;
      }
      case StmtKind::kReturn: {
        const auto& s = static_cast<const ReturnStmt&>(stmt);
        LStmtPtr l = NewStmt(LStmtKind::kReturn, stmt);
        l->a = LowerExpr(*s.value, /*in_const=*/false);
        return l;
      }
    }
    LStmtPtr l = std::make_unique<LStmt>(LStmtKind::kReturn);
    l->a = std::make_unique<LExpr>(LExprKind::kError);
    l->a->error = InternalError("unknown statement kind");
    return l;
  }

  LStmtPtr LowerEcv(const EcvStmt& s) {
    LStmtPtr l = NewStmt(LStmtKind::kEcv, s);
    l->slot = table_.decl_slots.at(&s);
    if (l->slot < 0) {
      l->error = AlreadyExistsError("redefinition of '" + s.name + "'");
    }
    auto ecv = std::make_unique<LEcv>();
    ecv->qualified = iface_.name + "." + s.name;
    ecv->bare = s.name;
    ecv->dist_kind = s.dist.kind;
    ecv->params.reserve(s.dist.params.size());
    bool all_const = true;
    for (const ExprPtr& p : s.dist.params) {
      ecv->params.push_back(LowerExpr(*p, /*in_const=*/false));
      all_const = all_const && FoldableConst(ecv->params.back()) != nullptr;
    }
    if (all_const) {
      ResolveStaticSupport(*ecv, s);
    }
    l->ecv = std::move(ecv);
    return l;
  }

  // Pre-resolves a declared distribution whose parameters are constants.
  // Validation failures become `static_error` with the message the tree walk
  // would produce; parameters of the wrong type are left dynamic so the
  // bare accessor error surfaces identically.
  void ResolveStaticSupport(LEcv& ecv, const EcvStmt& s) {
    const std::string ctx = Ctx(s.line, s.column);
    switch (s.dist.kind) {
      case EcvDistKind::kBernoulli: {
        Result<double> p = ecv.params[0]->constant.AsNumber();
        if (!p.ok()) {
          return;
        }
        if (p.value() < 0.0 || p.value() > 1.0) {
          ecv.static_error = InvalidArgumentError(
              ctx + ": bernoulli probability out of [0,1]");
          return;
        }
        ecv.static_support = EcvSupport::Bernoulli(p.value());
        return;
      }
      case EcvDistKind::kUniformInt: {
        Result<double> lo_n = ecv.params[0]->constant.AsNumber();
        Result<double> hi_n = ecv.params[1]->constant.AsNumber();
        if (!lo_n.ok() || !hi_n.ok()) {
          return;
        }
        Result<EcvSupport> support = EcvSupport::UniformInt(
            lo_n.value(), hi_n.value(), max_ecv_support_, ctx + ": ");
        if (support.ok()) {
          ecv.static_support = std::move(support).value();
        } else {
          ecv.static_error = support.status();
        }
        return;
      }
      case EcvDistKind::kCategorical: {
        std::vector<std::pair<Value, double>> outcomes;
        for (size_t i = 0; i + 1 < ecv.params.size(); i += 2) {
          Result<double> p = ecv.params[i + 1]->constant.AsNumber();
          if (!p.ok()) {
            return;
          }
          outcomes.emplace_back(ecv.params[i]->constant, p.value());
        }
        Result<EcvSupport> support = EcvSupport::Make(std::move(outcomes));
        if (!support.ok()) {
          ecv.static_error =
              InvalidArgumentError(ctx + ": " + support.status().message());
          return;
        }
        ecv.static_support = std::move(support).value();
        return;
      }
    }
  }

  const Program& program_;
  const LoweredProgram& lowered_;
  const size_t max_ecv_support_;
  const InterfaceDecl& iface_;
  const SlotTable& table_;
  std::set<const ConstDecl*> consts_in_flight_;
};

}  // namespace

LoweredProgram LoweredProgram::Lower(const Program& program,
                                     size_t max_ecv_support) {
  LoweredProgram lowered;
  // Phase 1: shells + symbol tables, so calls can bind to any interface
  // (including mutually recursive ones) in phase 2.
  std::vector<SlotTable> tables;
  tables.reserve(program.interfaces().size());
  for (const InterfaceDecl& decl : program.interfaces()) {
    auto iface = std::make_unique<LoweredInterface>();
    iface->decl = &decl;
    SlotTable table = ResolveSlots(decl);
    iface->frame_size = table.frame_size;
    iface->param_slots = table.param_slots;
    for (size_t i = 0; i < iface->param_slots.size(); ++i) {
      if (iface->param_slots[i] < 0 && iface->entry_error.ok()) {
        iface->entry_error =
            AlreadyExistsError("redefinition of '" + decl.params[i] + "'");
      }
    }
    lowered.index_[decl.name] = iface.get();
    lowered.interfaces_.push_back(std::move(iface));
    tables.push_back(std::move(table));
  }
  // Phase 2: lower bodies.
  for (size_t i = 0; i < lowered.interfaces_.size(); ++i) {
    LoweredInterface& iface = *lowered.interfaces_[i];
    Lowerer lowerer(program, lowered, max_ecv_support, *iface.decl,
                    tables[i]);
    iface.body = lowerer.LowerBody();
  }
  return lowered;
}

}  // namespace eclarity
