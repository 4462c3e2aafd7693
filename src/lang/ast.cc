#include "src/lang/ast.h"

#include <algorithm>
#include <set>

namespace eclarity {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
  }
  return "?";
}

namespace {

// Copies source position onto a cloned node.
template <typename T>
ExprPtr WithPos(const Expr& original, std::unique_ptr<T> clone) {
  clone->line = original.line;
  clone->column = original.column;
  return clone;
}

template <typename T>
StmtPtr WithPos(const Stmt& original, std::unique_ptr<T> clone) {
  clone->line = original.line;
  clone->column = original.column;
  return clone;
}

}  // namespace

ExprPtr NumberLit::Clone() const {
  return WithPos(*this, std::make_unique<NumberLit>(value));
}

ExprPtr EnergyLit::Clone() const {
  return WithPos(*this, std::make_unique<EnergyLit>(joules, unit_text));
}

ExprPtr BoolLit::Clone() const {
  return WithPos(*this, std::make_unique<BoolLit>(value));
}

ExprPtr VarRef::Clone() const {
  return WithPos(*this, std::make_unique<VarRef>(name));
}

ExprPtr UnaryExpr::Clone() const {
  return WithPos(*this, std::make_unique<UnaryExpr>(op, operand->Clone()));
}

ExprPtr BinaryExpr::Clone() const {
  return WithPos(*this,
                 std::make_unique<BinaryExpr>(op, lhs->Clone(), rhs->Clone()));
}

ExprPtr ConditionalExpr::Clone() const {
  return WithPos(*this, std::make_unique<ConditionalExpr>(
                            condition->Clone(), then_value->Clone(),
                            else_value->Clone()));
}

ExprPtr CallExpr::Clone() const {
  std::vector<ExprPtr> cloned_args;
  cloned_args.reserve(args.size());
  for (const ExprPtr& a : args) {
    cloned_args.push_back(a->Clone());
  }
  auto clone = std::make_unique<CallExpr>(callee, std::move(cloned_args));
  clone->string_args = string_args;
  return WithPos(*this, std::move(clone));
}

Block Block::Clone() const {
  Block out;
  out.statements.reserve(statements.size());
  for (const StmtPtr& s : statements) {
    out.statements.push_back(s->Clone());
  }
  return out;
}

StmtPtr LetStmt::Clone() const {
  return WithPos(*this,
                 std::make_unique<LetStmt>(name, is_mut, init->Clone()));
}

StmtPtr AssignStmt::Clone() const {
  return WithPos(*this, std::make_unique<AssignStmt>(name, value->Clone()));
}

EcvDistSpec EcvDistSpec::Clone() const {
  EcvDistSpec out;
  out.kind = kind;
  out.params.reserve(params.size());
  for (const ExprPtr& p : params) {
    out.params.push_back(p->Clone());
  }
  return out;
}

StmtPtr EcvStmt::Clone() const {
  return WithPos(*this, std::make_unique<EcvStmt>(name, dist.Clone()));
}

StmtPtr IfStmt::Clone() const {
  std::optional<Block> cloned_else;
  if (else_block.has_value()) {
    cloned_else = else_block->Clone();
  }
  return WithPos(*this,
                 std::make_unique<IfStmt>(condition->Clone(),
                                          then_block.Clone(),
                                          std::move(cloned_else)));
}

StmtPtr ForStmt::Clone() const {
  return WithPos(*this, std::make_unique<ForStmt>(var, begin->Clone(),
                                                  end->Clone(), body.Clone()));
}

StmtPtr ReturnStmt::Clone() const {
  return WithPos(*this, std::make_unique<ReturnStmt>(value->Clone()));
}

InterfaceDecl InterfaceDecl::Clone() const {
  InterfaceDecl out;
  out.name = name;
  out.params = params;
  out.body = body.Clone();
  out.doc = doc;
  out.line = line;
  return out;
}

ConstDecl ConstDecl::Clone() const {
  ConstDecl out;
  out.name = name;
  out.value = value->Clone();
  return out;
}

Program Program::Clone() const {
  Program out;
  out.consts_.reserve(consts_.size());
  for (const ConstDecl& c : consts_) {
    out.consts_.push_back(c.Clone());
  }
  out.interfaces_.reserve(interfaces_.size());
  for (const InterfaceDecl& i : interfaces_) {
    out.interfaces_.push_back(i.Clone());
  }
  out.externs_ = externs_;
  return out;
}

Status Program::AddInterface(InterfaceDecl decl) {
  if (Has(decl.name)) {
    return AlreadyExistsError("duplicate declaration '" + decl.name + "'");
  }
  interfaces_.push_back(std::move(decl));
  return OkStatus();
}

Status Program::AddConst(ConstDecl decl) {
  if (Has(decl.name)) {
    return AlreadyExistsError("duplicate declaration '" + decl.name + "'");
  }
  consts_.push_back(std::move(decl));
  return OkStatus();
}

Status Program::AddExtern(ExternDecl decl) {
  if (FindInterface(decl.name) != nullptr || FindConst(decl.name) != nullptr) {
    return AlreadyExistsError("extern '" + decl.name +
                              "' collides with a definition");
  }
  const ExternDecl* existing = FindExtern(decl.name);
  if (existing != nullptr) {
    if (existing->params.size() != decl.params.size()) {
      return AlreadyExistsError("conflicting extern declarations for '" +
                                decl.name + "'");
    }
    return OkStatus();  // identical re-declaration
  }
  externs_.push_back(std::move(decl));
  return OkStatus();
}

void Program::ReplaceInterface(InterfaceDecl decl) {
  // A definition satisfies (consumes) a matching extern declaration.
  for (auto it = externs_.begin(); it != externs_.end(); ++it) {
    if (it->name == decl.name) {
      externs_.erase(it);
      break;
    }
  }
  for (InterfaceDecl& existing : interfaces_) {
    if (existing.name == decl.name) {
      existing = std::move(decl);
      return;
    }
  }
  interfaces_.push_back(std::move(decl));
}

const InterfaceDecl* Program::FindInterface(const std::string& name) const {
  for (const InterfaceDecl& i : interfaces_) {
    if (i.name == name) {
      return &i;
    }
  }
  return nullptr;
}

const ConstDecl* Program::FindConst(const std::string& name) const {
  for (const ConstDecl& c : consts_) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

const ExternDecl* Program::FindExtern(const std::string& name) const {
  for (const ExternDecl& e : externs_) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

bool Program::Has(const std::string& name) const {
  return FindInterface(name) != nullptr || FindConst(name) != nullptr ||
         FindExtern(name) != nullptr;
}

Status Program::Merge(const Program& other, bool overwrite) {
  for (const ConstDecl& c : other.consts_) {
    if (FindConst(c.name) != nullptr) {
      if (!overwrite) {
        return AlreadyExistsError("merge collision on const '" + c.name + "'");
      }
      for (ConstDecl& mine : consts_) {
        if (mine.name == c.name) {
          mine = c.Clone();
        }
      }
      continue;
    }
    ECLARITY_RETURN_IF_ERROR(AddConst(c.Clone()));
  }
  for (const InterfaceDecl& i : other.interfaces_) {
    if (FindExtern(i.name) != nullptr) {
      // The incoming definition satisfies our declared import.
      ReplaceInterface(i.Clone());
      continue;
    }
    if (FindInterface(i.name) != nullptr) {
      if (!overwrite) {
        return AlreadyExistsError("merge collision on interface '" + i.name +
                                  "'");
      }
      ReplaceInterface(i.Clone());
      continue;
    }
    ECLARITY_RETURN_IF_ERROR(AddInterface(i.Clone()));
  }
  for (const ExternDecl& e : other.externs_) {
    if (FindInterface(e.name) != nullptr) {
      continue;  // already satisfied on our side
    }
    ECLARITY_RETURN_IF_ERROR(AddExtern(e));
  }
  return OkStatus();
}

std::vector<std::string> Program::UnresolvedCallees() const {
  std::set<std::string> callees;
  VisitExprs(*this, [&](const Expr& e) {
    if (e.kind == ExprKind::kCall) {
      callees.insert(static_cast<const CallExpr&>(e).callee);
    }
  });
  std::vector<std::string> unresolved;
  for (const std::string& name : callees) {
    if (!IsBuiltinName(name) && FindInterface(name) == nullptr) {
      unresolved.push_back(name);
    }
  }
  return unresolved;
}

const BuiltinInfo* FindBuiltin(std::string_view name) {
  static constexpr BuiltinInfo kBuiltins[] = {
#define ECLARITY_BUILTIN_INFO(id, name, min_args, max_args) \
  {BuiltinId::id, name, min_args, max_args},
      ECLARITY_BUILTINS(ECLARITY_BUILTIN_INFO)
#undef ECLARITY_BUILTIN_INFO
  };
  for (const BuiltinInfo& builtin : kBuiltins) {
    if (builtin.name == name) {
      return &builtin;
    }
  }
  return nullptr;
}

bool IsBuiltinName(const std::string& name) {
  return FindBuiltin(name) != nullptr;
}

ExprPtr MakeNumber(double value) { return std::make_unique<NumberLit>(value); }

ExprPtr MakeEnergyJoules(double joules) {
  return std::make_unique<EnergyLit>(joules, "J");
}

ExprPtr MakeBool(bool value) { return std::make_unique<BoolLit>(value); }

ExprPtr MakeVar(std::string name) {
  return std::make_unique<VarRef>(std::move(name));
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  return std::make_unique<UnaryExpr>(op, std::move(operand));
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr MakeConditional(ExprPtr condition, ExprPtr then_value,
                        ExprPtr else_value) {
  return std::make_unique<ConditionalExpr>(
      std::move(condition), std::move(then_value), std::move(else_value));
}

ExprPtr MakeCall(std::string callee, std::vector<ExprPtr> args) {
  return std::make_unique<CallExpr>(std::move(callee), std::move(args));
}

StmtPtr MakeLet(std::string name, ExprPtr init, bool is_mut) {
  return std::make_unique<LetStmt>(std::move(name), is_mut, std::move(init));
}

StmtPtr MakeAssign(std::string name, ExprPtr value) {
  return std::make_unique<AssignStmt>(std::move(name), std::move(value));
}

StmtPtr MakeReturn(ExprPtr value) {
  return std::make_unique<ReturnStmt>(std::move(value));
}

namespace {

void VisitExpr(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  switch (e.kind) {
    case ExprKind::kNumberLit:
    case ExprKind::kEnergyLit:
    case ExprKind::kBoolLit:
    case ExprKind::kVarRef:
      break;
    case ExprKind::kUnary:
      VisitExpr(*static_cast<const UnaryExpr&>(e).operand, fn);
      break;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      VisitExpr(*b.lhs, fn);
      VisitExpr(*b.rhs, fn);
      break;
    }
    case ExprKind::kConditional: {
      const auto& c = static_cast<const ConditionalExpr&>(e);
      VisitExpr(*c.condition, fn);
      VisitExpr(*c.then_value, fn);
      VisitExpr(*c.else_value, fn);
      break;
    }
    case ExprKind::kCall: {
      const auto& call = static_cast<const CallExpr&>(e);
      for (const ExprPtr& a : call.args) {
        VisitExpr(*a, fn);
      }
      break;
    }
  }
}

void VisitBlock(const Block& block,
                const std::function<void(const Expr&)>& fn) {
  for (const StmtPtr& s : block.statements) {
    switch (s->kind) {
      case StmtKind::kLet:
        VisitExpr(*static_cast<const LetStmt&>(*s).init, fn);
        break;
      case StmtKind::kAssign:
        VisitExpr(*static_cast<const AssignStmt&>(*s).value, fn);
        break;
      case StmtKind::kEcv:
        for (const ExprPtr& p : static_cast<const EcvStmt&>(*s).dist.params) {
          VisitExpr(*p, fn);
        }
        break;
      case StmtKind::kIf: {
        const auto& stmt = static_cast<const IfStmt&>(*s);
        VisitExpr(*stmt.condition, fn);
        VisitBlock(stmt.then_block, fn);
        if (stmt.else_block.has_value()) {
          VisitBlock(*stmt.else_block, fn);
        }
        break;
      }
      case StmtKind::kFor: {
        const auto& stmt = static_cast<const ForStmt&>(*s);
        VisitExpr(*stmt.begin, fn);
        VisitExpr(*stmt.end, fn);
        VisitBlock(stmt.body, fn);
        break;
      }
      case StmtKind::kReturn:
        VisitExpr(*static_cast<const ReturnStmt&>(*s).value, fn);
        break;
    }
  }
}

}  // namespace

void VisitExprs(const Program& program,
                const std::function<void(const Expr&)>& fn) {
  for (const ConstDecl& c : program.consts()) {
    VisitExpr(*c.value, fn);
  }
  for (const InterfaceDecl& i : program.interfaces()) {
    VisitBlock(i.body, fn);
  }
}

void VisitExprs(const Block& block,
                const std::function<void(const Expr&)>& fn) {
  VisitBlock(block, fn);
}

}  // namespace eclarity
