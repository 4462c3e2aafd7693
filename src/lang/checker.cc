#include "src/lang/checker.h"

#include <map>
#include <sstream>

namespace eclarity {
namespace {

struct VarInfo {
  bool is_mut = false;
};

class InterfaceChecker {
 public:
  InterfaceChecker(const Program& program, const InterfaceDecl& decl,
                   const CheckOptions& options, std::vector<Status>& problems)
      : program_(program),
        decl_(decl),
        options_(options),
        problems_(problems) {}

  void Run() {
    std::map<std::string, VarInfo> scope;
    for (const std::string& param : decl_.params) {
      if (scope.count(param) > 0) {
        Report(decl_.line, 0, "duplicate parameter '" + param + "'");
      }
      scope[param] = VarInfo{};
    }
    const bool returns = CheckBlock(decl_.body, scope);
    if (!returns) {
      Report(decl_.line, 0,
             "not all paths through interface '" + decl_.name +
                 "' end in a return");
    }
  }

 private:
  void Report(int line, int column, const std::string& message) {
    std::ostringstream os;
    os << "in interface '" << decl_.name << "' at " << line << ":" << column
       << ": " << message;
    problems_.push_back(InvalidArgumentError(os.str()));
  }

  bool IsDefined(const std::map<std::string, VarInfo>& scope,
                 const std::string& name) const {
    return scope.count(name) > 0 || program_.FindConst(name) != nullptr;
  }

  void CheckExpr(const Expr& e, const std::map<std::string, VarInfo>& scope) {
    switch (e.kind) {
      case ExprKind::kNumberLit:
      case ExprKind::kEnergyLit:
      case ExprKind::kBoolLit:
        return;
      case ExprKind::kVarRef: {
        const auto& var = static_cast<const VarRef&>(e);
        if (!IsDefined(scope, var.name)) {
          Report(e.line, e.column, "use of undefined name '" + var.name + "'");
        }
        return;
      }
      case ExprKind::kUnary:
        CheckExpr(*static_cast<const UnaryExpr&>(e).operand, scope);
        return;
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        CheckExpr(*b.lhs, scope);
        CheckExpr(*b.rhs, scope);
        return;
      }
      case ExprKind::kConditional: {
        const auto& c = static_cast<const ConditionalExpr&>(e);
        CheckExpr(*c.condition, scope);
        CheckExpr(*c.then_value, scope);
        CheckExpr(*c.else_value, scope);
        return;
      }
      case ExprKind::kCall: {
        const auto& call = static_cast<const CallExpr&>(e);
        CheckCall(call, scope);
        return;
      }
    }
  }

  void CheckCall(const CallExpr& call,
                 const std::map<std::string, VarInfo>& scope) {
    for (const ExprPtr& arg : call.args) {
      CheckExpr(*arg, scope);
    }
    if (const BuiltinInfo* builtin = FindBuiltin(call.callee)) {
      CheckBuiltinArity(call, *builtin);
      return;
    }
    const InterfaceDecl* callee = program_.FindInterface(call.callee);
    if (callee == nullptr) {
      const ExternDecl* ext = program_.FindExtern(call.callee);
      if (ext != nullptr) {
        if (ext->params.size() != call.args.size()) {
          std::ostringstream os;
          os << "call to extern '" << call.callee << "' passes "
             << call.args.size() << " arguments, declared with "
             << ext->params.size();
          Report(call.line, call.column, os.str());
        }
        return;
      }
      if (options_.allow_any_unresolved ||
          options_.allow_unresolved.count(call.callee) > 0) {
        return;
      }
      Report(call.line, call.column,
             "call to undefined interface '" + call.callee + "'");
      return;
    }
    if (callee->params.size() != call.args.size()) {
      std::ostringstream os;
      os << "call to '" << call.callee << "' passes " << call.args.size()
         << " arguments, expected " << callee->params.size();
      Report(call.line, call.column, os.str());
    }
  }

  void CheckBuiltinArity(const CallExpr& call, const BuiltinInfo& builtin) {
    const size_t n = call.args.size();
    bool ok = n >= builtin.min_args && n <= builtin.max_args;
    if (builtin.id == BuiltinId::kAu) {
      ok = ok && call.string_args.size() == 1;  // the unit name
    }
    if (!ok) {
      Report(call.line, call.column,
             "wrong number of arguments to builtin '" + call.callee + "'");
    }
  }

  // Returns true when every path through `block` returns.
  bool CheckBlock(const Block& block, std::map<std::string, VarInfo> scope) {
    bool returned = false;
    for (const StmtPtr& stmt : block.statements) {
      if (returned) {
        Report(stmt->line, stmt->column, "unreachable statement after return");
        // Keep checking for more diagnostics but path analysis is done.
      }
      switch (stmt->kind) {
        case StmtKind::kLet: {
          const auto& s = static_cast<const LetStmt&>(*stmt);
          CheckExpr(*s.init, scope);
          if (scope.count(s.name) > 0 ||
              program_.FindConst(s.name) != nullptr) {
            Report(s.line, s.column,
                   "redefinition of '" + s.name + "' in the same scope");
          }
          scope[s.name] = VarInfo{s.is_mut};
          break;
        }
        case StmtKind::kAssign: {
          const auto& s = static_cast<const AssignStmt&>(*stmt);
          CheckExpr(*s.value, scope);
          const auto it = scope.find(s.name);
          if (it == scope.end()) {
            Report(s.line, s.column,
                   "assignment to undefined variable '" + s.name + "'");
          } else if (!it->second.is_mut) {
            Report(s.line, s.column,
                   "assignment to immutable variable '" + s.name +
                       "' (declare it 'let mut')");
          }
          break;
        }
        case StmtKind::kEcv: {
          const auto& s = static_cast<const EcvStmt&>(*stmt);
          for (const ExprPtr& p : s.dist.params) {
            CheckExpr(*p, scope);
          }
          if (scope.count(s.name) > 0) {
            Report(s.line, s.column,
                   "ECV '" + s.name + "' shadows an existing name");
          }
          if (!ecv_names_.insert(s.name).second) {
            Report(s.line, s.column,
                   "duplicate ECV '" + s.name + "' in interface");
          }
          scope[s.name] = VarInfo{};
          break;
        }
        case StmtKind::kIf: {
          const auto& s = static_cast<const IfStmt&>(*stmt);
          CheckExpr(*s.condition, scope);
          const bool then_returns = CheckBlock(s.then_block, scope);
          bool else_returns = false;
          if (s.else_block.has_value()) {
            else_returns = CheckBlock(*s.else_block, scope);
          }
          if (then_returns && else_returns) {
            returned = true;
          }
          break;
        }
        case StmtKind::kFor: {
          const auto& s = static_cast<const ForStmt&>(*stmt);
          CheckExpr(*s.begin, scope);
          CheckExpr(*s.end, scope);
          auto body_scope = scope;
          if (body_scope.count(s.var) > 0) {
            Report(s.line, s.column,
                   "loop variable '" + s.var + "' shadows an existing name");
          }
          body_scope[s.var] = VarInfo{};
          // A for body may execute zero times, so a return inside it does
          // not guarantee the enclosing block returns.
          CheckBlock(s.body, std::move(body_scope));
          break;
        }
        case StmtKind::kReturn: {
          const auto& s = static_cast<const ReturnStmt&>(*stmt);
          CheckExpr(*s.value, scope);
          returned = true;
          break;
        }
      }
    }
    return returned;
  }

  const Program& program_;
  const InterfaceDecl& decl_;
  const CheckOptions& options_;
  std::vector<Status>& problems_;
  std::set<std::string> ecv_names_;
};

// Scope walker for ResolveSlots. Mirrors the dynamic semantics of the
// tree-walking evaluator's Environment: a stack of scopes, innermost-first
// lookup, Define rejecting only same-scope redefinition.
class SlotResolver {
 public:
  explicit SlotResolver(const InterfaceDecl& decl) : decl_(decl) {}

  SlotTable Run() {
    PushScope();  // the frame scope holding parameters
    for (const std::string& param : decl_.params) {
      table_.param_slots.push_back(Define(param, /*is_mut=*/false));
    }
    WalkBlock(decl_.body);
    PopScope();
    return std::move(table_);
  }

 private:
  struct Binding {
    int slot;
    bool is_mut;
  };

  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }

  // Allocates a slot for `name` in the innermost scope; -1 when the dynamic
  // semantics would reject the definition (same-scope redefinition).
  int Define(const std::string& name, bool is_mut) {
    auto& scope = scopes_.back();
    if (scope.count(name) > 0) {
      return -1;
    }
    const int slot = static_cast<int>(table_.frame_size++);
    scope[name] = Binding{slot, is_mut};
    return slot;
  }

  const Binding* Lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto binding = it->find(name);
      if (binding != it->end()) {
        return &binding->second;
      }
    }
    return nullptr;
  }

  void WalkExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumberLit:
      case ExprKind::kEnergyLit:
      case ExprKind::kBoolLit:
        return;
      case ExprKind::kVarRef: {
        const Binding* binding = Lookup(static_cast<const VarRef&>(e).name);
        if (binding != nullptr) {
          table_.ref_slots[&e] = binding->slot;
        }
        return;
      }
      case ExprKind::kUnary:
        WalkExpr(*static_cast<const UnaryExpr&>(e).operand);
        return;
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        WalkExpr(*b.lhs);
        WalkExpr(*b.rhs);
        return;
      }
      case ExprKind::kConditional: {
        const auto& c = static_cast<const ConditionalExpr&>(e);
        WalkExpr(*c.condition);
        WalkExpr(*c.then_value);
        WalkExpr(*c.else_value);
        return;
      }
      case ExprKind::kCall:
        for (const ExprPtr& arg : static_cast<const CallExpr&>(e).args) {
          WalkExpr(*arg);
        }
        return;
    }
  }

  void WalkBlock(const Block& block) {
    PushScope();
    for (const StmtPtr& stmt : block.statements) {
      switch (stmt->kind) {
        case StmtKind::kLet: {
          const auto& s = static_cast<const LetStmt&>(*stmt);
          WalkExpr(*s.init);
          table_.decl_slots[stmt.get()] = Define(s.name, s.is_mut);
          break;
        }
        case StmtKind::kAssign: {
          const auto& s = static_cast<const AssignStmt&>(*stmt);
          WalkExpr(*s.value);
          const Binding* binding = Lookup(s.name);
          if (binding == nullptr) {
            table_.assigns[stmt.get()] = {AssignResolution::kUndefined, -1};
          } else if (!binding->is_mut) {
            table_.assigns[stmt.get()] = {AssignResolution::kImmutable, -1};
          } else {
            table_.assigns[stmt.get()] = {AssignResolution::kOk, binding->slot};
          }
          break;
        }
        case StmtKind::kEcv: {
          const auto& s = static_cast<const EcvStmt&>(*stmt);
          for (const ExprPtr& p : s.dist.params) {
            WalkExpr(*p);
          }
          table_.decl_slots[stmt.get()] = Define(s.name, /*is_mut=*/false);
          break;
        }
        case StmtKind::kIf: {
          const auto& s = static_cast<const IfStmt&>(*stmt);
          WalkExpr(*s.condition);
          WalkBlock(s.then_block);
          if (s.else_block.has_value()) {
            WalkBlock(*s.else_block);
          }
          break;
        }
        case StmtKind::kFor: {
          const auto& s = static_cast<const ForStmt&>(*stmt);
          WalkExpr(*s.begin);
          WalkExpr(*s.end);
          // Each iteration gets a fresh scope holding the loop variable,
          // with the body block nested inside it.
          PushScope();
          table_.decl_slots[stmt.get()] = Define(s.var, /*is_mut=*/false);
          WalkBlock(s.body);
          PopScope();
          break;
        }
        case StmtKind::kReturn:
          WalkExpr(*static_cast<const ReturnStmt&>(*stmt).value);
          break;
      }
    }
    PopScope();
  }

  const InterfaceDecl& decl_;
  SlotTable table_;
  std::vector<std::map<std::string, Binding>> scopes_;
};

void CollectEcvsFromBlock(const Block& block, std::vector<std::string>& out) {
  for (const StmtPtr& stmt : block.statements) {
    switch (stmt->kind) {
      case StmtKind::kEcv:
        out.push_back(static_cast<const EcvStmt&>(*stmt).name);
        break;
      case StmtKind::kIf: {
        const auto& s = static_cast<const IfStmt&>(*stmt);
        CollectEcvsFromBlock(s.then_block, out);
        if (s.else_block.has_value()) {
          CollectEcvsFromBlock(*s.else_block, out);
        }
        break;
      }
      case StmtKind::kFor:
        CollectEcvsFromBlock(static_cast<const ForStmt&>(*stmt).body, out);
        break;
      default:
        break;
    }
  }
}

}  // namespace

std::vector<Status> CheckProgram(const Program& program,
                                 const CheckOptions& options) {
  std::vector<Status> problems;
  for (const InterfaceDecl& decl : program.interfaces()) {
    InterfaceChecker(program, decl, options, problems).Run();
  }
  return problems;
}

Status CheckProgramOk(const Program& program, const CheckOptions& options) {
  std::vector<Status> problems = CheckProgram(program, options);
  if (problems.empty()) {
    return OkStatus();
  }
  return problems.front();
}

SlotTable ResolveSlots(const InterfaceDecl& decl) {
  return SlotResolver(decl).Run();
}

std::vector<std::string> CollectEcvNames(const InterfaceDecl& decl) {
  std::vector<std::string> names;
  CollectEcvsFromBlock(decl.body, names);
  return names;
}

std::set<std::string> TransitiveCallees(const Program& program,
                                        const std::string& root) {
  std::set<std::string> visited;
  std::vector<std::string> frontier = {root};
  while (!frontier.empty()) {
    const std::string name = frontier.back();
    frontier.pop_back();
    if (!visited.insert(name).second) {
      continue;
    }
    const InterfaceDecl* decl = program.FindInterface(name);
    if (decl == nullptr) {
      continue;
    }
    VisitExprs(decl->body, [&](const Expr& e) {
      if (e.kind == ExprKind::kCall) {
        const auto& call = static_cast<const CallExpr&>(e);
        if (!IsBuiltinName(call.callee) && visited.count(call.callee) == 0) {
          frontier.push_back(call.callee);
        }
      }
    });
  }
  return visited;
}

}  // namespace eclarity
