// Abstract syntax tree for EIL programs.
//
// A Program is a set of named interface declarations plus top-level
// constants; each interface is a parameterised block of statements that must
// return an energy value (paper §3: "the energy interface takes in the same
// input as the implementation and returns the amount of energy ...").
//
// All nodes support Clone(), because composition workflows (layer rebinding,
// program merging, extraction) build new programs out of pieces of old ones.

#ifndef ECLARITY_SRC_LANG_AST_H_
#define ECLARITY_SRC_LANG_AST_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace eclarity {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kNumberLit,
  kEnergyLit,
  kBoolLit,
  kVarRef,
  kUnary,
  kBinary,
  kConditional,
  kCall,
};

enum class UnaryOp { kNeg, kNot };

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

const char* BinaryOpName(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  virtual ExprPtr Clone() const = 0;

  ExprKind kind;
  int line = 0;
  int column = 0;
};

struct NumberLit : Expr {
  explicit NumberLit(double v) : Expr(ExprKind::kNumberLit), value(v) {}
  ExprPtr Clone() const override;
  double value;
};

struct EnergyLit : Expr {
  EnergyLit(double j, std::string unit)
      : Expr(ExprKind::kEnergyLit), joules(j), unit_text(std::move(unit)) {}
  ExprPtr Clone() const override;
  double joules;           // value converted to Joules
  std::string unit_text;   // original unit suffix, for pretty printing
};

struct BoolLit : Expr {
  explicit BoolLit(bool v) : Expr(ExprKind::kBoolLit), value(v) {}
  ExprPtr Clone() const override;
  bool value;
};

struct VarRef : Expr {
  explicit VarRef(std::string n) : Expr(ExprKind::kVarRef), name(std::move(n)) {}
  ExprPtr Clone() const override;
  std::string name;
};

struct UnaryExpr : Expr {
  UnaryExpr(UnaryOp o, ExprPtr operand_expr)
      : Expr(ExprKind::kUnary), op(o), operand(std::move(operand_expr)) {}
  ExprPtr Clone() const override;
  UnaryOp op;
  ExprPtr operand;
};

struct BinaryExpr : Expr {
  BinaryExpr(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kBinary), op(o), lhs(std::move(l)), rhs(std::move(r)) {}
  ExprPtr Clone() const override;
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct ConditionalExpr : Expr {
  ConditionalExpr(ExprPtr c, ExprPtr t, ExprPtr e)
      : Expr(ExprKind::kConditional),
        condition(std::move(c)),
        then_value(std::move(t)),
        else_value(std::move(e)) {}
  ExprPtr Clone() const override;
  ExprPtr condition;
  ExprPtr then_value;
  ExprPtr else_value;
};

// A call to another interface or to a builtin (min, max, abs, floor, ceil,
// pow, log2, sqrt, clamp, au). Resolution happens at evaluation time against
// the enclosing Program and the builtin table.
struct CallExpr : Expr {
  CallExpr(std::string c, std::vector<ExprPtr> a)
      : Expr(ExprKind::kCall), callee(std::move(c)), args(std::move(a)) {}
  ExprPtr Clone() const override;
  std::string callee;
  std::vector<ExprPtr> args;
  // For the `au("name")` builtin the first argument may be a string literal;
  // strings exist only in this position, so they are stored out-of-band.
  std::vector<std::string> string_args;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind { kLet, kAssign, kEcv, kIf, kFor, kReturn };

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Block {
  std::vector<StmtPtr> statements;

  Block() = default;
  Block(Block&&) = default;
  Block& operator=(Block&&) = default;
  Block Clone() const;
};

struct Stmt {
  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;
  virtual StmtPtr Clone() const = 0;

  StmtKind kind;
  int line = 0;
  int column = 0;
};

struct LetStmt : Stmt {
  LetStmt(std::string n, bool m, ExprPtr i)
      : Stmt(StmtKind::kLet), name(std::move(n)), is_mut(m), init(std::move(i)) {}
  StmtPtr Clone() const override;
  std::string name;
  bool is_mut;
  ExprPtr init;
};

struct AssignStmt : Stmt {
  AssignStmt(std::string n, ExprPtr v)
      : Stmt(StmtKind::kAssign), name(std::move(n)), value(std::move(v)) {}
  StmtPtr Clone() const override;
  std::string name;
  ExprPtr value;
};

// The distribution an ECV is drawn from, as declared in source. This is the
// *default* distribution; evaluation may override it with a workload-specific
// EcvProfile (paper §3: ECVs "capture factors ... not directly related to the
// input of the interface").
enum class EcvDistKind { kBernoulli, kCategorical, kUniformInt };

struct EcvDistSpec {
  EcvDistKind kind = EcvDistKind::kBernoulli;
  // kBernoulli: params = {p}.
  // kUniformInt: params = {lo, hi}.
  // kCategorical: params alternate value, probability, value, probability...
  std::vector<ExprPtr> params;

  EcvDistSpec Clone() const;
};

struct EcvStmt : Stmt {
  EcvStmt(std::string n, EcvDistSpec d)
      : Stmt(StmtKind::kEcv), name(std::move(n)), dist(std::move(d)) {}
  StmtPtr Clone() const override;
  std::string name;
  EcvDistSpec dist;
};

struct IfStmt : Stmt {
  IfStmt(ExprPtr c, Block t, std::optional<Block> e)
      : Stmt(StmtKind::kIf),
        condition(std::move(c)),
        then_block(std::move(t)),
        else_block(std::move(e)) {}
  StmtPtr Clone() const override;
  ExprPtr condition;
  Block then_block;
  std::optional<Block> else_block;
};

// `for name in begin..end { body }` — iterates name over [begin, end),
// integer steps. Bounds are evaluated once, before the first iteration.
struct ForStmt : Stmt {
  ForStmt(std::string v, ExprPtr b, ExprPtr e, Block body_block)
      : Stmt(StmtKind::kFor),
        var(std::move(v)),
        begin(std::move(b)),
        end(std::move(e)),
        body(std::move(body_block)) {}
  StmtPtr Clone() const override;
  std::string var;
  ExprPtr begin;
  ExprPtr end;
  Block body;
};

struct ReturnStmt : Stmt {
  explicit ReturnStmt(ExprPtr v) : Stmt(StmtKind::kReturn), value(std::move(v)) {}
  StmtPtr Clone() const override;
  ExprPtr value;
};

// ---------------------------------------------------------------------------
// Declarations and programs
// ---------------------------------------------------------------------------

struct InterfaceDecl {
  std::string name;
  std::vector<std::string> params;
  Block body;
  std::string doc;  // leading comment block, kept for documentation output
  int line = 0;

  InterfaceDecl Clone() const;
};

struct ConstDecl {
  std::string name;
  ExprPtr value;

  ConstDecl Clone() const;
};

// A declared import: `extern interface E_gpu_kernel(instructions, ...);`
// states that this program calls E_gpu_kernel with the given arity but
// expects another layer to provide the implementation. Externs make
// imports explicit (the checker validates call arity against them) and are
// satisfied by Merge()-ing a program that defines the interface.
struct ExternDecl {
  std::string name;
  std::vector<std::string> params;
  int line = 0;
};

// A compilation unit: constants + interfaces. Interfaces may call each other
// (and themselves, bounded by the evaluator's recursion limit).
class Program {
 public:
  Program() = default;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  Program Clone() const;

  // Fails with kAlreadyExists on duplicate names (across consts+interfaces).
  Status AddInterface(InterfaceDecl decl);
  Status AddConst(ConstDecl decl);
  // Registers an import. Declaring an extern for an already-defined
  // interface fails; re-declaring an identical extern is a no-op; an
  // arity mismatch with a previous extern fails.
  Status AddExtern(ExternDecl decl);

  // Replaces an existing interface with the same name, or adds it if
  // absent; a matching extern declaration is consumed (the import is now
  // satisfied).
  void ReplaceInterface(InterfaceDecl decl);

  const InterfaceDecl* FindInterface(const std::string& name) const;
  const ConstDecl* FindConst(const std::string& name) const;
  const ExternDecl* FindExtern(const std::string& name) const;
  bool Has(const std::string& name) const;

  const std::vector<InterfaceDecl>& interfaces() const { return interfaces_; }
  const std::vector<ConstDecl>& consts() const { return consts_; }
  const std::vector<ExternDecl>& externs() const { return externs_; }

  // Imports every declaration from `other`. With `overwrite` set, colliding
  // interfaces are replaced (used for hardware-layer rebinding, paper §3);
  // otherwise a collision is an error.
  Status Merge(const Program& other, bool overwrite = false);

  // Names of interfaces referenced by calls within this program but not
  // defined in it and not builtins — the program's imports (declared
  // externs included). A program is "closed" when this is empty.
  std::vector<std::string> UnresolvedCallees() const;

 private:
  std::vector<ConstDecl> consts_;
  std::vector<InterfaceDecl> interfaces_;
  std::vector<ExternDecl> externs_;
};

// The builtin function table, declared once: X(id, name, min_args,
// max_args). IsBuiltinName, the checker's arity rule, and the scalar
// (ApplyBuiltin) and interval evaluators all read this list. `au` also
// takes a unit-name string as its first argument; the parser keeps a
// placeholder for it in the argument count.
#define ECLARITY_BUILTINS(X)  \
  X(kMin, "min", 2, 2)        \
  X(kMax, "max", 2, 2)        \
  X(kAbs, "abs", 1, 1)        \
  X(kFloor, "floor", 1, 1)    \
  X(kCeil, "ceil", 1, 1)      \
  X(kRound, "round", 1, 1)    \
  X(kPow, "pow", 2, 2)        \
  X(kLog, "log", 1, 1)        \
  X(kLog2, "log2", 1, 1)      \
  X(kExp, "exp", 1, 1)        \
  X(kSqrt, "sqrt", 1, 1)      \
  X(kClamp, "clamp", 3, 3)    \
  X(kAu, "au", 1, 2)

enum class BuiltinId : uint8_t {
#define ECLARITY_BUILTIN_ENUM(id, name, min_args, max_args) id,
  ECLARITY_BUILTINS(ECLARITY_BUILTIN_ENUM)
#undef ECLARITY_BUILTIN_ENUM
};

struct BuiltinInfo {
  BuiltinId id;
  std::string_view name;
  size_t min_args;
  size_t max_args;
};

// The table entry for builtin `name`, or null when `name` is no builtin.
const BuiltinInfo* FindBuiltin(std::string_view name);
bool IsBuiltinName(const std::string& name);

// ---------------------------------------------------------------------------
// Construction helpers (used by generators and tests)
// ---------------------------------------------------------------------------

ExprPtr MakeNumber(double value);
ExprPtr MakeEnergyJoules(double joules);
ExprPtr MakeBool(bool value);
ExprPtr MakeVar(std::string name);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeConditional(ExprPtr condition, ExprPtr then_value, ExprPtr else_value);
ExprPtr MakeCall(std::string callee, std::vector<ExprPtr> args);
StmtPtr MakeLet(std::string name, ExprPtr init, bool is_mut = false);
StmtPtr MakeAssign(std::string name, ExprPtr value);
StmtPtr MakeReturn(ExprPtr value);

// Walks every expression in the program, invoking `fn`. Used by analyses
// that need a full traversal (callee collection, ECV discovery, ...).
void VisitExprs(const Program& program, const std::function<void(const Expr&)>& fn);
void VisitExprs(const Block& block, const std::function<void(const Expr&)>& fn);

}  // namespace eclarity

#endif  // ECLARITY_SRC_LANG_AST_H_
