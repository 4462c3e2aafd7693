#include "src/eval/interval.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>

namespace eclarity {

NumInterval NumInterval::Hull(const NumInterval& other) const {
  return {std::min(lo, other.lo), std::max(hi, other.hi)};
}

EnergyInterval EnergyInterval::Hull(const EnergyInterval& other) const {
  return {std::min(lo_joules, other.lo_joules),
          std::max(hi_joules, other.hi_joules)};
}

IntervalValue IntervalValue::Number(double lo, double hi) {
  return IntervalValue(NumInterval{std::min(lo, hi), std::max(lo, hi)});
}

IntervalValue IntervalValue::NumberPoint(double v) {
  return IntervalValue(NumInterval::Point(v));
}

IntervalValue IntervalValue::Boolean(BoolSet b) { return IntervalValue(b); }

IntervalValue IntervalValue::EnergyJoules(double lo, double hi) {
  return IntervalValue(EnergyInterval{std::min(lo, hi), std::max(lo, hi)});
}

Result<IntervalValue> IntervalValue::Hull(const IntervalValue& other) const {
  if (is_number() && other.is_number()) {
    const NumInterval h = num().Hull(other.num());
    return IntervalValue::Number(h.lo, h.hi);
  }
  if (is_bool() && other.is_bool()) {
    return IntervalValue::Boolean(boolean().Hull(other.boolean()));
  }
  if (is_energy() && other.is_energy()) {
    const EnergyInterval h = energy().Hull(other.energy());
    return IntervalValue::EnergyJoules(h.lo_joules, h.hi_joules);
  }
  return InvalidArgumentError("interval hull of mismatched kinds");
}

std::string IntervalValue::ToString() const {
  std::ostringstream os;
  if (is_number()) {
    os << "[" << num().lo << ", " << num().hi << "]";
  } else if (is_bool()) {
    if (boolean().IsDefinite()) {
      os << (boolean().can_true ? "true" : "false");
    } else {
      os << "{true,false}";
    }
  } else {
    os << "[" << energy().lo_joules << "J, " << energy().hi_joules << "J]";
  }
  return os.str();
}

namespace {

// --- Interval arithmetic ---------------------------------------------------

NumInterval AddN(NumInterval a, NumInterval b) {
  return {a.lo + b.lo, a.hi + b.hi};
}
NumInterval SubN(NumInterval a, NumInterval b) {
  return {a.lo - b.hi, a.hi - b.lo};
}
NumInterval MulN(NumInterval a, NumInterval b) {
  const double p1 = a.lo * b.lo;
  const double p2 = a.lo * b.hi;
  const double p3 = a.hi * b.lo;
  const double p4 = a.hi * b.hi;
  return {std::min({p1, p2, p3, p4}), std::max({p1, p2, p3, p4})};
}
Result<NumInterval> DivN(NumInterval a, NumInterval b) {
  if (b.Contains(0.0)) {
    return InvalidArgumentError("interval division by interval containing 0");
  }
  const double p1 = a.lo / b.lo;
  const double p2 = a.lo / b.hi;
  const double p3 = a.hi / b.lo;
  const double p4 = a.hi / b.hi;
  return NumInterval{std::min({p1, p2, p3, p4}), std::max({p1, p2, p3, p4})};
}

// Three-valued comparison result on interval endpoints.
BoolSet CompareN(BinaryOp op, NumInterval a, NumInterval b) {
  auto definitely = [](bool v) { return v ? BoolSet::True() : BoolSet::False(); };
  switch (op) {
    case BinaryOp::kLt:
      if (a.hi < b.lo) return definitely(true);
      if (a.lo >= b.hi) return definitely(false);
      return BoolSet::Both();
    case BinaryOp::kLe:
      if (a.hi <= b.lo) return definitely(true);
      if (a.lo > b.hi) return definitely(false);
      return BoolSet::Both();
    case BinaryOp::kGt:
      return CompareN(BinaryOp::kLt, b, a);
    case BinaryOp::kGe:
      return CompareN(BinaryOp::kLe, b, a);
    case BinaryOp::kEq:
      if (a.IsPoint() && b.IsPoint() && a.lo == b.lo) return definitely(true);
      if (a.hi < b.lo || b.hi < a.lo) return definitely(false);
      return BoolSet::Both();
    case BinaryOp::kNe: {
      const BoolSet eq = CompareN(BinaryOp::kEq, a, b);
      return {eq.can_false, eq.can_true};
    }
    default:
      return BoolSet::Both();
  }
}

// --- The evaluator ---------------------------------------------------------

struct IBinding {
  IntervalValue value;
  bool is_mut = false;
};

// Scoped environment over interval values with join support for branch
// merging. Join touches only bindings visible in both environments.
class IEnv {
 public:
  IEnv() { scopes_.emplace_back(); }

  void Push() { scopes_.emplace_back(); }
  void Pop() { scopes_.pop_back(); }

  Status Define(const std::string& name, IntervalValue v, bool is_mut) {
    auto& scope = scopes_.back();
    if (scope.count(name) > 0) {
      return AlreadyExistsError("redefinition of '" + name + "'");
    }
    scope[name] = IBinding{std::move(v), is_mut};
    return OkStatus();
  }

  Status Assign(const std::string& name, IntervalValue v) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto binding = it->find(name);
      if (binding != it->end()) {
        if (!binding->second.is_mut) {
          return FailedPreconditionError("assignment to immutable '" + name +
                                         "'");
        }
        binding->second.value = std::move(v);
        return OkStatus();
      }
    }
    return NotFoundError("assignment to undefined '" + name + "'");
  }

  Result<IntervalValue> Lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto binding = it->find(name);
      if (binding != it->end()) {
        return binding->second.value;
      }
    }
    return NotFoundError("undefined name '" + name + "'");
  }

  // Joins mutable state from `other` into this environment (hulls every
  // binding present in both; both environments must have identical scope
  // structure, which branch execution guarantees).
  Status JoinFrom(const IEnv& other) {
    if (scopes_.size() != other.scopes_.size()) {
      return InternalError("environment join with mismatched scopes");
    }
    for (size_t s = 0; s < scopes_.size(); ++s) {
      for (auto& [name, binding] : scopes_[s]) {
        const auto theirs = other.scopes_[s].find(name);
        if (theirs == other.scopes_[s].end()) {
          continue;
        }
        ECLARITY_ASSIGN_OR_RETURN(binding.value,
                                  binding.value.Hull(theirs->second.value));
      }
    }
    return OkStatus();
  }

 private:
  friend class ScopedIEnv;
  std::vector<std::map<std::string, IBinding>> scopes_;
};

class ScopedIEnv {
 public:
  explicit ScopedIEnv(IEnv& env) : env_(env) { env_.Push(); }
  ~ScopedIEnv() { env_.Pop(); }
  ScopedIEnv(const ScopedIEnv&) = delete;
  ScopedIEnv& operator=(const ScopedIEnv&) = delete;

 private:
  IEnv& env_;
};

class IntervalExecution {
 public:
  IntervalExecution(const Program& program, const EnergyCalibration* cal,
                    const IntervalOptions& options, const EcvProfile& profile)
      : program_(program), calibration_(cal), options_(options),
        profile_(profile) {}

  Result<EnergyInterval> CallInterface(const std::string& name,
                                       const std::vector<IntervalValue>& args) {
    const InterfaceDecl* decl = program_.FindInterface(name);
    if (decl == nullptr) {
      return NotFoundError("call to undefined interface '" + name + "'");
    }
    if (decl->params.size() != args.size()) {
      return InvalidArgumentError("arity mismatch calling '" + name + "'");
    }
    if (++depth_ > options_.max_call_depth) {
      return ResourceExhaustedError("interval call depth exceeded at '" +
                                    name + "'");
    }
    IEnv env;
    for (size_t i = 0; i < args.size(); ++i) {
      ECLARITY_RETURN_IF_ERROR(env.Define(decl->params[i], args[i], false));
    }
    std::optional<EnergyInterval> returns;
    ECLARITY_ASSIGN_OR_RETURN(bool definitely_returned,
                              ExecBlock(decl->body, env, *decl, returns));
    --depth_;
    if (!returns.has_value() || !definitely_returned) {
      return InternalError("interface '" + name +
                           "' may fall off the end without returning");
    }
    return *returns;
  }

 private:
  std::string Ctx(const InterfaceDecl& iface, int line, int column) const {
    std::ostringstream os;
    os << "in '" << iface.name << "' at " << line << ":" << column;
    return os.str();
  }

  // Executes a block. Accumulates any return-value bounds into `returns`.
  // The returned bool is true when every path through the block returns.
  Result<bool> ExecBlock(const Block& block, IEnv& env,
                         const InterfaceDecl& iface,
                         std::optional<EnergyInterval>& returns) {
    ScopedIEnv scope(env);
    for (const StmtPtr& stmt : block.statements) {
      if (++steps_ > options_.max_steps) {
        return ResourceExhaustedError("interval step budget exhausted");
      }
      switch (stmt->kind) {
        case StmtKind::kLet: {
          const auto& s = static_cast<const LetStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(IntervalValue v, Eval(*s.init, env, iface));
          ECLARITY_RETURN_IF_ERROR(env.Define(s.name, std::move(v), s.is_mut));
          break;
        }
        case StmtKind::kAssign: {
          const auto& s = static_cast<const AssignStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(IntervalValue v,
                                    Eval(*s.value, env, iface));
          ECLARITY_RETURN_IF_ERROR(env.Assign(s.name, std::move(v)));
          break;
        }
        case StmtKind::kEcv: {
          const auto& s = static_cast<const EcvStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(IntervalValue hull,
                                    EcvHull(s, env, iface));
          ECLARITY_RETURN_IF_ERROR(env.Define(s.name, std::move(hull), false));
          break;
        }
        case StmtKind::kIf: {
          const auto& s = static_cast<const IfStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(IntervalValue cond,
                                    Eval(*s.condition, env, iface));
          if (!cond.is_bool()) {
            return InvalidArgumentError(
                Ctx(iface, stmt->line, stmt->column) +
                ": if condition is not boolean");
          }
          const BoolSet truth = cond.boolean();
          if (truth.IsDefinite()) {
            if (truth.can_true) {
              ECLARITY_ASSIGN_OR_RETURN(
                  bool r, ExecBlock(s.then_block, env, iface, returns));
              if (r) {
                return true;
              }
            } else if (s.else_block.has_value()) {
              ECLARITY_ASSIGN_OR_RETURN(
                  bool r, ExecBlock(*s.else_block, env, iface, returns));
              if (r) {
                return true;
              }
            }
            break;
          }
          // Indefinite condition: explore both arms on copies and join.
          IEnv then_env = env;
          IEnv else_env = env;
          ECLARITY_ASSIGN_OR_RETURN(
              bool then_returns,
              ExecBlock(s.then_block, then_env, iface, returns));
          bool else_returns = false;
          if (s.else_block.has_value()) {
            ECLARITY_ASSIGN_OR_RETURN(
                else_returns, ExecBlock(*s.else_block, else_env, iface,
                                        returns));
          }
          if (then_returns && else_returns) {
            return true;
          }
          if (then_returns) {
            env = std::move(else_env);
          } else if (else_returns) {
            env = std::move(then_env);
          } else {
            env = std::move(then_env);
            ECLARITY_RETURN_IF_ERROR(env.JoinFrom(else_env));
          }
          break;
        }
        case StmtKind::kFor: {
          const auto& s = static_cast<const ForStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(IntervalValue begin_v,
                                    Eval(*s.begin, env, iface));
          ECLARITY_ASSIGN_OR_RETURN(IntervalValue end_v,
                                    Eval(*s.end, env, iface));
          if (!begin_v.is_number() || !end_v.is_number()) {
            return InvalidArgumentError(Ctx(iface, stmt->line, stmt->column) +
                                        ": loop bounds must be numbers");
          }
          ECLARITY_RETURN_IF_ERROR(
              ExecLoop(s, begin_v.num(), end_v.num(), env, iface, returns));
          break;
        }
        case StmtKind::kReturn: {
          const auto& s = static_cast<const ReturnStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(IntervalValue v,
                                    Eval(*s.value, env, iface));
          if (!v.is_energy()) {
            return InvalidArgumentError(Ctx(iface, stmt->line, stmt->column) +
                                        ": return value is not an energy");
          }
          if (returns.has_value()) {
            returns = returns->Hull(v.energy());
          } else {
            returns = v.energy();
          }
          return true;
        }
      }
    }
    return false;
  }

  Status ExecLoop(const ForStmt& s, NumInterval begin, NumInterval end,
                  IEnv& env, const InterfaceDecl& iface,
                  std::optional<EnergyInterval>& returns) {
    const int64_t lo_begin = static_cast<int64_t>(std::llround(begin.lo));
    const int64_t hi_begin = static_cast<int64_t>(std::llround(begin.hi));
    const int64_t lo_end = static_cast<int64_t>(std::llround(end.lo));
    const int64_t hi_end = static_cast<int64_t>(std::llround(end.hi));
    if (lo_begin != hi_begin) {
      return InvalidArgumentError(
          "worst-case analysis requires a definite loop start");
    }
    const int64_t start = lo_begin;
    const int64_t definite_end = std::max(start, lo_end);
    const int64_t possible_end = std::max(start, hi_end);
    if (static_cast<uint64_t>(possible_end - start) >
        options_.max_loop_iterations) {
      return ResourceExhaustedError("interval loop bound too large");
    }
    // Guaranteed iterations execute exactly.
    for (int64_t i = start; i < definite_end; ++i) {
      ECLARITY_RETURN_IF_ERROR(
          RunIteration(s, i, env, iface, returns, /*maybe=*/false));
    }
    // Possible extra iterations: each joins the "skipped" state with the
    // "executed" state, so the result covers both trip counts.
    for (int64_t i = definite_end; i < possible_end; ++i) {
      ECLARITY_RETURN_IF_ERROR(
          RunIteration(s, i, env, iface, returns, /*maybe=*/true));
    }
    return OkStatus();
  }

  Status RunIteration(const ForStmt& s, int64_t i, IEnv& env,
                      const InterfaceDecl& iface,
                      std::optional<EnergyInterval>& returns, bool maybe) {
    if (++steps_ > options_.max_steps) {
      return ResourceExhaustedError("interval step budget exhausted");
    }
    IEnv skipped;
    if (maybe) {
      skipped = env;
    }
    {
      ScopedIEnv iteration(env);
      ECLARITY_RETURN_IF_ERROR(env.Define(
          s.var, IntervalValue::NumberPoint(static_cast<double>(i)), false));
      // Early return inside the body makes the remainder of the loop
      // "maybe executed"; treating the return bound as accumulated and
      // continuing keeps the result a sound over-approximation.
      ECLARITY_ASSIGN_OR_RETURN(bool returned,
                                ExecBlock(s.body, env, iface, returns));
      (void)returned;
    }
    if (maybe) {
      ECLARITY_RETURN_IF_ERROR(env.JoinFrom(skipped));
    }
    return OkStatus();
  }

  Result<IntervalValue> EcvHull(const EcvStmt& s, IEnv& env,
                                const InterfaceDecl& iface) {
    const EcvSupport* override_support = profile_.Find(iface.name, s.name);
    if (override_support != nullptr) {
      return HullOfSupport(*override_support);
    }
    switch (s.dist.kind) {
      case EcvDistKind::kBernoulli:
        return IntervalValue::Boolean(BoolSet::Both());
      case EcvDistKind::kUniformInt: {
        ECLARITY_ASSIGN_OR_RETURN(IntervalValue lo,
                                  Eval(*s.dist.params[0], env, iface));
        ECLARITY_ASSIGN_OR_RETURN(IntervalValue hi,
                                  Eval(*s.dist.params[1], env, iface));
        if (!lo.is_number() || !hi.is_number()) {
          return InvalidArgumentError("uniform_int bounds must be numbers");
        }
        return IntervalValue::Number(lo.num().lo, hi.num().hi);
      }
      case EcvDistKind::kCategorical: {
        std::optional<IntervalValue> hull;
        for (size_t i = 0; i + 1 < s.dist.params.size(); i += 2) {
          ECLARITY_ASSIGN_OR_RETURN(IntervalValue v,
                                    Eval(*s.dist.params[i], env, iface));
          if (!hull.has_value()) {
            hull = v;
          } else {
            ECLARITY_ASSIGN_OR_RETURN(hull, hull->Hull(v));
          }
        }
        if (!hull.has_value()) {
          return InvalidArgumentError("empty categorical ECV");
        }
        return *hull;
      }
    }
    return InternalError("unknown ECV distribution kind");
  }

  Result<IntervalValue> HullOfSupport(const EcvSupport& support) {
    std::optional<IntervalValue> hull;
    for (const auto& [value, prob] : support.outcomes) {
      IntervalValue iv;
      switch (value.kind()) {
        case ValueKind::kNumber:
          iv = IntervalValue::NumberPoint(value.number());
          break;
        case ValueKind::kBool:
          iv = IntervalValue::Boolean(value.boolean() ? BoolSet::True()
                                                      : BoolSet::False());
          break;
        case ValueKind::kEnergy: {
          ECLARITY_ASSIGN_OR_RETURN(double j, ResolveEnergy(value.energy()));
          iv = IntervalValue::EnergyJoules(j, j);
          break;
        }
      }
      if (!hull.has_value()) {
        hull = iv;
      } else {
        ECLARITY_ASSIGN_OR_RETURN(hull, hull->Hull(iv));
      }
    }
    if (!hull.has_value()) {
      return InvalidArgumentError("empty ECV support");
    }
    return *hull;
  }

  Result<double> ResolveEnergy(const AbstractEnergy& e) const {
    if (e.IsConcrete()) {
      return e.concrete().joules();
    }
    if (calibration_ == nullptr) {
      return FailedPreconditionError(
          "abstract energy in interval evaluation requires a calibration");
    }
    ECLARITY_ASSIGN_OR_RETURN(Energy resolved, e.Resolve(*calibration_));
    return resolved.joules();
  }

  Result<IntervalValue> Eval(const Expr& e, IEnv& env,
                             const InterfaceDecl& iface) {
    switch (e.kind) {
      case ExprKind::kNumberLit:
        return IntervalValue::NumberPoint(
            static_cast<const NumberLit&>(e).value);
      case ExprKind::kEnergyLit: {
        const double j = static_cast<const EnergyLit&>(e).joules;
        return IntervalValue::EnergyJoules(j, j);
      }
      case ExprKind::kBoolLit:
        return IntervalValue::Boolean(static_cast<const BoolLit&>(e).value
                                          ? BoolSet::True()
                                          : BoolSet::False());
      case ExprKind::kVarRef: {
        const auto& var = static_cast<const VarRef&>(e);
        Result<IntervalValue> local = env.Lookup(var.name);
        if (local.ok()) {
          return local;
        }
        const ConstDecl* constant = program_.FindConst(var.name);
        if (constant != nullptr) {
          return Eval(*constant->value, env, iface);
        }
        return NotFoundError(Ctx(iface, e.line, e.column) +
                             ": undefined name '" + var.name + "'");
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        ECLARITY_ASSIGN_OR_RETURN(IntervalValue operand,
                                  Eval(*u.operand, env, iface));
        if (u.op == UnaryOp::kNeg) {
          if (operand.is_number()) {
            return IntervalValue::Number(-operand.num().hi, -operand.num().lo);
          }
          if (operand.is_energy()) {
            return IntervalValue::EnergyJoules(-operand.energy().hi_joules,
                                               -operand.energy().lo_joules);
          }
          return InvalidArgumentError("cannot negate a bool");
        }
        if (!operand.is_bool()) {
          return InvalidArgumentError("'!' requires a bool");
        }
        const BoolSet b = operand.boolean();
        return IntervalValue::Boolean(BoolSet{b.can_false, b.can_true});
      }
      case ExprKind::kBinary:
        return EvalBinary(static_cast<const BinaryExpr&>(e), env, iface);
      case ExprKind::kConditional: {
        const auto& c = static_cast<const ConditionalExpr&>(e);
        ECLARITY_ASSIGN_OR_RETURN(IntervalValue cond,
                                  Eval(*c.condition, env, iface));
        if (!cond.is_bool()) {
          return InvalidArgumentError("ternary condition is not boolean");
        }
        if (cond.boolean().IsDefinite()) {
          return cond.boolean().can_true ? Eval(*c.then_value, env, iface)
                                         : Eval(*c.else_value, env, iface);
        }
        ECLARITY_ASSIGN_OR_RETURN(IntervalValue t,
                                  Eval(*c.then_value, env, iface));
        ECLARITY_ASSIGN_OR_RETURN(IntervalValue f,
                                  Eval(*c.else_value, env, iface));
        return t.Hull(f);
      }
      case ExprKind::kCall:
        return EvalCall(static_cast<const CallExpr&>(e), env, iface);
    }
    return InternalError("unknown expression kind");
  }

  Result<IntervalValue> EvalBinary(const BinaryExpr& b, IEnv& env,
                                   const InterfaceDecl& iface) {
    ECLARITY_ASSIGN_OR_RETURN(IntervalValue lhs, Eval(*b.lhs, env, iface));
    ECLARITY_ASSIGN_OR_RETURN(IntervalValue rhs, Eval(*b.rhs, env, iface));
    const std::string context = Ctx(iface, b.line, b.column);
    switch (b.op) {
      case BinaryOp::kAdd:
        if (lhs.is_number() && rhs.is_number()) {
          const NumInterval r = AddN(lhs.num(), rhs.num());
          return IntervalValue::Number(r.lo, r.hi);
        }
        if (lhs.is_energy() && rhs.is_energy()) {
          return IntervalValue::EnergyJoules(
              lhs.energy().lo_joules + rhs.energy().lo_joules,
              lhs.energy().hi_joules + rhs.energy().hi_joules);
        }
        return InvalidArgumentError(context + ": '+' kind mismatch");
      case BinaryOp::kSub:
        if (lhs.is_number() && rhs.is_number()) {
          const NumInterval r = SubN(lhs.num(), rhs.num());
          return IntervalValue::Number(r.lo, r.hi);
        }
        if (lhs.is_energy() && rhs.is_energy()) {
          return IntervalValue::EnergyJoules(
              lhs.energy().lo_joules - rhs.energy().hi_joules,
              lhs.energy().hi_joules - rhs.energy().lo_joules);
        }
        return InvalidArgumentError(context + ": '-' kind mismatch");
      case BinaryOp::kMul: {
        if (lhs.is_number() && rhs.is_number()) {
          const NumInterval r = MulN(lhs.num(), rhs.num());
          return IntervalValue::Number(r.lo, r.hi);
        }
        const IntervalValue* energy = nullptr;
        const IntervalValue* scale = nullptr;
        if (lhs.is_energy() && rhs.is_number()) {
          energy = &lhs;
          scale = &rhs;
        } else if (lhs.is_number() && rhs.is_energy()) {
          energy = &rhs;
          scale = &lhs;
        } else {
          return InvalidArgumentError(context + ": '*' kind mismatch");
        }
        const NumInterval r =
            MulN(NumInterval{energy->energy().lo_joules,
                             energy->energy().hi_joules},
                 scale->num());
        return IntervalValue::EnergyJoules(r.lo, r.hi);
      }
      case BinaryOp::kDiv: {
        if (lhs.is_number() && rhs.is_number()) {
          ECLARITY_ASSIGN_OR_RETURN(NumInterval r, DivN(lhs.num(), rhs.num()));
          return IntervalValue::Number(r.lo, r.hi);
        }
        if (lhs.is_energy() && rhs.is_number()) {
          ECLARITY_ASSIGN_OR_RETURN(
              NumInterval r,
              DivN(NumInterval{lhs.energy().lo_joules,
                               lhs.energy().hi_joules},
                   rhs.num()));
          return IntervalValue::EnergyJoules(r.lo, r.hi);
        }
        if (lhs.is_energy() && rhs.is_energy()) {
          ECLARITY_ASSIGN_OR_RETURN(
              NumInterval r,
              DivN(NumInterval{lhs.energy().lo_joules,
                               lhs.energy().hi_joules},
                   NumInterval{rhs.energy().lo_joules,
                               rhs.energy().hi_joules}));
          return IntervalValue::Number(r.lo, r.hi);
        }
        return InvalidArgumentError(context + ": '/' kind mismatch");
      }
      case BinaryOp::kMod: {
        if (!lhs.is_number() || !rhs.is_number()) {
          return InvalidArgumentError(context + ": '%' requires numbers");
        }
        if (lhs.num().IsPoint() && rhs.num().IsPoint() && rhs.num().lo != 0) {
          return IntervalValue::NumberPoint(
              std::fmod(lhs.num().lo, rhs.num().lo));
        }
        // Sound coarse bound: |a % b| < |b|, sign follows the dividend.
        const double bound =
            std::max(std::fabs(rhs.num().lo), std::fabs(rhs.num().hi));
        double lo = -bound;
        double hi = bound;
        if (lhs.num().lo >= 0.0) {
          lo = 0.0;
        }
        if (lhs.num().hi <= 0.0) {
          hi = 0.0;
        }
        return IntervalValue::Number(lo, hi);
      }
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        NumInterval a;
        NumInterval b2;
        if (lhs.is_number() && rhs.is_number()) {
          a = lhs.num();
          b2 = rhs.num();
        } else if (lhs.is_energy() && rhs.is_energy()) {
          a = {lhs.energy().lo_joules, lhs.energy().hi_joules};
          b2 = {rhs.energy().lo_joules, rhs.energy().hi_joules};
        } else if (lhs.is_bool() && rhs.is_bool() &&
                   (b.op == BinaryOp::kEq || b.op == BinaryOp::kNe)) {
          const BoolSet x = lhs.boolean();
          const BoolSet y = rhs.boolean();
          if (x.IsDefinite() && y.IsDefinite()) {
            const bool eq = x.can_true == y.can_true;
            const bool v = b.op == BinaryOp::kEq ? eq : !eq;
            return IntervalValue::Boolean(v ? BoolSet::True()
                                            : BoolSet::False());
          }
          return IntervalValue::Boolean(BoolSet::Both());
        } else {
          return InvalidArgumentError(context + ": comparison kind mismatch");
        }
        return IntervalValue::Boolean(CompareN(b.op, a, b2));
      }
      case BinaryOp::kAnd:
      case BinaryOp::kOr: {
        if (!lhs.is_bool() || !rhs.is_bool()) {
          return InvalidArgumentError(context + ": logical op requires bools");
        }
        const BoolSet x = lhs.boolean();
        const BoolSet y = rhs.boolean();
        if (b.op == BinaryOp::kAnd) {
          return IntervalValue::Boolean(
              BoolSet{x.can_true && y.can_true, x.can_false || y.can_false});
        }
        return IntervalValue::Boolean(
            BoolSet{x.can_true || y.can_true, x.can_false && y.can_false});
      }
    }
    return InternalError("unknown binary op");
  }

  Result<IntervalValue> EvalCall(const CallExpr& call, IEnv& env,
                                 const InterfaceDecl& iface) {
    std::vector<IntervalValue> args;
    args.reserve(call.args.size());
    for (const ExprPtr& arg : call.args) {
      ECLARITY_ASSIGN_OR_RETURN(IntervalValue v, Eval(*arg, env, iface));
      args.push_back(std::move(v));
    }
    const std::string context = Ctx(iface, call.line, call.column);
    if (const BuiltinInfo* builtin = FindBuiltin(call.callee)) {
      return EvalBuiltin(builtin->id, call, args, context);
    }
    ECLARITY_ASSIGN_OR_RETURN(EnergyInterval result,
                              CallInterface(call.callee, args));
    return IntervalValue::EnergyJoules(result.lo_joules, result.hi_joules);
  }

  Result<IntervalValue> EvalBuiltin(BuiltinId id, const CallExpr& call,
                                    const std::vector<IntervalValue>& args,
                                    const std::string& context) {
    const std::string& name = call.callee;
    auto monotone1 = [&](double (*fn)(double)) -> Result<IntervalValue> {
      if (args.size() != 1 || !args[0].is_number()) {
        return InvalidArgumentError(context + ": builtin '" + name +
                                    "' expects one number");
      }
      const double lo = fn(args[0].num().lo);
      const double hi = fn(args[0].num().hi);
      if (!std::isfinite(lo) || !std::isfinite(hi)) {
        return InvalidArgumentError(context + ": builtin '" + name +
                                    "' non-finite over interval");
      }
      return IntervalValue::Number(lo, hi);
    };
    switch (id) {
      case BuiltinId::kFloor:
        return monotone1([](double x) { return std::floor(x); });
      case BuiltinId::kCeil:
        return monotone1([](double x) { return std::ceil(x); });
      case BuiltinId::kRound:
        return monotone1([](double x) { return std::round(x); });
      case BuiltinId::kSqrt:
        return monotone1([](double x) { return std::sqrt(x); });
      case BuiltinId::kLog:
        return monotone1([](double x) { return std::log(x); });
      case BuiltinId::kLog2:
        return monotone1([](double x) { return std::log2(x); });
      case BuiltinId::kExp:
        return monotone1([](double x) { return std::exp(x); });
      case BuiltinId::kAbs: {
        if (args.size() != 1) {
          return InvalidArgumentError(context + ": abs expects one argument");
        }
        if (args[0].is_number()) {
          const NumInterval a = args[0].num();
          const double lo = a.Contains(0.0)
                                ? 0.0
                                : std::min(std::fabs(a.lo), std::fabs(a.hi));
          const double hi = std::max(std::fabs(a.lo), std::fabs(a.hi));
          return IntervalValue::Number(lo, hi);
        }
        if (args[0].is_energy()) {
          const EnergyInterval a = args[0].energy();
          const NumInterval n{a.lo_joules, a.hi_joules};
          const double lo = n.Contains(0.0)
                                ? 0.0
                                : std::min(std::fabs(n.lo), std::fabs(n.hi));
          const double hi = std::max(std::fabs(n.lo), std::fabs(n.hi));
          return IntervalValue::EnergyJoules(lo, hi);
        }
        return InvalidArgumentError(context + ": abs kind mismatch");
      }
      case BuiltinId::kMin:
      case BuiltinId::kMax: {
        if (args.size() != 2) {
          return InvalidArgumentError(context + ": " + name +
                                      " expects two arguments");
        }
        const bool want_min = id == BuiltinId::kMin;
        if (args[0].is_number() && args[1].is_number()) {
          const NumInterval a = args[0].num();
          const NumInterval b = args[1].num();
          if (want_min) {
            return IntervalValue::Number(std::min(a.lo, b.lo),
                                         std::min(a.hi, b.hi));
          }
          return IntervalValue::Number(std::max(a.lo, b.lo),
                                       std::max(a.hi, b.hi));
        }
        if (args[0].is_energy() && args[1].is_energy()) {
          const EnergyInterval a = args[0].energy();
          const EnergyInterval b = args[1].energy();
          if (want_min) {
            return IntervalValue::EnergyJoules(
                std::min(a.lo_joules, b.lo_joules),
                std::min(a.hi_joules, b.hi_joules));
          }
          return IntervalValue::EnergyJoules(
              std::max(a.lo_joules, b.lo_joules),
              std::max(a.hi_joules, b.hi_joules));
        }
        return InvalidArgumentError(context + ": " + name + " kind mismatch");
      }
      case BuiltinId::kClamp: {
        if (args.size() != 3 || !args[0].is_number() ||
            !args[1].is_number() || !args[2].is_number()) {
          return InvalidArgumentError(context +
                                      ": clamp expects three numbers");
        }
        const NumInterval x = args[0].num();
        const NumInterval lo_b = args[1].num();
        const NumInterval hi_b = args[2].num();
        const double lo = std::clamp(x.lo, lo_b.lo, hi_b.hi);
        const double hi = std::clamp(x.hi, lo_b.lo, hi_b.hi);
        return IntervalValue::Number(lo, hi);
      }
      case BuiltinId::kPow: {
        if (args.size() != 2 || !args[0].is_number() || !args[1].is_number()) {
          return InvalidArgumentError(context + ": pow expects two numbers");
        }
        const NumInterval base = args[0].num();
        const NumInterval exponent = args[1].num();
        if (!exponent.IsPoint() || base.lo < 0.0) {
          return UnimplementedError(
              context + ": interval pow needs a definite exponent and a "
                        "non-negative base");
        }
        const double p1 = std::pow(base.lo, exponent.lo);
        const double p2 = std::pow(base.hi, exponent.lo);
        return IntervalValue::Number(std::min(p1, p2), std::max(p1, p2));
      }
      case BuiltinId::kAu: {
        if (call.string_args.size() != 1) {
          return InvalidArgumentError(context + ": au expects a unit name");
        }
        double count_lo = 1.0;
        double count_hi = 1.0;
        if (args.size() == 2) {
          if (!args[1].is_number()) {
            return InvalidArgumentError(context +
                                        ": au count must be a number");
          }
          count_lo = args[1].num().lo;
          count_hi = args[1].num().hi;
        }
        ECLARITY_ASSIGN_OR_RETURN(
            double per_unit,
            ResolveEnergy(AbstractEnergy::Unit(call.string_args[0], 1.0)));
        const double a = per_unit * count_lo;
        const double b = per_unit * count_hi;
        return IntervalValue::EnergyJoules(std::min(a, b), std::max(a, b));
      }
    }
    return InvalidArgumentError(context + ": unknown builtin '" + name + "'");
  }

  const Program& program_;
  const EnergyCalibration* calibration_;
  const IntervalOptions& options_;
  const EcvProfile& profile_;
  size_t steps_ = 0;
  int depth_ = 0;
};

}  // namespace

IntervalEvaluator::IntervalEvaluator(const Program& program,
                                     const EnergyCalibration* calibration,
                                     IntervalOptions options)
    : program_(&program), calibration_(calibration), options_(options) {}

Result<EnergyInterval> IntervalEvaluator::EvalInterval(
    const std::string& interface_name, const std::vector<IntervalValue>& args,
    const EcvProfile& profile) const {
  IntervalExecution exec(*program_, calibration_, options_, profile);
  return exec.CallInterface(interface_name, args);
}

Result<EnergyInterval> IntervalEvaluator::EvalIntervalPoint(
    const std::string& interface_name, const std::vector<double>& args,
    const EcvProfile& profile) const {
  std::vector<IntervalValue> iargs;
  iargs.reserve(args.size());
  for (double a : args) {
    iargs.push_back(IntervalValue::NumberPoint(a));
  }
  return EvalInterval(interface_name, iargs, profile);
}

}  // namespace eclarity
