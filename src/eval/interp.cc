#include "src/eval/interp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/eval/analytic.h"
#include "src/eval/builtins.h"
#include "src/eval/bytecode.h"
#include "src/eval/env.h"
#include "src/eval/exec_common.h"
#include "src/eval/lower.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace eclarity {

using eval_internal::Chooser;
using eval_internal::EnumeratingChooser;
using eval_internal::EvalCounters;
using eval_internal::PosContext;
using eval_internal::SamplingChooser;

namespace {

// ---------------------------------------------------------------------------
// Trace events. Only the tree walk emits them; each constructor fills every
// field of its event kind in one place.
// ---------------------------------------------------------------------------

const char* DistKindName(EcvDistKind kind) {
  switch (kind) {
    case EcvDistKind::kBernoulli:
      return "bernoulli";
    case EcvDistKind::kUniformInt:
      return "uniform_int";
    case EcvDistKind::kCategorical:
      return "categorical";
  }
  return "unknown";
}

// Renders a resolved support for kEcvDraw events.
std::string DescribeSupport(const char* kind, const EcvSupport& support) {
  std::ostringstream os;
  os << kind << '{';
  const size_t shown = std::min<size_t>(support.outcomes.size(), 4);
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << support.outcomes[i].first.ToString() << ':'
       << support.outcomes[i].second;
  }
  if (shown < support.outcomes.size()) {
    os << ", ... " << support.outcomes.size() << " outcomes";
  }
  os << '}';
  return os.str();
}

void EmitEnter(TraceSink& trace, const std::string& name, int line, int depth,
               size_t path_index) {
  TraceEvent event;
  event.kind = TraceEventKind::kInterfaceEnter;
  event.name = name;
  event.line = line;
  event.depth = depth;
  event.path_index = path_index;
  trace.OnEvent(event);
}

void EmitExit(TraceSink& trace, const std::string& name, const Value& value,
              int depth, size_t path_index) {
  TraceEvent event;
  event.kind = TraceEventKind::kInterfaceExit;
  event.name = name;
  event.value = value;
  event.depth = depth;
  event.path_index = path_index;
  trace.OnEvent(event);
}

void EmitDraw(TraceSink& trace, const std::string& qualified,
              std::string detail, const Value& outcome, double probability,
              int line, int column, int depth, size_t path_index) {
  TraceEvent event;
  event.kind = TraceEventKind::kEcvDraw;
  event.name = qualified;
  event.detail = std::move(detail);
  event.value = outcome;
  event.probability = probability;
  event.line = line;
  event.column = column;
  event.depth = depth;
  event.path_index = path_index;
  trace.OnEvent(event);
}

void EmitBranch(TraceSink& trace, bool taken, int line, int column, int depth,
                size_t path_index) {
  TraceEvent event;
  event.kind = TraceEventKind::kBranch;
  event.branch_taken = taken;
  event.line = line;
  event.column = column;
  event.depth = depth;
  event.path_index = path_index;
  trace.OnEvent(event);
}

void EmitTerm(TraceSink& trace, const std::string& iface_name,
              const Value& value, int line, int column, int depth,
              size_t path_index) {
  TraceEvent event;
  event.kind = TraceEventKind::kEnergyTerm;
  event.name = iface_name;  // the enclosing interface: provenance's site key
  event.value = value;
  event.line = line;
  event.column = column;
  event.depth = depth;
  event.path_index = path_index;
  trace.OnEvent(event);
}

// ---------------------------------------------------------------------------
// Reference engine: one execution of an interface, walking the AST. Serves
// kTreeWalk evaluators, traced evaluators (the only engine that emits trace
// events) and bytecode-engine evaluators whose program did not compile.
// ---------------------------------------------------------------------------

class Execution {
 public:
  Execution(const Program& program, const EvalOptions& options,
            const EcvProfile& profile, Chooser& chooser)
      : program_(program),
        options_(options),
        profile_(profile),
        chooser_(chooser),
        trace_(options.trace) {}

  // Labels trace events with the enumeration path being executed.
  void set_path_index(size_t index) { path_index_ = index; }

  Result<Value> CallInterface(const std::string& name,
                              const std::vector<Value>& args) {
    const InterfaceDecl* decl = program_.FindInterface(name);
    if (decl == nullptr) {
      return NotFoundError("call to undefined interface '" + name + "'");
    }
    if (decl->params.size() != args.size()) {
      std::ostringstream os;
      os << "interface '" << name << "' takes " << decl->params.size()
         << " arguments, got " << args.size();
      return InvalidArgumentError(os.str());
    }
    if (++depth_ > options_.max_call_depth) {
      EvalCounters::Get().budget_depth.Increment();
      return ResourceExhaustedError("interface call depth limit exceeded at '" +
                                    name + "'");
    }
    if (trace_ != nullptr) {
      EmitEnter(*trace_, name, decl->line, depth_, path_index_);
    }
    Environment env;
    for (size_t i = 0; i < args.size(); ++i) {
      ECLARITY_RETURN_IF_ERROR(
          env.Define(decl->params[i], args[i], /*is_mut=*/false));
    }
    ECLARITY_ASSIGN_OR_RETURN(std::optional<Value> result,
                              ExecBlock(decl->body, env, *decl));
    --depth_;
    if (!result.has_value()) {
      return InternalError("interface '" + name +
                           "' fell off the end without returning");
    }
    if (trace_ != nullptr) {
      EmitExit(*trace_, name, *result, depth_ + 1, path_index_);
    }
    return *result;
  }

 private:
  Status Budget(const InterfaceDecl& iface, const Stmt& stmt) {
    if (++steps_ > options_.max_steps) {
      EvalCounters::Get().budget_steps.Increment();
      return ResourceExhaustedError(
          "statement budget exhausted " +
          PosContext(iface, stmt.line, stmt.column));
    }
    return OkStatus();
  }

  // Executes a block; a present optional is the returned value.
  Result<std::optional<Value>> ExecBlock(const Block& block, Environment& env,
                                         const InterfaceDecl& iface) {
    ScopedScope scope(env);
    for (const StmtPtr& stmt : block.statements) {
      ECLARITY_RETURN_IF_ERROR(Budget(iface, *stmt));
      switch (stmt->kind) {
        case StmtKind::kLet: {
          const auto& s = static_cast<const LetStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(Value v, Eval(*s.init, env, iface));
          ECLARITY_RETURN_IF_ERROR(env.Define(s.name, std::move(v), s.is_mut));
          break;
        }
        case StmtKind::kAssign: {
          const auto& s = static_cast<const AssignStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(Value v, Eval(*s.value, env, iface));
          ECLARITY_RETURN_IF_ERROR(env.Assign(s.name, std::move(v)));
          break;
        }
        case StmtKind::kEcv: {
          const auto& s = static_cast<const EcvStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(EcvSupport support,
                                    ResolveSupport(s, env, iface));
          const std::string qualified = iface.name + "." + s.name;
          ECLARITY_ASSIGN_OR_RETURN(size_t idx,
                                    chooser_.Choose(qualified, support));
          if (idx >= support.outcomes.size()) {
            return InternalError("chooser returned out-of-range index");
          }
          if (trace_ != nullptr) {
            const bool overridden =
                profile_.Find(iface.name, s.name) != nullptr;
            EmitDraw(*trace_, qualified,
                     DescribeSupport(
                         overridden ? "profile" : DistKindName(s.dist.kind),
                         support),
                     support.outcomes[idx].first, support.outcomes[idx].second,
                     stmt->line, stmt->column, depth_, path_index_);
          }
          ECLARITY_RETURN_IF_ERROR(
              env.Define(s.name, support.outcomes[idx].first, false));
          break;
        }
        case StmtKind::kIf: {
          const auto& s = static_cast<const IfStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(Value cond, Eval(*s.condition, env, iface));
          Result<bool> truth = cond.AsBool();
          if (!truth.ok()) {
            return InvalidArgumentError(
                PosContext(iface, stmt->line, stmt->column) +
                ": if condition: " + truth.status().message());
          }
          if (trace_ != nullptr) {
            EmitBranch(*trace_, truth.value(), stmt->line, stmt->column,
                       depth_, path_index_);
          }
          if (truth.value()) {
            ECLARITY_ASSIGN_OR_RETURN(std::optional<Value> r,
                                      ExecBlock(s.then_block, env, iface));
            if (r.has_value()) {
              return r;
            }
          } else if (s.else_block.has_value()) {
            ECLARITY_ASSIGN_OR_RETURN(std::optional<Value> r,
                                      ExecBlock(*s.else_block, env, iface));
            if (r.has_value()) {
              return r;
            }
          }
          break;
        }
        case StmtKind::kFor: {
          const auto& s = static_cast<const ForStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(Value begin_v, Eval(*s.begin, env, iface));
          ECLARITY_ASSIGN_OR_RETURN(Value end_v, Eval(*s.end, env, iface));
          ECLARITY_ASSIGN_OR_RETURN(double begin_n, begin_v.AsNumber());
          ECLARITY_ASSIGN_OR_RETURN(double end_n, end_v.AsNumber());
          const int64_t lo = static_cast<int64_t>(std::llround(begin_n));
          const int64_t hi = static_cast<int64_t>(std::llround(end_n));
          for (int64_t i = lo; i < hi; ++i) {
            ECLARITY_RETURN_IF_ERROR(Budget(iface, *stmt));
            ScopedScope iteration(env);
            ECLARITY_RETURN_IF_ERROR(env.Define(
                s.var, Value::Number(static_cast<double>(i)), false));
            ECLARITY_ASSIGN_OR_RETURN(std::optional<Value> r,
                                      ExecBlock(s.body, env, iface));
            if (r.has_value()) {
              return r;
            }
          }
          break;
        }
        case StmtKind::kReturn: {
          const auto& s = static_cast<const ReturnStmt&>(*stmt);
          ECLARITY_ASSIGN_OR_RETURN(Value v, Eval(*s.value, env, iface));
          return std::optional<Value>(std::move(v));
        }
      }
    }
    return std::optional<Value>();
  }

  Result<EcvSupport> ResolveSupport(const EcvStmt& stmt, Environment& env,
                                    const InterfaceDecl& iface) {
    // Caller-provided profile overrides the declared distribution.
    const EcvSupport* override_support = profile_.Find(iface.name, stmt.name);
    if (override_support != nullptr) {
      return *override_support;
    }
    switch (stmt.dist.kind) {
      case EcvDistKind::kBernoulli: {
        ECLARITY_ASSIGN_OR_RETURN(Value p_v,
                                  Eval(*stmt.dist.params[0], env, iface));
        ECLARITY_ASSIGN_OR_RETURN(double p, p_v.AsNumber());
        if (p < 0.0 || p > 1.0) {
          return InvalidArgumentError(
              PosContext(iface, stmt.line, stmt.column) +
              ": bernoulli probability out of [0,1]");
        }
        return EcvSupport::Bernoulli(p);
      }
      case EcvDistKind::kUniformInt: {
        ECLARITY_ASSIGN_OR_RETURN(Value lo_v,
                                  Eval(*stmt.dist.params[0], env, iface));
        ECLARITY_ASSIGN_OR_RETURN(Value hi_v,
                                  Eval(*stmt.dist.params[1], env, iface));
        ECLARITY_ASSIGN_OR_RETURN(double lo_n, lo_v.AsNumber());
        ECLARITY_ASSIGN_OR_RETURN(double hi_n, hi_v.AsNumber());
        const int64_t lo = static_cast<int64_t>(std::llround(lo_n));
        const int64_t hi = static_cast<int64_t>(std::llround(hi_n));
        if (hi < lo) {
          return InvalidArgumentError(
              PosContext(iface, stmt.line, stmt.column) +
              ": uniform_int with inverted bounds");
        }
        const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
        if (span > options_.max_ecv_support) {
          return ResourceExhaustedError(
              PosContext(iface, stmt.line, stmt.column) +
              ": uniform_int support too large");
        }
        std::vector<std::pair<Value, double>> outcomes;
        outcomes.reserve(span);
        for (int64_t v = lo; v <= hi; ++v) {
          outcomes.emplace_back(Value::Number(static_cast<double>(v)), 1.0);
        }
        return EcvSupport::Make(std::move(outcomes));
      }
      case EcvDistKind::kCategorical: {
        std::vector<std::pair<Value, double>> outcomes;
        for (size_t i = 0; i + 1 < stmt.dist.params.size(); i += 2) {
          ECLARITY_ASSIGN_OR_RETURN(Value v,
                                    Eval(*stmt.dist.params[i], env, iface));
          ECLARITY_ASSIGN_OR_RETURN(Value p_v,
                                    Eval(*stmt.dist.params[i + 1], env, iface));
          ECLARITY_ASSIGN_OR_RETURN(double p, p_v.AsNumber());
          outcomes.emplace_back(std::move(v), p);
        }
        Result<EcvSupport> support = EcvSupport::Make(std::move(outcomes));
        if (!support.ok()) {
          return InvalidArgumentError(
              PosContext(iface, stmt.line, stmt.column) + ": " +
              support.status().message());
        }
        return support;
      }
    }
    return InternalError("unknown ECV distribution kind");
  }

  Result<Value> Eval(const Expr& e, Environment& env,
                     const InterfaceDecl& iface) {
    switch (e.kind) {
      case ExprKind::kNumberLit:
        return Value::Number(static_cast<const NumberLit&>(e).value);
      case ExprKind::kEnergyLit: {
        Value v = Value::Joules(static_cast<const EnergyLit&>(e).joules);
        if (trace_ != nullptr) {
          EmitTerm(*trace_, iface.name, v, e.line, e.column, depth_,
                   path_index_);
        }
        return v;
      }
      case ExprKind::kBoolLit:
        return Value::Bool(static_cast<const BoolLit&>(e).value);
      case ExprKind::kVarRef: {
        const auto& var = static_cast<const VarRef&>(e);
        Result<Value> local = env.Lookup(var.name);
        if (local.ok()) {
          return local;
        }
        const ConstDecl* constant = program_.FindConst(var.name);
        if (constant != nullptr) {
          return Eval(*constant->value, env, iface);
        }
        return NotFoundError(PosContext(iface, e.line, e.column) +
                             ": undefined name '" + var.name + "'");
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        ECLARITY_ASSIGN_OR_RETURN(Value operand, Eval(*u.operand, env, iface));
        // The kernel cannot fail, so only the operator's out-of-line path,
        // which can, renders the position context.
        Value out;
        if (TryApplyUnary(u.op, operand, out)) {
          return out;
        }
        return ApplyUnary(u.op, operand, PosContext(iface, e.line, e.column));
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        // Short-circuit && and ||.
        if (b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr) {
          ECLARITY_ASSIGN_OR_RETURN(Value lhs, Eval(*b.lhs, env, iface));
          ECLARITY_ASSIGN_OR_RETURN(bool lv, lhs.AsBool());
          if (b.op == BinaryOp::kAnd && !lv) {
            return Value::Bool(false);
          }
          if (b.op == BinaryOp::kOr && lv) {
            return Value::Bool(true);
          }
          ECLARITY_ASSIGN_OR_RETURN(Value rhs, Eval(*b.rhs, env, iface));
          ECLARITY_ASSIGN_OR_RETURN(bool rv, rhs.AsBool());
          return Value::Bool(rv);
        }
        ECLARITY_ASSIGN_OR_RETURN(Value lhs, Eval(*b.lhs, env, iface));
        ECLARITY_ASSIGN_OR_RETURN(Value rhs, Eval(*b.rhs, env, iface));
        Value out;
        if (TryApplyBinary(b.op, lhs, rhs, out)) {
          return out;
        }
        return ApplyBinary(b.op, lhs, rhs, PosContext(iface, e.line, e.column));
      }
      case ExprKind::kConditional: {
        const auto& c = static_cast<const ConditionalExpr&>(e);
        ECLARITY_ASSIGN_OR_RETURN(Value cond, Eval(*c.condition, env, iface));
        ECLARITY_ASSIGN_OR_RETURN(bool truth, cond.AsBool());
        return truth ? Eval(*c.then_value, env, iface)
                     : Eval(*c.else_value, env, iface);
      }
      case ExprKind::kCall: {
        const auto& call = static_cast<const CallExpr&>(e);
        std::vector<Value> args;
        args.reserve(call.args.size());
        for (const ExprPtr& arg : call.args) {
          ECLARITY_ASSIGN_OR_RETURN(Value v, Eval(*arg, env, iface));
          args.push_back(std::move(v));
        }
        if (IsBuiltinName(call.callee)) {
          Result<Value> result =
              ApplyBuiltin(call.callee, args, call.string_args,
                           PosContext(iface, e.line, e.column));
          // au(...) mints abstract energy: an energy term for the trace.
          if (trace_ != nullptr && result.ok() && call.callee == "au") {
            EmitTerm(*trace_, iface.name, result.value(), e.line, e.column,
                     depth_, path_index_);
          }
          return result;
        }
        return CallInterface(call.callee, args);
      }
    }
    return InternalError("unknown expression kind");
  }

  const Program& program_;
  const EvalOptions& options_;
  const EcvProfile& profile_;
  Chooser& chooser_;
  TraceSink* const trace_;
  size_t steps_ = 0;
  int depth_ = 0;
  size_t path_index_ = 0;
};

}  // namespace

Evaluator::Evaluator(const Program& program, EvalOptions options)
    : program_(&program),
      options_(options),
      eval_id_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {
  // Only the tree walk emits trace events, so a traced evaluator runs it
  // whatever its engine, and neither lowers nor compiles.
  if (options_.engine == EvalEngine::kTreeWalk || options_.trace != nullptr) {
    EvalCounters::Get().engine_treewalk.Increment();
    return;
  }
  lowered_ = std::make_unique<LoweredProgram>(
      LoweredProgram::Lower(program, options_.max_ecv_support));
  const auto start = std::chrono::steady_clock::now();
  Result<std::shared_ptr<const BytecodeProgram>> compiled =
      BytecodeProgram::Compile(*lowered_);
  EvalCounters::Get().bytecode_compile_micros.Observe(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (compiled.ok()) {
    bytecode_ = *std::move(compiled);
    EvalCounters::Get().engine_bytecode.Increment();
  } else {
    // Degenerate register pressure: the tree walk serves instead, with
    // identical observable behaviour. lowered_ stays: the analytic pass and
    // the batch engine read it.
    EvalCounters::Get().bytecode_fallbacks.Increment();
    EvalCounters::Get().engine_treewalk.Increment();
  }
}

void Evaluator::PrepareSpecialized(const EcvProfile& profile) const {
  if (bytecode_ == nullptr) {
    return;
  }
  std::string fingerprint = profile.Fingerprint();
  {
    std::lock_guard<std::mutex> lock(spec_mu_);
    if (spec_bytecode_ != nullptr && spec_fingerprint_ == fingerprint) {
      spec_profile_ = &profile;  // same profile at a new address
      return;
    }
  }
  // Compile outside the lock: readers keep selecting the previous program
  // until the swap below, so re-specialization never blocks evaluation.
  BytecodeProgram::CompileOptions copts;
  copts.specialize_profile = &profile;
  const auto start = std::chrono::steady_clock::now();
  Result<std::shared_ptr<const BytecodeProgram>> compiled =
      BytecodeProgram::Compile(*lowered_, copts);
  EvalCounters::Get().bytecode_compile_micros.Observe(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (!compiled.ok()) {
    return;  // the generic program keeps serving
  }
  EvalCounters::Get().bytecode_specializations.Increment();
  std::lock_guard<std::mutex> lock(spec_mu_);
  spec_bytecode_ = *std::move(compiled);
  spec_fingerprint_ = std::move(fingerprint);
  spec_profile_ = &profile;
  has_spec_.store(true, std::memory_order_release);
}

std::shared_ptr<const BytecodeProgram> Evaluator::specialized_bytecode()
    const {
  std::lock_guard<std::mutex> lock(spec_mu_);
  return spec_bytecode_;
}

std::shared_ptr<const BytecodeProgram> Evaluator::PickBytecode(
    const EcvProfile& profile) const {
  if (!has_spec_.load(std::memory_order_acquire)) {
    return bytecode_;  // possibly null (non-bytecode engine or fallback)
  }
  std::lock_guard<std::mutex> lock(spec_mu_);
  if (spec_profile_ == &profile ||
      spec_fingerprint_ == profile.Fingerprint()) {
    return spec_bytecode_;
  }
  return bytecode_;
}

Evaluator::~Evaluator() = default;

Result<Value> Evaluator::EvalSampled(const std::string& interface_name,
                                     const std::vector<Value>& args,
                                     const EcvProfile& profile,
                                     Rng& rng) const {
  SamplingChooser chooser(rng);
  if (const std::shared_ptr<const BytecodeProgram> bc = PickBytecode(profile);
      bc != nullptr) {
    BytecodeInterpreter vm(*bc, options_, profile, chooser);
    return vm.CallByName(interface_name, args);
  }
  Execution exec(*program_, options_, profile, chooser);
  return exec.CallInterface(interface_name, args);
}

Result<std::vector<WeightedOutcome>> Evaluator::Enumerate(
    const std::string& interface_name, const std::vector<Value>& args,
    const EcvProfile& profile) const {
  EnumeratingChooser chooser;
  std::vector<WeightedOutcome> outcomes;
  TraceSink* const trace = options_.trace;
  const std::shared_ptr<const BytecodeProgram> bc = PickBytecode(profile);
  std::optional<BytecodeInterpreter> vm;
  // Looked up once; a lookup error surfaces where the first path's call
  // would have raised it.
  Result<uint32_t> entry = 0u;
  if (bc != nullptr) {
    vm.emplace(*bc, options_, profile, chooser);
    entry = bc->Resolve(interface_name, args.size());
  }
  for (;;) {
    if (outcomes.size() >= options_.max_paths) {
      EvalCounters::Get().budget_paths.Increment();
      return ResourceExhaustedError(
          "ECV assignment enumeration exceeded max_paths");
    }
    const size_t path_index = outcomes.size();
    if (trace != nullptr) {
      TraceEvent start;
      start.kind = TraceEventKind::kPathStart;
      start.path_index = path_index;
      trace->OnEvent(start);
    }
    Value value;
    if (vm.has_value()) {
      if (!entry.ok()) {
        return entry.status();
      }
      vm->Reset();
      ECLARITY_ASSIGN_OR_RETURN(value, vm->Call(*entry, args));
    } else {
      Execution exec(*program_, options_, profile, chooser);
      exec.set_path_index(path_index);
      ECLARITY_ASSIGN_OR_RETURN(value,
                                exec.CallInterface(interface_name, args));
    }
    WeightedOutcome outcome;
    outcome.value = std::move(value);
    outcome.probability = chooser.probability();
    outcome.ecv_assignments = chooser.TakeAssignments();
    if (trace != nullptr) {
      TraceEvent end;
      end.kind = TraceEventKind::kPathEnd;
      end.path_index = path_index;
      end.probability = outcome.probability;
      trace->OnEvent(end);
    }
    outcomes.push_back(std::move(outcome));
    if (!chooser.Advance()) {
      break;
    }
  }
  return outcomes;
}

const AnalyticAnalysis* Evaluator::EnsureAnalysis() const {
  std::lock_guard<std::mutex> lock(analytic_mu_);
  if (analysis_ == nullptr) {
    analysis_ = AnalyticAnalysis::Analyze(*program_, *lowered_);
  }
  return analysis_.get();
}

Result<CertifiedDistribution> Evaluator::EnumerateToCertified(
    const std::string& interface_name, const std::vector<Value>& args,
    const EcvProfile& profile, const EnergyCalibration* calibration) const {
  ECLARITY_ASSIGN_OR_RETURN(std::vector<WeightedOutcome> outcomes,
                            Enumerate(interface_name, args, profile));
  ECLARITY_ASSIGN_OR_RETURN(ExactFold fold,
                            FoldOutcomes(outcomes, calibration));
  CertifiedDistribution cd;
  cd.distribution = std::move(fold.distribution);
  cd.has_distribution = true;
  cd.mean = fold.mean;
  cd.variance = cd.distribution.Variance();
  cd.min_joules = cd.distribution.MinValue();
  cd.max_joules = cd.distribution.MaxValue();
  cd.exact = true;
  return cd;
}

Result<CertifiedDistribution> Evaluator::EvalCertified(
    const std::string& interface_name, const std::vector<Value>& args,
    const EcvProfile& profile, const EnergyCalibration* calibration) const {
  return EvalCertifiedMode(interface_name, args, profile, calibration,
                           options_.dist_mode);
}

// Keyed by callee name and argument fingerprints: mode, prune threshold,
// profile and calibration are fixed within the call.
struct Evaluator::CertifiedMemo {
  std::unordered_map<std::string, CertifiedDistribution> answers;
};

Result<CertifiedDistribution> Evaluator::EvalCertifiedMode(
    const std::string& interface_name, const std::vector<Value>& args,
    const EcvProfile& profile, const EnergyCalibration* calibration,
    DistMode mode) const {
  CertifiedMemo memo;
  return EvalCertifiedMemo(interface_name, args, profile, calibration, mode,
                           memo);
}

Result<CertifiedDistribution> Evaluator::EvalCertifiedMemo(
    const std::string& interface_name, const std::vector<Value>& args,
    const EcvProfile& profile, const EnergyCalibration* calibration,
    DistMode mode, CertifiedMemo& memo) const {
  // kEnumerate and the tree walk answer through exact enumeration. The tree
  // walk includes every traced evaluator, so a traced answer carries its
  // per-path events (the analytic engines emit none).
  if (mode == DistMode::kEnumerate || lowered_ == nullptr) {
    return EnumerateToCertified(interface_name, args, profile, calibration);
  }
  const LoweredInterface* iface = lowered_->Find(interface_name);
  if (iface == nullptr) {
    // Unknown interface: let enumeration raise its usual error.
    return EnumerateToCertified(interface_name, args, profile, calibration);
  }
  const AnalyticAnalysis* analysis = EnsureAnalysis();
  const AnalyticShape* shape = analysis->Find(iface);
  // Everything the approximate engines cannot answer is enumerated. The
  // budget pre-checks run them only when no enumeration path could exhaust
  // the step or call-depth budgets, so an analytic answer never succeeds
  // where enumeration would error on those.
  const auto fall_back = [&] {
    analytic_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    EvalCounters::Get().analytic_fallbacks.Increment();
    return EnumerateToCertified(interface_name, args, profile, calibration);
  };
  if (shape == nullptr || !shape->bounded_ok ||
      shape->max_path_stmts > options_.max_steps ||
      shape->call_depth > options_.max_call_depth) {
    return fall_back();
  }

  // Sub-interface calls resolve through the memo, then the certified
  // evaluation; any error makes the parent fall back, and the fallback
  // enumeration reproduces it. Errors are not memoized.
  const AnalyticSubEval subeval =
      [&](const LoweredInterface& callee,
          const std::vector<Value>& callee_args)
      -> std::optional<CertifiedDistribution> {
    std::string key = callee.decl->name;
    key.push_back('\x1f');
    for (const Value& arg : callee_args) {
      arg.AppendFingerprint(key);
    }
    if (const auto hit = memo.answers.find(key); hit != memo.answers.end()) {
      return hit->second;
    }
    Result<CertifiedDistribution> sub = EvalCertifiedMemo(
        callee.decl->name, callee_args, profile, calibration, mode, memo);
    if (!sub.ok()) {
      return std::nullopt;
    }
    memo.answers.emplace(std::move(key), *sub);
    return *std::move(sub);
  };
  std::optional<CertifiedDistribution> approx =
      AnalyticApprox(*analysis, *iface, args, profile, options_, calibration,
                     mode == DistMode::kAnalyticMoments, subeval);
  if (!approx.has_value()) {
    return fall_back();  // off-template or over the expansion budget
  }
  EvalCounters::Get().analytic_pruned_mass.Observe(approx->pruned_mass);
  analytic_hits_.fetch_add(1, std::memory_order_relaxed);
  EvalCounters::Get().analytic_hits.Increment();
  return *std::move(approx);
}

Result<double> OutcomeJoules(const Value& value,
                             const EnergyCalibration* calibration) {
  if (value.is_concrete_energy()) {
    return value.joules();
  }
  if (!value.is_energy()) {
    return value.AsEnergy().status();
  }
  const AbstractEnergy energy = value.energy();
  if (calibration == nullptr) {
    return FailedPreconditionError(
        "interface returned abstract energy '" + energy.ToString() +
        "' but no calibration was provided");
  }
  ECLARITY_ASSIGN_OR_RETURN(Energy resolved, energy.Resolve(*calibration));
  return resolved.joules();
}

Result<ExactFold> FoldOutcomes(const std::vector<WeightedOutcome>& outcomes,
                               const EnergyCalibration* calibration) {
  std::vector<Atom> atoms;
  atoms.reserve(outcomes.size());
  for (const WeightedOutcome& o : outcomes) {
    ECLARITY_ASSIGN_OR_RETURN(double joules,
                              OutcomeJoules(o.value, calibration));
    atoms.push_back({joules, o.probability});
  }
  ECLARITY_ASSIGN_OR_RETURN(Distribution dist,
                            Distribution::Categorical(std::move(atoms)));
  const double mean = dist.Mean();
  return ExactFold{std::move(dist), mean};
}

Result<const ExactFold*> Evaluator::FoldShared(
    const std::string& interface_name, const std::vector<Value>& args,
    const EcvProfile& profile, const EnergyCalibration* calibration) const {
  // The last answer this thread folded: a repeat of the same exact query
  // is answered with one key build and one string compare, no lock and no
  // shared write. The key names every input the answer depends on, so the
  // slot never needs invalidating.
  struct FoldSlot {
    uint64_t eval_id = 0;  // 0: holds no reusable answer
    std::string key;
    ExactFold fold;
  };
  thread_local FoldSlot slot;
  // Tracing bypasses the slot (a hit would replay no events); a zero
  // enum_cache_capacity switches it off.
  const bool use_slot =
      options_.enum_cache_capacity > 0 && options_.trace == nullptr;
  // Function-local scratch: the steady-state exact-query path builds its
  // key without allocating. Never escapes this frame before being copied.
  thread_local std::string key;
  if (use_slot) {
    key.clear();
    key += interface_name;
    key.push_back('\x1f');
    for (const Value& arg : args) {
      arg.AppendFingerprint(key);
    }
    key.push_back('\x1f');
    if (!profile.empty()) {  // the empty profile's fingerprint is ""
      key += profile.Fingerprint();
    }
    key.push_back('\x1f');
    if (calibration != nullptr) {
      key.push_back('c');
      key += calibration->Fingerprint();
    }
    if (slot.eval_id == eval_id_ && slot.key == key) {
      return &slot.fold;
    }
  }
  ECLARITY_ASSIGN_OR_RETURN(std::vector<WeightedOutcome> outcomes,
                            Enumerate(interface_name, args, profile));
  // Errors return above, so the slot only ever holds a success.
  ECLARITY_ASSIGN_OR_RETURN(slot.fold, FoldOutcomes(outcomes, calibration));
  slot.eval_id = use_slot ? eval_id_ : 0;
  if (use_slot) {
    slot.key = key;
  }
  return &slot.fold;
}

Result<Distribution> Evaluator::EvalDistribution(
    const std::string& interface_name, const std::vector<Value>& args,
    const EcvProfile& profile, const EnergyCalibration* calibration) const {
  if (options_.dist_mode != DistMode::kEnumerate) {
    ECLARITY_ASSIGN_OR_RETURN(
        CertifiedDistribution cd,
        EvalCertified(interface_name, args, profile, calibration));
    if (!cd.has_distribution) {
      return FailedPreconditionError(
          "moments-only evaluation materialises no distribution; use "
          "EvalCertified");
    }
    return cd.distribution;
  }
  ECLARITY_ASSIGN_OR_RETURN(
      const ExactFold* entry,
      FoldShared(interface_name, args, profile, calibration));
  return entry->distribution;
}

Result<Energy> Evaluator::ExpectedEnergy(
    const std::string& interface_name, const std::vector<Value>& args,
    const EcvProfile& profile, const EnergyCalibration* calibration) const {
  if (options_.dist_mode != DistMode::kEnumerate) {
    ECLARITY_ASSIGN_OR_RETURN(
        CertifiedDistribution cd,
        EvalCertified(interface_name, args, profile, calibration));
    return Energy::Joules(cd.mean);
  }
  ECLARITY_ASSIGN_OR_RETURN(
      const ExactFold* entry,
      FoldShared(interface_name, args, profile, calibration));
  return Energy::Joules(entry->mean);
}

Result<Energy> Evaluator::MonteCarloMean(
    const std::string& interface_name, const std::vector<Value>& args,
    const EcvProfile& profile, Rng& rng, size_t samples,
    const EnergyCalibration* calibration) const {
  if (samples == 0) {
    return InvalidArgumentError("MonteCarloMean: zero samples");
  }
  EvalCounters::Get().mc_samples.Increment(samples);
  // The chunk layout is a function of `samples` alone, and each chunk draws
  // from its own stream, forked from `rng` in chunk order before any chunk
  // runs, so the draws, the chunk-order reduction below and the caller's
  // `rng` afterwards depend only on the seed and the sample count. The
  // first failing chunk's error is returned.
  constexpr size_t kTargetChunk = 256;
  const size_t num_chunks = std::clamp<size_t>(
      (samples + kTargetChunk - 1) / kTargetChunk, size_t{1}, size_t{64});
  std::vector<Rng> streams;
  streams.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    streams.push_back(rng.Fork());
  }
  const size_t base_count = samples / num_chunks;
  const size_t remainder = samples % num_chunks;

  const std::shared_ptr<const BytecodeProgram> bc = PickBytecode(profile);
  // Looked up once; a lookup error surfaces where the first sample's call
  // would have raised it.
  Result<uint32_t> entry = 0u;
  if (bc != nullptr) {
    entry = bc->Resolve(interface_name, args.size());
  }
  double total = 0.0;
  for (size_t c = 0; c < num_chunks; ++c) {
    SamplingChooser chooser(streams[c]);
    std::optional<BytecodeInterpreter> vm;
    if (bc != nullptr) {
      vm.emplace(*bc, options_, profile, chooser);
    }
    const size_t count = base_count + (c < remainder ? 1 : 0);
    double sum = 0.0;
    for (size_t i = 0; i < count; ++i) {
      Result<Value> value = [&]() -> Result<Value> {
        if (vm.has_value()) {
          if (!entry.ok()) {
            return entry.status();
          }
          vm->Reset();
          return vm->Call(*entry, args);
        }
        Execution exec(*program_, options_, profile, chooser);
        return exec.CallInterface(interface_name, args);
      }();
      if (!value.ok()) {
        return value.status();
      }
      if (value->is_concrete_energy()) {
        sum += value->joules();
        continue;
      }
      ECLARITY_ASSIGN_OR_RETURN(const double joules,
                                OutcomeJoules(value.value(), calibration));
      sum += joules;
    }
    total += sum;
  }
  return Energy::Joules(total / static_cast<double>(samples));
}

}  // namespace eclarity
