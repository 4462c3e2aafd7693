#include "src/eval/batch.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/eval/builtins.h"
#include "src/eval/exec_common.h"
#include "src/eval/interp.h"
#include "src/eval/lower.h"
#include "src/obs/metrics.h"

namespace eclarity {
namespace {

using eval_internal::EnumeratingChooser;

// Batch-engine instrumentation: resolved once, relaxed increments after.
#define ECLARITY_BATCH_COUNTERS(X)                                  \
  X(lanes, "eclarity_eval_batch_lanes_total",                       \
    "lanes submitted to the SoA batch evaluator")                   \
  X(passes, "eclarity_eval_batch_passes_total",                     \
    "SoA tiles the vector engine completed without aborting")       \
  X(scalar_fallbacks, "eclarity_eval_batch_scalar_fallbacks_total", \
    "lanes rerun on the scalar engine after a vector-pass abort")

struct BatchCounters {
  ECLARITY_BATCH_COUNTERS(ECLARITY_COUNTER_MEMBER)

  static BatchCounters& Get() {
    static BatchCounters* counters =
        new BatchCounters{ECLARITY_BATCH_COUNTERS(ECLARITY_COUNTER_LOOKUP)};
    return *counters;
  }
};

// One value column: `width` lanes of a single frame slot. Uniform columns
// carry one scalar for every lane (constants, shared ECV draws); number and
// bool columns are contiguous planes the inner term loops run over; the
// value plane is the general per-lane form (mixed kinds, energies).
struct BatchColumn {
  enum class Tag : uint8_t {
    kUniform,  // every lane holds `uniform`
    kNumbers,  // per-lane doubles (SIMD-friendly plane)
    kBools,    // per-lane booleans
    kValues,   // per-lane Values (energies / mixed kinds)
  };

  Tag tag = Tag::kUniform;
  Value uniform;
  std::vector<double> nums;
  std::vector<uint8_t> bools;
  std::vector<Value> vals;
};

using Tag = BatchColumn::Tag;

// Lane `l` of a column, materialised as a scalar Value.
Value LaneValue(const BatchColumn& c, size_t l) {
  switch (c.tag) {
    case Tag::kUniform:
      return c.uniform;
    case Tag::kNumbers:
      return Value::Number(c.nums[l]);
    case Tag::kBools:
      return Value::Bool(c.bools[l] != 0);
    case Tag::kValues:
      return c.vals[l];
  }
  return Value();
}

// Bit-exact lane equality, as cache keys compare arguments: -0.0 and +0.0
// (or two NaN payloads) are different lanes, so collapsing lanes to one
// uniform value never rewrites an argument's bits.
bool SameBits(double a, double b) {
  uint64_t x;
  uint64_t y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

// Collapses a freshly filled value plane to its tightest tag so downstream
// term loops keep running over contiguous number/bool planes.
void Reclassify(BatchColumn& c, size_t width) {
  bool all_numbers = true;
  bool all_bools = true;
  for (size_t l = 0; l < width; ++l) {
    all_numbers = all_numbers && c.vals[l].is_number();
    all_bools = all_bools && c.vals[l].is_bool();
  }
  if (all_numbers) {
    c.nums.resize(width);
    for (size_t l = 0; l < width; ++l) {
      c.nums[l] = c.vals[l].number();
    }
    c.tag = Tag::kNumbers;
    c.vals.clear();
  } else if (all_bools) {
    c.bools.resize(width);
    for (size_t l = 0; l < width; ++l) {
      c.bools[l] = c.vals[l].boolean() ? 1 : 0;
    }
    c.tag = Tag::kBools;
    c.vals.clear();
  }
}

// True when every lane holds the same boolean; control flow may follow it.
// Anything else — a non-bool, or lanes that disagree — is a divergence (or
// an error the scalar rerun will reproduce), so the caller aborts.
bool UniformBool(const BatchColumn& c, size_t width, bool& out) {
  switch (c.tag) {
    case Tag::kUniform:
      if (!c.uniform.is_bool()) {
        return false;
      }
      out = c.uniform.boolean();
      return true;
    case Tag::kBools: {
      for (size_t l = 1; l < width; ++l) {
        if (c.bools[l] != c.bools[0]) {
          return false;
        }
      }
      out = c.bools[0] != 0;
      return true;
    }
    case Tag::kValues: {
      if (!c.vals[0].is_bool()) {
        return false;
      }
      for (size_t l = 1; l < width; ++l) {
        if (!(c.vals[l] == c.vals[0])) {
          return false;
        }
      }
      out = c.vals[0].boolean();
      return true;
    }
    case Tag::kNumbers:
      return false;
  }
  return false;
}

// True when every lane holds the same number (loop bounds must agree).
bool UniformNumber(const BatchColumn& c, size_t width, double& out) {
  switch (c.tag) {
    case Tag::kUniform:
      if (!c.uniform.is_number()) {
        return false;
      }
      out = c.uniform.number();
      return true;
    case Tag::kNumbers: {
      for (size_t l = 1; l < width; ++l) {
        if (!SameBits(c.nums[l], c.nums[0])) {
          return false;
        }
      }
      out = c.nums[0];
      return true;
    }
    case Tag::kValues: {
      if (!c.vals[0].is_number()) {
        return false;
      }
      for (size_t l = 1; l < width; ++l) {
        if (!c.vals[l].SameBits(c.vals[0])) {
          return false;
        }
      }
      out = c.vals[0].number();
      return true;
    }
    case Tag::kBools:
      return false;
  }
  return false;
}

bool IsNumericPlane(const BatchColumn& c) {
  return c.tag == Tag::kNumbers ||
         (c.tag == Tag::kUniform && c.uniform.is_number());
}

double LaneNumber(const BatchColumn& c, size_t l) {
  return c.tag == Tag::kNumbers ? c.nums[l] : c.uniform.number();
}

// Draws one ECV outcome column per choice point: exact enumeration shares
// one draw across every lane, so one chooser drives the whole pass.
class ExactDrawer {
 public:
  explicit ExactDrawer(EnumeratingChooser& chooser) : chooser_(chooser) {}

  // Fills `out` with the chooser's current outcome; false aborts the pass.
  bool Draw(const LEcv& ecv, const EcvSupport& support, BatchColumn& out) {
    Result<size_t> idx = chooser_.Choose(ecv.qualified, support);
    if (!idx.ok() || *idx >= support.outcomes.size()) {
      return false;
    }
    out.tag = Tag::kUniform;
    out.uniform = support.outcomes[*idx].first;
    return true;
  }

 private:
  EnumeratingChooser& chooser_;
};

// ---------------------------------------------------------------------------
// The vector interpreter: the lowered IR's statement walk over columns.
//
// Correctness rests on two rules: (1) abort (`return false`) the moment the
// pass cannot be proven bit-identical to running every lane alone on the
// scalar engine — divergent control, any per-lane error, any construct the
// column forms don't cover; (2) when not aborting, apply exactly the shared
// scalar operators (ApplyBinary / ApplyUnary / ApplyBuiltin) per lane, or a
// plane kernel whose IEEE semantics are identical to them. The scalar rerun
// after an abort is the reference, so aborts can never be wrong — only slow.
// ---------------------------------------------------------------------------

class VectorExec {
 public:
  VectorExec(const LoweredProgram& lowered, const EvalOptions& options,
             const EcvProfile& profile, ExactDrawer& drawer)
      : lowered_(lowered),
        options_(options),
        profile_(profile),
        drawer_(drawer) {}

  void Reset() {
    steps_ = 0;
    depth_ = 0;
  }

  bool CallByName(const std::string& name, std::vector<BatchColumn> args,
                  size_t width, BatchColumn& out) {
    width_ = width;
    const LoweredInterface* iface = lowered_.Find(name);
    if (iface == nullptr) {
      return false;
    }
    return Call(*iface, std::move(args), out);
  }

 private:
  bool Call(const LoweredInterface& iface, std::vector<BatchColumn> args,
            BatchColumn& out) {
    if (iface.param_slots.size() != args.size()) {
      return false;
    }
    if (++depth_ > options_.max_call_depth) {
      return false;
    }
    if (!iface.entry_error.ok()) {
      return false;
    }
    const size_t base = top_;
    if (!PushFrame(iface.frame_size)) {
      return false;
    }
    for (size_t i = 0; i < args.size(); ++i) {
      frames_[base + static_cast<size_t>(iface.param_slots[i])] =
          std::move(args[i]);
    }
    std::optional<BatchColumn> ret;
    const bool ok = ExecBlock(iface.body, base, ret);
    top_ = base;
    --depth_;
    if (!ok || !ret.has_value()) {
      return false;  // errors and fall-off both rerun on the scalar engine
    }
    out = *std::move(ret);
    return true;
  }

  bool PushFrame(size_t frame_size) {
    top_ += frame_size;
    if (frames_.size() < top_) {
      frames_.resize(top_);
    }
    return true;
  }

  BatchColumn& Slot(size_t base, int slot) {
    return frames_[base + static_cast<size_t>(slot)];
  }

  bool ExecBlock(const std::vector<LStmtPtr>& block, size_t base,
                 std::optional<BatchColumn>& ret) {
    for (const LStmtPtr& stmt : block) {
      if (++steps_ > options_.max_steps) {
        return false;
      }
      switch (stmt->kind) {
        case LStmtKind::kStore:
        case LStmtKind::kAssign: {
          BatchColumn v;
          if (!Eval(*stmt->a, base, v)) {
            return false;
          }
          if (stmt->slot < 0) {
            return false;
          }
          Slot(base, stmt->slot) = std::move(v);
          break;
        }
        case LStmtKind::kEcv: {
          if (!ExecEcv(*stmt, base)) {
            return false;
          }
          break;
        }
        case LStmtKind::kIf: {
          BatchColumn cond;
          if (!Eval(*stmt->a, base, cond)) {
            return false;
          }
          bool truth = false;
          if (!UniformBool(cond, width_, truth)) {
            return false;  // divergent lanes (or a non-bool condition)
          }
          const std::vector<LStmtPtr>& branch =
              truth ? stmt->then_block : stmt->else_block;
          if (!ExecBlock(branch, base, ret)) {
            return false;
          }
          if (ret.has_value()) {
            return true;
          }
          break;
        }
        case LStmtKind::kFor: {
          BatchColumn begin_c;
          BatchColumn end_c;
          if (!Eval(*stmt->a, base, begin_c) ||
              !Eval(*stmt->b, base, end_c)) {
            return false;
          }
          double begin_n = 0.0;
          double end_n = 0.0;
          if (!UniformNumber(begin_c, width_, begin_n) ||
              !UniformNumber(end_c, width_, end_n)) {
            return false;  // lanes disagree on trip count
          }
          if (stmt->slot < 0) {
            return false;
          }
          const int64_t lo = static_cast<int64_t>(std::llround(begin_n));
          const int64_t hi = static_cast<int64_t>(std::llround(end_n));
          for (int64_t i = lo; i < hi; ++i) {
            if (++steps_ > options_.max_steps) {
              return false;
            }
            BatchColumn& var = Slot(base, stmt->slot);
            var.tag = Tag::kUniform;
            var.uniform = Value::Number(static_cast<double>(i));
            if (!ExecBlock(stmt->then_block, base, ret)) {
              return false;
            }
            if (ret.has_value()) {
              return true;
            }
          }
          break;
        }
        case LStmtKind::kReturn: {
          BatchColumn v;
          if (!Eval(*stmt->a, base, v)) {
            return false;
          }
          ret = std::move(v);
          return true;
        }
      }
    }
    return true;
  }

  bool ExecEcv(const LStmt& stmt, size_t base) {
    const LEcv& ecv = *stmt.ecv;
    const EcvSupport* support = nullptr;
    if (!profile_.empty()) {
      support = profile_.FindQualified(ecv.qualified, ecv.bare);
    }
    if (support == nullptr) {
      if (!ecv.static_error.ok()) {
        return false;
      }
      if (!ecv.static_support.has_value()) {
        // Dynamic distribution parameters can differ per lane; the scalar
        // rerun resolves (and error-checks) them per lane.
        return false;
      }
      support = &*ecv.static_support;
    }
    BatchColumn drawn;
    if (!drawer_.Draw(ecv, *support, drawn)) {
      return false;
    }
    if (stmt.slot < 0) {
      return false;
    }
    Slot(base, stmt.slot) = std::move(drawn);
    return true;
  }

  bool Eval(const LExpr& e, size_t base, BatchColumn& out) {
    switch (e.kind) {
      case LExprKind::kConst:
        out.tag = Tag::kUniform;
        out.uniform = e.constant;
        return true;
      case LExprKind::kSlot:
        out = Slot(base, e.slot);
        return true;
      case LExprKind::kError:
        return false;
      case LExprKind::kUnary: {
        BatchColumn operand;
        if (!Eval(*e.children[0], base, operand)) {
          return false;
        }
        return ApplyUnaryColumn(e, operand, out);
      }
      case LExprKind::kBinary:
        return EvalBinary(e, base, out);
      case LExprKind::kConditional: {
        BatchColumn cond;
        if (!Eval(*e.children[0], base, cond)) {
          return false;
        }
        bool truth = false;
        if (!UniformBool(cond, width_, truth)) {
          return false;
        }
        return Eval(*e.children[truth ? 1 : 2], base, out);
      }
      case LExprKind::kBuiltin: {
        const size_t argc = e.children.size();
        std::vector<BatchColumn> cols(argc);
        bool all_uniform = true;
        for (size_t i = 0; i < argc; ++i) {
          if (!Eval(*e.children[i], base, cols[i])) {
            return false;
          }
          all_uniform = all_uniform && cols[i].tag == Tag::kUniform;
        }
        std::vector<Value> args(argc);
        if (all_uniform) {
          for (size_t i = 0; i < argc; ++i) {
            args[i] = cols[i].uniform;
          }
          Result<Value> r = ApplyBuiltin(e.call_src->callee, args,
                                         e.call_src->string_args, e.context);
          if (!r.ok()) {
            return false;
          }
          out.tag = Tag::kUniform;
          out.uniform = *std::move(r);
          return true;
        }
        out.tag = Tag::kValues;
        out.vals.resize(width_);
        for (size_t l = 0; l < width_; ++l) {
          for (size_t i = 0; i < argc; ++i) {
            args[i] = LaneValue(cols[i], l);
          }
          Result<Value> r = ApplyBuiltin(e.call_src->callee, args,
                                         e.call_src->string_args, e.context);
          if (!r.ok()) {
            return false;
          }
          out.vals[l] = *std::move(r);
        }
        Reclassify(out, width_);
        return true;
      }
      case LExprKind::kCall: {
        std::vector<BatchColumn> args(e.children.size());
        for (size_t i = 0; i < e.children.size(); ++i) {
          if (!Eval(*e.children[i], base, args[i])) {
            return false;
          }
        }
        if (!e.call_error.ok() || e.callee == nullptr) {
          return false;
        }
        return Call(*e.callee, std::move(args), out);
      }
    }
    return false;
  }

  bool ApplyUnaryColumn(const LExpr& e, const BatchColumn& operand,
                        BatchColumn& out) {
    if (operand.tag == Tag::kUniform) {
      Result<Value> r = ApplyUnary(e.uop, operand.uniform, e.context);
      if (!r.ok()) {
        return false;
      }
      out.tag = Tag::kUniform;
      out.uniform = *std::move(r);
      return true;
    }
    if (e.uop == UnaryOp::kNeg && operand.tag == Tag::kNumbers) {
      out.tag = Tag::kNumbers;
      out.nums.resize(width_);
      for (size_t l = 0; l < width_; ++l) {
        out.nums[l] = -operand.nums[l];
      }
      return true;
    }
    out.tag = Tag::kValues;
    out.vals.resize(width_);
    for (size_t l = 0; l < width_; ++l) {
      Result<Value> r = ApplyUnary(e.uop, LaneValue(operand, l), e.context);
      if (!r.ok()) {
        return false;
      }
      out.vals[l] = *std::move(r);
    }
    Reclassify(out, width_);
    return true;
  }

  bool EvalBinary(const LExpr& e, size_t base, BatchColumn& out) {
    if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
      // Short-circuit evaluation: whether the rhs runs (and draws, via
      // calls) must agree across lanes, so the lhs has to be uniform.
      BatchColumn lhs;
      if (!Eval(*e.children[0], base, lhs)) {
        return false;
      }
      bool lv = false;
      if (!UniformBool(lhs, width_, lv)) {
        return false;
      }
      if ((e.bop == BinaryOp::kAnd && !lv) ||
          (e.bop == BinaryOp::kOr && lv)) {
        out.tag = Tag::kUniform;
        out.uniform = Value::Bool(e.bop == BinaryOp::kOr);
        return true;
      }
      BatchColumn rhs;
      if (!Eval(*e.children[1], base, rhs)) {
        return false;
      }
      // The scalar engines coerce the rhs through AsBool; per-lane non-bool
      // values are errors the scalar rerun reports.
      out.tag = Tag::kValues;
      out.vals.resize(width_);
      for (size_t l = 0; l < width_; ++l) {
        Value v = LaneValue(rhs, l);
        if (!v.is_bool()) {
          return false;
        }
        out.vals[l] = std::move(v);
      }
      Reclassify(out, width_);
      return true;
    }
    BatchColumn lhs;
    BatchColumn rhs;
    if (!Eval(*e.children[0], base, lhs) || !Eval(*e.children[1], base, rhs)) {
      return false;
    }
    if (lhs.tag == Tag::kUniform && rhs.tag == Tag::kUniform) {
      Result<Value> r = ApplyBinary(e.bop, lhs.uniform, rhs.uniform, e.context);
      if (!r.ok()) {
        return false;
      }
      out.tag = Tag::kUniform;
      out.uniform = *std::move(r);
      return true;
    }
    if (IsNumericPlane(lhs) && IsNumericPlane(rhs) &&
        NumberKernel(e.bop, lhs, rhs, out)) {
      return true;
    }
    // Generic per-lane form: exactly the scalar operator, once per lane.
    out.tag = Tag::kValues;
    out.vals.resize(width_);
    for (size_t l = 0; l < width_; ++l) {
      Result<Value> r = ApplyBinary(e.bop, LaneValue(lhs, l),
                                    LaneValue(rhs, l), e.context);
      if (!r.ok()) {
        return false;
      }
      out.vals[l] = *std::move(r);
    }
    Reclassify(out, width_);
    return true;
  }

  // Lane-parallel number kernels. Each loop computes bit-for-bit what
  // ApplyBinary computes on number operands: a + 1.0*b == a + b,
  // a + (-1.0)*b == a - b, and the comparison / equality forms reduce to
  // the same double comparisons Value's variant equality performs. Division
  // and modulo keep their zero checks in the generic path above, so they
  // are deliberately absent here.
  bool NumberKernel(BinaryOp op, const BatchColumn& a, const BatchColumn& b,
                    BatchColumn& out) {
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul: {
        out.tag = Tag::kNumbers;
        out.nums.resize(width_);
        if (op == BinaryOp::kAdd) {
          for (size_t l = 0; l < width_; ++l) {
            out.nums[l] = LaneNumber(a, l) + LaneNumber(b, l);
          }
        } else if (op == BinaryOp::kSub) {
          for (size_t l = 0; l < width_; ++l) {
            out.nums[l] = LaneNumber(a, l) - LaneNumber(b, l);
          }
        } else {
          for (size_t l = 0; l < width_; ++l) {
            out.nums[l] = LaneNumber(a, l) * LaneNumber(b, l);
          }
        }
        return true;
      }
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        out.tag = Tag::kBools;
        out.bools.resize(width_);
        for (size_t l = 0; l < width_; ++l) {
          const double x = LaneNumber(a, l);
          const double y = LaneNumber(b, l);
          bool v = false;
          switch (op) {
            case BinaryOp::kEq: v = x == y; break;
            case BinaryOp::kNe: v = x != y; break;
            case BinaryOp::kLt: v = x < y; break;
            case BinaryOp::kLe: v = x <= y; break;
            case BinaryOp::kGt: v = x > y; break;
            default: v = x >= y; break;
          }
          out.bools[l] = v ? 1 : 0;
        }
        return true;
      }
      default:
        return false;  // kDiv/kMod (zero checks) via the generic path
    }
  }

  const LoweredProgram& lowered_;
  const EvalOptions& options_;
  const EcvProfile& profile_;
  ExactDrawer& drawer_;
  std::vector<BatchColumn> frames_;
  size_t top_ = 0;
  size_t width_ = 0;
  size_t steps_ = 0;
  int depth_ = 0;
};

// Builds one argument column per parameter position from per-lane argument
// vectors. False when the lanes disagree on arity (the scalar rerun raises
// the per-lane arity errors).
bool BuildArgColumns(const std::vector<const std::vector<Value>*>& lanes,
                     std::vector<BatchColumn>& out) {
  const size_t width = lanes.size();
  const size_t argc = lanes[0]->size();
  for (const std::vector<Value>* lane : lanes) {
    if (lane->size() != argc) {
      return false;
    }
  }
  out.resize(argc);
  for (size_t j = 0; j < argc; ++j) {
    BatchColumn& col = out[j];
    bool uniform = true;
    for (size_t l = 1; l < width; ++l) {
      if (!(*lanes[l])[j].SameBits((*lanes[0])[j])) {
        uniform = false;
        break;
      }
    }
    if (uniform) {
      col.tag = Tag::kUniform;
      col.uniform = (*lanes[0])[j];
      continue;
    }
    col.tag = Tag::kValues;
    col.vals.resize(width);
    for (size_t l = 0; l < width; ++l) {
      col.vals[l] = (*lanes[l])[j];
    }
    Reclassify(col, width);
  }
  return true;
}

// Per-lane Joules of a result column (the enumeration fold's atom values).
// Uniform columns resolve once and share the bits across lanes.
bool ColumnJoules(const BatchColumn& c, size_t width,
                  const EnergyCalibration* calibration,
                  std::vector<double>& out) {
  out.resize(width);
  if (c.tag == Tag::kUniform) {
    Result<double> j = OutcomeJoules(c.uniform, calibration);
    if (!j.ok()) {
      return false;
    }
    for (size_t l = 0; l < width; ++l) {
      out[l] = *j;
    }
    return true;
  }
  if (c.tag != Tag::kValues) {
    return false;  // number/bool returns are AsEnergy errors; scalar reports
  }
  for (size_t l = 0; l < width; ++l) {
    Result<double> j = OutcomeJoules(c.vals[l], calibration);
    if (!j.ok()) {
      return false;
    }
    out[l] = *j;
  }
  return true;
}

}  // namespace

BatchPlan::BatchPlan(const Evaluator& evaluator, std::string interface_name)
    : evaluator_(&evaluator), interface_name_(std::move(interface_name)) {}

Result<ExactFold> BatchPlan::ScalarLaneFold(
    const std::vector<Value>& args, const EcvProfile& profile,
    const EnergyCalibration* calibration) const {
  // The scalar reference: single dispatch's enumeration and fold, so
  // fallback lanes share bits (and error codes) with it.
  ECLARITY_ASSIGN_OR_RETURN(
      std::vector<WeightedOutcome> outcomes,
      evaluator_->Enumerate(interface_name_, args, profile));
  return FoldOutcomes(outcomes, calibration);
}

std::vector<Result<ExactFold>> BatchPlan::EnumerateFold(
    const std::vector<const std::vector<Value>*>& lane_args,
    const EcvProfile& profile, const EnergyCalibration* calibration) const {
  std::vector<Result<ExactFold>> results;
  results.reserve(lane_args.size());
  if (lane_args.empty()) {
    return results;
  }
  BatchCounters::Get().lanes.Increment(lane_args.size());
  const EvalOptions& options = evaluator_->options();
  // The tree-walk engine, which serves every traced evaluator, has no
  // lowered form to vector-interpret.
  const bool vector_capable = evaluator_->lowered_ != nullptr;

  for (size_t start = 0; start < lane_args.size(); start += kTileLanes) {
    const size_t width = std::min(kTileLanes, lane_args.size() - start);
    const std::vector<const std::vector<Value>*> tile(
        lane_args.begin() + static_cast<ptrdiff_t>(start),
        lane_args.begin() + static_cast<ptrdiff_t>(start + width));

    // One vector attempt per tile; any abort reruns the whole tile on the
    // scalar engine (the reference), so values, error codes, and messages
    // are reproduced exactly.
    bool vectored = false;
    std::vector<ExactFold> tile_folds;
    if (vector_capable) {
      vectored = [&]() -> bool {
        std::vector<BatchColumn> arg_columns;
        if (!BuildArgColumns(tile, arg_columns)) {
          return false;
        }
        EnumeratingChooser chooser;
        ExactDrawer drawer(chooser);
        VectorExec exec(*evaluator_->lowered_, options, profile, drawer);
        std::vector<std::vector<Atom>> atoms(width);
        std::vector<double> joules;
        size_t paths = 0;
        for (;;) {
          if (paths >= options.max_paths) {
            return false;  // the scalar rerun raises the max_paths error
          }
          exec.Reset();
          BatchColumn value;
          if (!exec.CallByName(interface_name_, arg_columns, width, value)) {
            return false;
          }
          if (!ColumnJoules(value, width, calibration, joules)) {
            return false;
          }
          const double probability = chooser.probability();
          for (size_t l = 0; l < width; ++l) {
            atoms[l].push_back({joules[l], probability});
          }
          ++paths;
          if (!chooser.Advance()) {
            break;
          }
        }
        tile_folds.reserve(width);
        for (size_t l = 0; l < width; ++l) {
          Result<Distribution> dist =
              Distribution::Categorical(std::move(atoms[l]));
          if (!dist.ok()) {
            return false;
          }
          const double mean = dist->Mean();
          tile_folds.push_back(ExactFold{*std::move(dist), mean});
        }
        return true;
      }();
    }
    if (vectored) {
      BatchCounters::Get().passes.Increment();
      for (ExactFold& fold : tile_folds) {
        results.emplace_back(std::move(fold));
      }
    } else {
      BatchCounters::Get().scalar_fallbacks.Increment(width);
      for (const std::vector<Value>* lane : tile) {
        results.push_back(ScalarLaneFold(*lane, profile, calibration));
      }
    }
  }
  return results;
}

}  // namespace eclarity
