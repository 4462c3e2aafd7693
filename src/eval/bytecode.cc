#include "src/eval/bytecode.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/eval/builtins.h"
#include "src/obs/budget.h"

namespace eclarity {

using eval_internal::EvalCounters;
using eval_internal::PosContext;

namespace {

// For-loop counters are exact int64s bit-stored in the double payload of a
// hidden register (never read by program code), so iteration matches the
// reference engine's int64 loop even past 2^53.
inline Value CounterValue(int64_t i) {
  return Value::Number(std::bit_cast<double>(i));
}
inline int64_t CounterBits(const Value& v) {
  return std::bit_cast<int64_t>(v.number());
}

}  // namespace

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

// Two passes over the lowered program: pass 1 creates every interface record
// (so calls resolve to indices before any body compiles), pass 2 emits the
// bodies. Registers are frame-relative; slots [0, frame_size) alias the
// lowered frame slots and a bump allocator hands out expression temporaries
// above them. Each expression saves and restores the bump pointer around its
// own temporaries, so argument registers for calls and builtins come out
// consecutive by construction.
class BytecodeCompiler {
 public:
  BytecodeCompiler(const LoweredProgram& lowered,
                   const BytecodeProgram::CompileOptions& options)
      : lowered_(lowered), opts_(options), p_(new BytecodeProgram()) {}

  Result<std::shared_ptr<const BytecodeProgram>> Compile() {
    const auto& ifaces = lowered_.interfaces();
    for (uint32_t i = 0; i < ifaces.size(); ++i) {
      const LoweredInterface& src = *ifaces[i];
      iface_index_[&src] = i;
      BytecodeProgram::BcIface f;
      f.src = &src;
      f.frame_size = static_cast<uint32_t>(src.frame_size);
      if (src.frame_size > 0xFFFF) {
        overflow_ = true;
      }
      const std::string& name = src.decl->name;
      f.depth_error = ResourceExhaustedError(
          "interface call depth limit exceeded at '" + name + "'");
      f.falloff_error = InternalError("interface '" + name +
                                      "' fell off the end without returning");
      p_->ifaces_.push_back(std::move(f));
      p_->index_.emplace(name, i);
    }
    for (uint32_t i = 0; i < ifaces.size(); ++i) {
      cur_ = ifaces[i].get();
      temp_top_ = static_cast<uint32_t>(cur_->frame_size);
      max_regs_ = temp_top_;
      p_->ifaces_[i].entry = static_cast<uint32_t>(p_->code_.size());
      CompileBlock(cur_->body);
      Emit({BcOp::kFail, 0, 0, 0, 0, PoolStatus(p_->ifaces_[i].falloff_error)});
      p_->ifaces_[i].nregs = max_regs_;
    }
    if (overflow_) {
      return ResourceExhaustedError(
          "bytecode compilation overflow: an interface needs more than 65535 "
          "registers");
    }
    if (opts_.specialize_profile != nullptr) {
      p_->specialized_ = true;
      p_->spec_fingerprint_ = opts_.specialize_profile->Fingerprint();
    }
    return std::shared_ptr<const BytecodeProgram>(std::move(p_));
  }

 private:
  uint32_t Emit(Instr in) {
    p_->code_.push_back(in);
    return static_cast<uint32_t>(p_->code_.size() - 1);
  }
  uint32_t Here() const { return static_cast<uint32_t>(p_->code_.size()); }

  uint16_t AllocReg() {
    const uint32_t r = temp_top_++;
    max_regs_ = std::max(max_regs_, temp_top_);
    if (r > 0xFFFF) {
      overflow_ = true;
    }
    return static_cast<uint16_t>(r);
  }

  uint32_t PoolConst(const Value& v) {
    std::string key;
    v.AppendFingerprint(key);
    const auto [it, inserted] = const_index_.emplace(
        std::move(key), static_cast<uint32_t>(p_->const_pool_.size()));
    if (inserted) {
      p_->const_pool_.push_back(v);
    }
    return it->second;
  }

  uint32_t PoolStatus(Status s) {
    p_->status_pool_.push_back(std::move(s));
    return static_cast<uint32_t>(p_->status_pool_.size() - 1);
  }

  uint32_t PoolCtx(const std::string* ctx) {
    const auto [it, inserted] = ctx_index_.emplace(
        ctx, static_cast<uint32_t>(p_->ctx_pool_.size()));
    if (inserted) {
      p_->ctx_pool_.push_back(ctx);
    }
    return it->second;
  }

  std::string Ctx(int line, int column) const {
    return PosContext(*cur_->decl, line, column);
  }

  Status BudgetStatus(const LStmt& stmt) const {
    return ResourceExhaustedError("statement budget exhausted " +
                                  Ctx(stmt.line, stmt.column));
  }

  static bool IsGuardingIf(const LStmt& stmt, int slot) {
    return stmt.kind == LStmtKind::kIf && stmt.a != nullptr &&
           stmt.a->kind == LExprKind::kSlot && stmt.a->slot == slot;
  }

  void CompileBlock(const std::vector<LStmtPtr>& block) {
    for (size_t i = 0; i < block.size(); ++i) {
      const LStmt& s = *block[i];
      Emit({BcOp::kStep, 0, 0, 0, 0, PoolStatus(BudgetStatus(s))});
      // Superinstruction: an ECV draw immediately guarded by `if <ecv>`
      // fuses draw + budget + branch into one dispatch. Requires a valid
      // slot — rejected bindings must surface their error before the if.
      if (s.kind == LStmtKind::kEcv && s.slot >= 0 &&
          i + 1 < block.size() && IsGuardingIf(*block[i + 1], s.slot)) {
        CompileEcv(s, block[i + 1].get());
        ++i;
        continue;
      }
      switch (s.kind) {
        case LStmtKind::kStore:
        case LStmtKind::kAssign: {
          if (s.slot >= 0) {
            CompileExpr(*s.a, static_cast<uint16_t>(s.slot));
          } else {
            const uint32_t save = temp_top_;
            const uint16_t t = AllocReg();
            CompileExpr(*s.a, t);
            temp_top_ = save;
            Emit({BcOp::kFail, 0, 0, 0, 0, PoolStatus(s.error)});
          }
          break;
        }
        case LStmtKind::kEcv:
          CompileEcv(s, nullptr);
          break;
        case LStmtKind::kIf: {
          const uint32_t save = temp_top_;
          const uint16_t c = CompileOperand(*s.a);
          p_->branch_sites_.push_back(
              {Ctx(s.line, s.column) + ": if condition: ", 0});
          const uint32_t site =
              static_cast<uint32_t>(p_->branch_sites_.size() - 1);
          Emit({BcOp::kBranch, 0, 0, c, 0, site});
          temp_top_ = save;
          CompileBlock(s.then_block);
          const uint32_t j = Emit({BcOp::kJump, 0, 0, 0, 0, 0});
          p_->branch_sites_[site].else_target = Here();
          CompileBlock(s.else_block);
          p_->code_[j].imm = Here();
          break;
        }
        case LStmtKind::kFor: {
          const uint32_t save = temp_top_;
          const uint16_t rb = AllocReg();
          CompileExpr(*s.a, rb);
          const uint16_t re = AllocReg();
          CompileExpr(*s.b, re);
          Emit({BcOp::kForPrep, 0, rb, re, 0, 0});
          p_->for_sites_.push_back({PoolStatus(BudgetStatus(s)), 0});
          const uint32_t site =
              static_cast<uint32_t>(p_->for_sites_.size() - 1);
          const bool bad_slot = s.slot < 0;
          const uint16_t var =
              bad_slot ? AllocReg() : static_cast<uint16_t>(s.slot);
          const uint32_t head = Here();
          Emit({BcOp::kForNext, 0, rb, re, var, site});
          if (bad_slot) {
            Emit({BcOp::kFail, 0, 0, 0, 0, PoolStatus(s.error)});
          } else {
            CompileBlock(s.then_block);
          }
          Emit({BcOp::kForIncJump, 0, rb, 0, 0, head});
          p_->for_sites_[site].end_target = Here();
          temp_top_ = save;
          break;
        }
        case LStmtKind::kReturn: {
          if (s.a->kind == LExprKind::kSlot) {
            Emit({BcOp::kReturn, 0, static_cast<uint16_t>(s.a->slot), 0, 0,
                  0});
          } else {
            const uint32_t save = temp_top_;
            const uint16_t t = AllocReg();
            CompileExpr(*s.a, t);
            Emit({BcOp::kReturn, 0, t, 0, 0, 0});
            temp_top_ = save;
          }
          break;
        }
      }
    }
  }

  // Emits the resolution + draw sequence for one ECV statement. When
  // `fused_if` is non-null the draw fuses with the guarding if statement
  // into kEcvDrawBranch. Always re-index ecv_sites_ on write: nested blocks
  // push more sites and invalidate references.
  void CompileEcv(const LStmt& s, const LStmt* fused_if) {
    const LEcv& ecv = *s.ecv;
    const uint32_t site = static_cast<uint32_t>(p_->ecv_sites_.size());
    {
      BytecodeProgram::EcvSite e;
      e.ecv = &ecv;
      e.slot = s.slot;
      if (s.slot < 0) {
        e.redef_error = s.error;
      }
      p_->ecv_sites_.push_back(std::move(e));
    }
    bool baked = false;
    if (opts_.specialize_profile != nullptr) {
      // Specialized code answers only for this profile, so the decision the
      // generic engine makes per draw — override or declared distribution —
      // is made once, here.
      const EcvProfile& prof = *opts_.specialize_profile;
      const EcvSupport* o =
          prof.empty() ? nullptr : prof.FindQualified(ecv.qualified, ecv.bare);
      if (o != nullptr) {
        p_->ecv_sites_[site].baked =
            static_cast<int32_t>(p_->baked_supports_.size());
        p_->baked_supports_.push_back(*o);
        Emit({BcOp::kEcvBaked, 0, 0, 0, 0, site});
        baked = true;
      }
    } else {
      Emit({BcOp::kEcvBegin, 0, 0, 0, 0, site});
    }
    if (!baked) {
      if (!ecv.static_error.ok()) {
        Emit({BcOp::kFail, 0, 0, 0, 0, PoolStatus(ecv.static_error)});
      } else if (ecv.static_support.has_value()) {
        Emit({BcOp::kEcvStatic, 0, 0, 0, 0, site});
      } else {
        switch (ecv.dist_kind) {
          case EcvDistKind::kBernoulli: {
            p_->ecv_sites_[site].range_error = InvalidArgumentError(
                Ctx(s.line, s.column) + ": bernoulli probability out of [0,1]");
            const uint32_t save = temp_top_;
            const uint16_t rp = CompileOperand(*ecv.params[0]);
            Emit({BcOp::kEcvDynBern, 0, 0, rp, 0, site});
            temp_top_ = save;
            break;
          }
          case EcvDistKind::kUniformInt: {
            p_->ecv_sites_[site].inverted_error = InvalidArgumentError(
                Ctx(s.line, s.column) + ": uniform_int with inverted bounds");
            p_->ecv_sites_[site].toolarge_error = ResourceExhaustedError(
                Ctx(s.line, s.column) + ": uniform_int support too large");
            const uint32_t save = temp_top_;
            const uint16_t rlo = CompileOperand(*ecv.params[0]);
            const uint16_t rhi = CompileOperand(*ecv.params[1]);
            Emit({BcOp::kEcvDynUniform, 0, 0, rlo, rhi, site});
            temp_top_ = save;
            break;
          }
          case EcvDistKind::kCategorical: {
            p_->ecv_sites_[site].cat_prefix = Ctx(s.line, s.column) + ": ";
            Emit({BcOp::kEcvCatOpen, 0, 0, 0, 0, 0});
            for (size_t i = 0; i + 1 < ecv.params.size(); i += 2) {
              const uint32_t save = temp_top_;
              const uint16_t rv = CompileOperand(*ecv.params[i]);
              const uint16_t rp = CompileOperand(*ecv.params[i + 1]);
              Emit({BcOp::kEcvCatPush, 0, 0, rv, rp, 0});
              temp_top_ = save;
            }
            Emit({BcOp::kEcvDynCat, 0, 0, 0, 0, site});
            break;
          }
        }
      }
    }
    p_->ecv_sites_[site].draw_target = Here();
    if (fused_if != nullptr) {
      p_->ecv_sites_[site].fused_step_status =
          PoolStatus(BudgetStatus(*fused_if));
      p_->branch_sites_.push_back(
          {Ctx(fused_if->line, fused_if->column) + ": if condition: ", 0});
      const uint32_t bsite =
          static_cast<uint32_t>(p_->branch_sites_.size() - 1);
      p_->ecv_sites_[site].fused_branch = bsite;
      Emit({BcOp::kEcvDrawBranch, 0, 0, 0, 0, site});
      ++p_->superinstruction_count_;
      CompileBlock(fused_if->then_block);
      const uint32_t j = Emit({BcOp::kJump, 0, 0, 0, 0, 0});
      p_->branch_sites_[bsite].else_target = Here();
      CompileBlock(fused_if->else_block);
      p_->code_[j].imm = Here();
    } else {
      Emit({BcOp::kEcvDraw, 0, 0, 0, 0, site});
    }
  }

  // A constant whose pool index fits an operand field: sets `index`.
  bool PoolOperand(const LExpr& e, uint16_t& index) {
    if (e.kind != LExprKind::kConst) {
      return false;
    }
    const uint32_t ci = PoolConst(e.constant);
    if (ci > 0xFFFF) {
      return false;
    }
    index = static_cast<uint16_t>(ci);
    return true;
  }

  // Slots are used in place (expressions never mutate the current frame's
  // slots, so a slot operand stays valid across later operand evaluation);
  // anything else lands in a fresh temporary.
  uint16_t CompileOperand(const LExpr& e) {
    if (e.kind == LExprKind::kSlot) {
      return static_cast<uint16_t>(e.slot);
    }
    const uint16_t t = AllocReg();
    CompileExpr(e, t);
    return t;
  }

  void CompileExpr(const LExpr& e, uint16_t dst) {
    switch (e.kind) {
      case LExprKind::kConst:
        Emit({BcOp::kConst, 0, dst, 0, 0, PoolConst(e.constant)});
        break;
      case LExprKind::kSlot:
        if (static_cast<uint16_t>(e.slot) != dst) {
          Emit({BcOp::kMove, 0, dst, static_cast<uint16_t>(e.slot), 0, 0});
        }
        break;
      case LExprKind::kError:
        Emit({BcOp::kFail, 0, 0, 0, 0, PoolStatus(e.error)});
        break;
      case LExprKind::kUnary: {
        const uint32_t save = temp_top_;
        const uint16_t s0 = CompileOperand(*e.children[0]);
        Emit({BcOp::kUnary, static_cast<uint8_t>(e.uop), dst, s0, 0,
              PoolCtx(&e.context)});
        temp_top_ = save;
        break;
      }
      case LExprKind::kBinary: {
        if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
          const uint32_t save = temp_top_;
          const uint16_t l = CompileOperand(*e.children[0]);
          const BcOp op =
              e.bop == BinaryOp::kAnd ? BcOp::kAndShort : BcOp::kOrShort;
          const uint32_t sc = Emit({op, 0, dst, l, 0, 0});
          temp_top_ = save;
          const uint16_t r = CompileOperand(*e.children[1]);
          Emit({BcOp::kBoolCast, 0, dst, r, 0, 0});
          temp_top_ = save;
          p_->code_[sc].imm = Here();
          break;
        }
        if (TryFoldChain(e, dst)) {
          break;
        }
        // A constant operand is read from the pool in place (kBinaryRK,
        // kBinaryKR); no kConst loads it. Lowering folds constant pairs.
        const uint32_t save = temp_top_;
        BcOp op = BcOp::kBinary;
        uint16_t l = 0;
        uint16_t r = 0;
        if (PoolOperand(*e.children[1], r)) {
          op = BcOp::kBinaryRK;
          l = CompileOperand(*e.children[0]);
        } else if (PoolOperand(*e.children[0], l)) {
          op = BcOp::kBinaryKR;
          r = CompileOperand(*e.children[1]);
        } else {
          l = CompileOperand(*e.children[0]);
          r = CompileOperand(*e.children[1]);
        }
        Emit({op, static_cast<uint8_t>(e.bop), dst, l, r,
              PoolCtx(&e.context)});
        temp_top_ = save;
        break;
      }
      case LExprKind::kConditional: {
        const uint32_t save = temp_top_;
        const uint16_t c = CompileOperand(*e.children[0]);
        const uint32_t cj = Emit({BcOp::kCondJump, 0, 0, c, 0, 0});
        temp_top_ = save;
        CompileExpr(*e.children[1], dst);
        const uint32_t j = Emit({BcOp::kJump, 0, 0, 0, 0, 0});
        p_->code_[cj].imm = Here();
        CompileExpr(*e.children[2], dst);
        p_->code_[j].imm = Here();
        break;
      }
      case LExprKind::kBuiltin:
      case LExprKind::kCall: {
        const uint32_t save = temp_top_;
        const uint16_t rbase = static_cast<uint16_t>(temp_top_);
        if (e.children.size() > 0xFFFF) {
          overflow_ = true;
        }
        for (const LExprPtr& child : e.children) {
          const uint16_t t = AllocReg();
          CompileExpr(*child, t);
        }
        const uint16_t argc = static_cast<uint16_t>(e.children.size());
        if (e.kind == LExprKind::kBuiltin) {
          p_->builtin_sites_.push_back({e.call_src, &e.context});
          Emit({BcOp::kBuiltin, 0, dst, rbase, argc,
                static_cast<uint32_t>(p_->builtin_sites_.size() - 1)});
        } else if (!e.call_error.ok()) {
          // Arguments evaluate before resolution errors, as in the tree walk.
          Emit({BcOp::kFail, 0, 0, 0, 0, PoolStatus(e.call_error)});
        } else {
          Emit({BcOp::kCall, 0, dst, rbase, argc, iface_index_.at(e.callee)});
        }
        temp_top_ = save;
        break;
      }
    }
  }

  // Left-spine chains of non-logical binaries whose right operands are
  // side-effect-free atoms (slots, constants) fold into one
  // kFoldChain superinstruction; the accumulator stays local during the
  // fold, so error order and aliasing match the reference engine exactly.
  bool TryFoldChain(const LExpr& e, uint16_t dst) {
    const auto is_atom = [](const LExpr& x) {
      return x.kind == LExprKind::kSlot || x.kind == LExprKind::kConst;
    };
    std::vector<const LExpr*> links;  // outermost first
    const LExpr* cur = &e;
    while (cur->kind == LExprKind::kBinary && cur->bop != BinaryOp::kAnd &&
           cur->bop != BinaryOp::kOr && is_atom(*cur->children[1])) {
      links.push_back(cur);
      cur = cur->children[0].get();
    }
    if (links.size() < 2 || links.size() > 0xFFFF) {
      return false;
    }
    std::vector<BytecodeProgram::FoldStep> steps;
    steps.reserve(links.size());
    bool dst_clash = false;
    for (auto it = links.rbegin(); it != links.rend(); ++it) {
      const LExpr& n = **it;
      const LExpr& rhs = *n.children[1];
      BytecodeProgram::FoldStep st;
      st.bop = n.bop;
      st.ctx = PoolCtx(&n.context);
      if (rhs.kind == LExprKind::kConst) {
        if (!PoolOperand(rhs, st.src)) {
          return false;
        }
        st.from_pool = true;
      } else {
        st.src = static_cast<uint16_t>(rhs.slot);
        if (st.src == dst) {
          dst_clash = true;
        }
      }
      steps.push_back(st);
    }
    // `x = x + x + x`: seeding the accumulator in dst would clobber the
    // slot the later steps read. Fold into a temp and move.
    const uint32_t save = temp_top_;
    const uint16_t acc = dst_clash ? AllocReg() : dst;
    CompileExpr(*cur, acc);
    const uint32_t first = static_cast<uint32_t>(p_->fold_steps_.size());
    p_->fold_steps_.insert(p_->fold_steps_.end(), steps.begin(), steps.end());
    Emit({BcOp::kFoldChain, 0, acc, 0, static_cast<uint16_t>(steps.size()),
          first});
    if (dst_clash) {
      Emit({BcOp::kMove, 0, dst, acc, 0, 0});
    }
    temp_top_ = save;
    ++p_->superinstruction_count_;
    return true;
  }

  const LoweredProgram& lowered_;
  const BytecodeProgram::CompileOptions opts_;
  std::shared_ptr<BytecodeProgram> p_;
  std::unordered_map<std::string, uint32_t> const_index_;
  std::unordered_map<const std::string*, uint32_t> ctx_index_;
  std::unordered_map<const LoweredInterface*, uint32_t> iface_index_;
  const LoweredInterface* cur_ = nullptr;
  uint32_t temp_top_ = 0;
  uint32_t max_regs_ = 0;
  bool overflow_ = false;
};

Result<std::shared_ptr<const BytecodeProgram>> BytecodeProgram::Compile(
    const LoweredProgram& lowered, const CompileOptions& options) {
  return BytecodeCompiler(lowered, options).Compile();
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

BytecodeInterpreter::BytecodeInterpreter(const BytecodeProgram& bc,
                                         const EvalOptions& options,
                                         const EcvProfile& profile,
                                         eval_internal::Chooser& chooser)
    : bc_(bc),
      options_(options),
      profile_(profile),
      chooser_(chooser),
      profiler_(options.vm_profiler) {
  if (profiler_ != nullptr) {
    prof_interval_ = profiler_->sample_interval();
    prof_overhead_ns_ = profiler_->timer_overhead_ns();
    // Uniform random start, fixed stride thereafter: unbiased per-site
    // sampling even for runs much shorter than the interval's period.
    local_prof_.countdown = profiler_->NextCountdown();
  }
}

BytecodeInterpreter::~BytecodeInterpreter() {
  if (profiler_ != nullptr) {
    profiler_->Merge(local_prof_, bc_);
  }
}

void BytecodeInterpreter::Reset() {
  steps_ = 0;
  depth_ = 0;
  frames_.clear();
  cat_stack_.clear();
}

void BytecodeInterpreter::EnsureRegs(size_t needed) {
  if (regs_.size() < needed) {
    regs_.resize(std::max(needed, regs_.size() * 2));
  }
}

Result<uint32_t> BytecodeProgram::Resolve(const std::string& name,
                                          size_t argc) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    return NotFoundError("call to undefined interface '" + name + "'");
  }
  const size_t params = ifaces_[it->second].src->param_slots.size();
  if (params != argc) {
    std::ostringstream os;
    os << "interface '" << name << "' takes " << params << " arguments, got "
       << argc;
    return InvalidArgumentError(os.str());
  }
  return it->second;
}

Result<Value> BytecodeInterpreter::CallByName(const std::string& name,
                                              const std::vector<Value>& args) {
  ECLARITY_ASSIGN_OR_RETURN(const uint32_t iface,
                            bc_.Resolve(name, args.size()));
  return Call(iface, args);
}

Result<Value> BytecodeInterpreter::Call(uint32_t iface,
                                        const std::vector<Value>& args) {
  const BytecodeProgram::BcIface& f = bc_.ifaces_[iface];
  if (++depth_ > options_.max_call_depth) {
    EvalCounters::Get().budget_depth.Increment();
    return f.depth_error;
  }
  if (!f.src->entry_error.ok()) {
    return f.src->entry_error;
  }
  frames_.clear();
  base_ = 0;
  reg_top_ = f.nregs;
  EnsureRegs(reg_top_);
  std::fill(regs_.begin(), regs_.begin() + f.frame_size, Value());
  for (size_t i = 0; i < args.size(); ++i) {
    regs_[f.src->param_slots[i]] = args[i];
  }
  cur_iface_ = iface;
  return Run(f.entry);
}

// Draw for the current ECV site: choose from the support every preceding
// instruction just resolved, surface a rejected binding, store the outcome.
// Returns the drawn outcome (kEcvDrawBranch reads it back).
Result<const Value*> BytecodeInterpreter::DrawEcv(
    const BytecodeProgram::EcvSite& site) {
  ECLARITY_ASSIGN_OR_RETURN(
      size_t idx, chooser_.Choose(site.ecv->qualified, *cur_support_));
  if (idx >= cur_support_->outcomes.size()) {
    return InternalError("chooser returned out-of-range index");
  }
  const auto& outcome = cur_support_->outcomes[idx];
  // Order matters: the reference engine resolves and draws before the
  // redefinition error surfaces.
  if (site.slot < 0) {
    return site.redef_error;
  }
  regs_[base_ + site.slot] = outcome.first;
  return &outcome.first;
}

template <bool kProfiled>
Result<Value> BytecodeInterpreter::RunImpl(uint32_t pc) {
  const Instr* const code = bc_.code_.data();
  const Value* const pool = bc_.const_pool_.data();
  // The current frame's registers: regs_ from base_. Only kCall, which may
  // grow regs_, and kReturn move them.
  Value* R = regs_.data() + base_;
  for (;;) {
    const Instr& in = code[pc++];
    // Profiled loop only: count the dispatch, and on every
    // prof_interval_-th instruction capture the site, time an empty timer
    // pair and take a start timestamp so the matching block after the
    // switch can attribute the measured cost (see src/eval/vm_profile.h).
    // A timed instruction that returns out of the switch simply drops its
    // sample.
    [[maybe_unused]] uint64_t prof_pair_t0 = 0;
    [[maybe_unused]] uint64_t prof_t0 = 0;
    [[maybe_unused]] uint32_t prof_pc = 0;
    [[maybe_unused]] uint32_t prof_iface = 0;
    [[maybe_unused]] bool prof_timed = false;
    if constexpr (kProfiled) {
      ++local_prof_.dispatches;
      ++local_prof_.hits[static_cast<size_t>(in.op)];
      if (--local_prof_.countdown == 0) {
        local_prof_.countdown = prof_interval_;
        prof_timed = true;
        prof_pc = pc - 1;
        prof_iface = cur_iface_;
        prof_pair_t0 = ObsNowNs();
        prof_t0 = ObsNowNs();
      }
    }
    switch (in.op) {
      case BcOp::kConst:
        R[in.a] = pool[in.imm];
        break;
      case BcOp::kMove:
        R[in.a] = R[in.b];
        break;
      case BcOp::kUnary: {
        const UnaryOp op = static_cast<UnaryOp>(in.sub);
        if (!TryApplyUnary(op, R[in.b], R[in.a])) {
          ECLARITY_ASSIGN_OR_RETURN(
              R[in.a], ApplyUnary(op, R[in.b], *bc_.ctx_pool_[in.imm]));
        }
        break;
      }
      case BcOp::kBinary:
      case BcOp::kBinaryRK:
      case BcOp::kBinaryKR: {
        const BinaryOp op = static_cast<BinaryOp>(in.sub);
        const Value& lhs = in.op == BcOp::kBinaryKR ? pool[in.b] : R[in.b];
        const Value& rhs = in.op == BcOp::kBinaryRK ? pool[in.c] : R[in.c];
        if (!TryApplyBinary(op, lhs, rhs, R[in.a])) {
          ECLARITY_ASSIGN_OR_RETURN(
              R[in.a], ApplyBinary(op, lhs, rhs, *bc_.ctx_pool_[in.imm]));
        }
        break;
      }
      case BcOp::kFoldChain: {
        // The accumulator stays local until the chain completes so steps
        // that read the destination slot see its pre-statement value.
        Value acc = R[in.a];
        const BytecodeProgram::FoldStep* step = &bc_.fold_steps_[in.imm];
        for (uint16_t i = 0; i < in.c; ++i, ++step) {
          const Value& rhs = step->from_pool ? pool[step->src] : R[step->src];
          if (!TryApplyBinary(step->bop, acc, rhs, acc)) {
            ECLARITY_ASSIGN_OR_RETURN(
                acc,
                ApplyBinary(step->bop, acc, rhs, *bc_.ctx_pool_[step->ctx]));
          }
        }
        R[in.a] = std::move(acc);
        break;
      }
      case BcOp::kJump:
        pc = in.imm;
        break;
      case BcOp::kAndShort: {
        const Value& lv = R[in.b];
        if (!lv.is_bool()) {
          return lv.AsBool().status();
        }
        if (!lv.boolean()) {
          R[in.a] = Value::Bool(false);
          pc = in.imm;
        }
        break;
      }
      case BcOp::kOrShort: {
        const Value& lv = R[in.b];
        if (!lv.is_bool()) {
          return lv.AsBool().status();
        }
        if (lv.boolean()) {
          R[in.a] = Value::Bool(true);
          pc = in.imm;
        }
        break;
      }
      case BcOp::kBoolCast: {
        const Value& rv = R[in.b];
        if (!rv.is_bool()) {
          return rv.AsBool().status();
        }
        R[in.a] = Value::Bool(rv.boolean());
        break;
      }
      case BcOp::kCondJump: {
        const Value& truth = R[in.b];
        if (!truth.is_bool()) {
          return truth.AsBool().status();
        }
        if (!truth.boolean()) {
          pc = in.imm;
        }
        break;
      }
      case BcOp::kBranch: {
        const BytecodeProgram::BranchSite& site = bc_.branch_sites_[in.imm];
        const Value& truth = R[in.b];
        if (!truth.is_bool()) {
          return InvalidArgumentError(site.prefix +
                                      truth.AsBool().status().message());
        }
        if (!truth.boolean()) {
          pc = site.else_target;
        }
        break;
      }
      case BcOp::kStep:
        if (++steps_ > options_.max_steps) {
          EvalCounters::Get().budget_steps.Increment();
          return bc_.status_pool_[in.imm];
        }
        break;
      case BcOp::kFail:
        return bc_.status_pool_[in.imm];
      case BcOp::kBuiltin: {
        const BytecodeProgram::BuiltinSite& site = bc_.builtin_sites_[in.imm];
        builtin_scratch_.assign(R + in.b, R + in.b + in.c);
        Result<Value> result =
            ApplyBuiltin(site.call->callee, builtin_scratch_,
                         site.call->string_args, *site.ctx);
        if (!result.ok()) {
          return result.status();
        }
        R[in.a] = std::move(result).value();
        break;
      }
      case BcOp::kCall: {
        const BytecodeProgram::BcIface& f = bc_.ifaces_[in.imm];
        if (++depth_ > options_.max_call_depth) {
          EvalCounters::Get().budget_depth.Increment();
          return f.depth_error;
        }
        if (!f.src->entry_error.ok()) {
          return f.src->entry_error;
        }
        const uint32_t cbase = reg_top_;
        EnsureRegs(cbase + f.nregs);  // may move regs_: R is stale below
        Value* const callee = regs_.data() + cbase;
        const Value* const args = regs_.data() + base_ + in.b;
        std::fill(callee, callee + f.frame_size, Value());
        const std::vector<int>& pslots = f.src->param_slots;
        for (size_t i = 0; i < pslots.size(); ++i) {
          callee[pslots[i]] = args[i];
        }
        frames_.push_back({pc, base_ + in.a, base_, cur_iface_});
        base_ = cbase;
        R = callee;
        reg_top_ = cbase + f.nregs;
        cur_iface_ = in.imm;
        pc = f.entry;
        break;
      }
      case BcOp::kReturn: {
        Value v = std::move(R[in.a]);
        --depth_;
        if (frames_.empty()) {
          return v;
        }
        const CallFrame fr = frames_.back();
        frames_.pop_back();
        reg_top_ = base_;
        base_ = fr.caller_base;
        R = regs_.data() + base_;
        cur_iface_ = fr.caller_iface;
        pc = fr.ret_pc;
        regs_[fr.ret_dst] = std::move(v);
        break;
      }
      case BcOp::kForPrep: {
        ECLARITY_ASSIGN_OR_RETURN(double begin_n, R[in.a].AsNumber());
        ECLARITY_ASSIGN_OR_RETURN(double end_n, R[in.b].AsNumber());
        R[in.a] = CounterValue(static_cast<int64_t>(std::llround(begin_n)));
        R[in.b] = CounterValue(static_cast<int64_t>(std::llround(end_n)));
        break;
      }
      case BcOp::kForNext: {
        const int64_t i = CounterBits(R[in.a]);
        const int64_t hi = CounterBits(R[in.b]);
        const BytecodeProgram::ForSite& site = bc_.for_sites_[in.imm];
        if (i >= hi) {
          pc = site.end_target;
          break;
        }
        if (++steps_ > options_.max_steps) {
          EvalCounters::Get().budget_steps.Increment();
          return bc_.status_pool_[site.budget_status];
        }
        R[in.c] = Value::Number(static_cast<double>(i));
        break;
      }
      case BcOp::kForIncJump:
        R[in.a] = CounterValue(CounterBits(R[in.a]) + 1);
        pc = in.imm;
        break;
      case BcOp::kEcvBegin: {
        const BytecodeProgram::EcvSite& site = bc_.ecv_sites_[in.imm];
        if (!profile_.empty()) {
          const EcvSupport* o =
              profile_.FindQualified(site.ecv->qualified, site.ecv->bare);
          if (o != nullptr) {
            cur_support_ = o;
            pc = site.draw_target;
          }
        }
        break;
      }
      case BcOp::kEcvStatic:
        cur_support_ = &*bc_.ecv_sites_[in.imm].ecv->static_support;
        break;
      case BcOp::kEcvBaked:
        cur_support_ = &bc_.baked_supports_[bc_.ecv_sites_[in.imm].baked];
        break;
      case BcOp::kEcvCatOpen:
        cat_stack_.emplace_back();
        break;
      case BcOp::kEcvCatPush: {
        ECLARITY_ASSIGN_OR_RETURN(double p, R[in.c].AsNumber());
        cat_stack_.back().emplace_back(R[in.b], p);
        break;
      }
      case BcOp::kEcvDynCat: {
        const BytecodeProgram::EcvSite& site = bc_.ecv_sites_[in.imm];
        Result<EcvSupport> support =
            EcvSupport::Make(std::move(cat_stack_.back()));
        cat_stack_.pop_back();
        if (!support.ok()) {
          return InvalidArgumentError(site.cat_prefix +
                                      support.status().message());
        }
        dyn_support_ = std::move(support).value();
        cur_support_ = &dyn_support_;
        break;
      }
      case BcOp::kEcvDynBern: {
        const BytecodeProgram::EcvSite& site = bc_.ecv_sites_[in.imm];
        ECLARITY_ASSIGN_OR_RETURN(double p, R[in.b].AsNumber());
        if (p < 0.0 || p > 1.0) {
          return site.range_error;
        }
        dyn_support_ = EcvSupport::Bernoulli(p);
        cur_support_ = &dyn_support_;
        break;
      }
      case BcOp::kEcvDynUniform: {
        const BytecodeProgram::EcvSite& site = bc_.ecv_sites_[in.imm];
        ECLARITY_ASSIGN_OR_RETURN(double lo_n, R[in.b].AsNumber());
        ECLARITY_ASSIGN_OR_RETURN(double hi_n, R[in.c].AsNumber());
        const int64_t lo = static_cast<int64_t>(std::llround(lo_n));
        const int64_t hi = static_cast<int64_t>(std::llround(hi_n));
        if (hi < lo) {
          return site.inverted_error;
        }
        const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
        if (span > options_.max_ecv_support) {
          return site.toolarge_error;
        }
        std::vector<std::pair<Value, double>> outcomes;
        outcomes.reserve(span);
        for (int64_t v = lo; v <= hi; ++v) {
          outcomes.emplace_back(Value::Number(static_cast<double>(v)), 1.0);
        }
        ECLARITY_ASSIGN_OR_RETURN(dyn_support_,
                                  EcvSupport::Make(std::move(outcomes)));
        cur_support_ = &dyn_support_;
        break;
      }
      case BcOp::kEcvDraw: {
        ECLARITY_ASSIGN_OR_RETURN(const Value* outcome,
                                  DrawEcv(bc_.ecv_sites_[in.imm]));
        (void)outcome;
        break;
      }
      case BcOp::kEcvDrawBranch: {
        const BytecodeProgram::EcvSite& site = bc_.ecv_sites_[in.imm];
        ECLARITY_ASSIGN_OR_RETURN(const Value* outcome, DrawEcv(site));
        // The fused if statement's own budget step, then its branch.
        if (++steps_ > options_.max_steps) {
          EvalCounters::Get().budget_steps.Increment();
          return bc_.status_pool_[site.fused_step_status];
        }
        const BytecodeProgram::BranchSite& bsite =
            bc_.branch_sites_[site.fused_branch];
        if (!outcome->is_bool()) {
          return InvalidArgumentError(bsite.prefix +
                                      outcome->AsBool().status().message());
        }
        if (!outcome->boolean()) {
          pc = bsite.else_target;
        }
        break;
      }
    }
    if constexpr (kProfiled) {
      if (prof_timed) {
        // The raw deltas of the instruction and of its empty timer pair go
        // to their histograms, which rank the opcodes. The site gets the
        // instruction's cost minus the calibrated cost of the empty timer
        // pair (otherwise cheap, frequent ops absorb clock overhead
        // proportional to their hit count), scaled by the interval so
        // totals estimate the stream.
        const uint64_t delta = ObsNowNs() - prof_t0;
        double cost = static_cast<double>(delta) - prof_overhead_ns_;
        if (cost < 0.0) {
          cost = 0.0;
        }
        const uint64_t scaled =
            static_cast<uint64_t>(cost) * prof_interval_;
        const size_t op = static_cast<size_t>(in.op);
        ++local_prof_.op_costs[VmCostKey(op, delta)];
        ++local_prof_.op_costs[VmCostKey(kVmTimerRow, prof_t0 - prof_pair_t0)];
        ++local_prof_.samples;
        VmLocalProfile::Site& site = local_prof_.sites[prof_pc];
        site.op = static_cast<uint8_t>(in.op);
        site.iface = prof_iface;
        ++site.samples;
        site.est_ns += scaled;
      }
    }
  }
}

// Explicit instantiations: Run() selects one at runtime.
template Result<Value> BytecodeInterpreter::RunImpl<false>(uint32_t pc);
template Result<Value> BytecodeInterpreter::RunImpl<true>(uint32_t pc);

const char* VmOpName(uint8_t op) {
  static constexpr const char* kNames[] = {
#define ECLARITY_BC_NAME(name) #name,
      ECLARITY_BC_OPS(ECLARITY_BC_NAME)
#undef ECLARITY_BC_NAME
  };
  return op < kBcOpCount ? kNames[op] : "op?";
}

}  // namespace eclarity
