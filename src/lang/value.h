// Runtime values for EIL evaluation.
//
// EIL is dynamically typed with three value kinds:
//   * number  — dimensionless double (counts, sizes, probabilities, ...)
//   * bool    — condition results and boolean ECVs
//   * energy  — an AbstractEnergy: concrete Joules and/or abstract units
//
// The arithmetic below enforces dimensional discipline: energies add with
// energies, scale by numbers, and the ratio of two energies is a number.
// Mixing kinds any other way is an evaluation error, not a silent coercion —
// catching Joule/count confusion is precisely what the strong typing is for.

#ifndef ECLARITY_SRC_LANG_VALUE_H_
#define ECLARITY_SRC_LANG_VALUE_H_

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>

#include "src/lang/ast.h"
#include "src/units/abstract_energy.h"
#include "src/util/status.h"

namespace eclarity {

enum class ValueKind : uint8_t { kNumber = 0, kBool = 1, kEnergy = 2 };

const char* ValueKindName(ValueKind kind);

// 16 bytes (DESIGN.md, "Values"): one double payload carried bit-exactly —
// a number, a bool (1.0 or 0.0) or an energy's concrete Joules — and one
// word holding the kind in its low two bits plus, for an energy with
// abstract units, the pointer to its shared term vector (null when the
// energy is concrete). Copying a number, a bool or a concrete energy is two
// word copies; copying an abstract energy bumps a reference count.
class Value {
 public:
  Value() = default;  // the number 0
  Value(const Value& other) : payload_(other.payload_), word_(other.word_) {
    AbstractEnergy::Retain(terms());
  }
  Value(Value&& other) noexcept
      : payload_(other.payload_), word_(other.word_) {
    other.word_ &= kKindMask;
  }
  Value& operator=(const Value& other) {
    AbstractEnergy::Retain(other.terms());
    AbstractEnergy::Release(terms());
    payload_ = other.payload_;
    word_ = other.word_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      AbstractEnergy::Release(terms());
      payload_ = other.payload_;
      word_ = other.word_;
      other.word_ &= kKindMask;
    }
    return *this;
  }
  ~Value() { AbstractEnergy::Release(terms()); }

  static Value Number(double v) { return Value(v, ValueKind::kNumber); }
  static Value Bool(bool v) { return Value(v ? 1.0 : 0.0, ValueKind::kBool); }
  static Value EnergyValue(AbstractEnergy e) {
    Value out(e.concrete_.joules(), ValueKind::kEnergy);
    out.word_ |= reinterpret_cast<uintptr_t>(e.terms_);
    e.terms_ = nullptr;  // the value adopts the energy's reference
    return out;
  }
  static Value Joules(double j) { return Value(j, ValueKind::kEnergy); }

  ValueKind kind() const { return static_cast<ValueKind>(word_ & kKindMask); }

  bool is_number() const { return kind() == ValueKind::kNumber; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_energy() const { return kind() == ValueKind::kEnergy; }

  double number() const {
    assert(is_number());
    return payload_;
  }
  bool boolean() const {
    assert(is_bool());
    return payload_ != 0.0;
  }
  // An energy's concrete Joules, its abstract terms (if any) aside.
  double joules() const {
    assert(is_energy());
    return payload_;
  }
  // True for an energy without abstract terms.
  bool is_concrete_energy() const {
    return word_ == static_cast<uintptr_t>(ValueKind::kEnergy);
  }
  // True for an energy with abstract terms; numbers and bools have none.
  bool has_terms() const { return word_ > kKindMask; }
  // The energy, sharing this value's terms: no allocation.
  AbstractEnergy energy() const {
    assert(is_energy());
    AbstractEnergy::Retain(terms());
    return AbstractEnergy(Energy::Joules(payload_), terms());
  }

  // Typed accessors with error reporting.
  Result<double> AsNumber() const;
  Result<bool> AsBool() const;
  Result<AbstractEnergy> AsEnergy() const;

  // Kind-strict; numbers and Joules compare as doubles (+0.0 == -0.0, NaN
  // is unequal to itself), abstract terms term by term.
  bool operator==(const Value& other) const {
    return kind() == other.kind() && payload_ == other.payload_ &&
           AbstractEnergy::SameTerms(terms(), other.terms());
  }

  // True when both values fingerprint alike (AppendFingerprint): the same
  // kind and payload bits, and the same units with the same coefficient
  // bits. Unlike ==, +0.0 and -0.0 differ and a NaN matches its own bits.
  bool SameBits(const Value& other) const {
    if (std::bit_cast<uint64_t>(payload_) !=
        std::bit_cast<uint64_t>(other.payload_)) {
      return false;
    }
    if (word_ == other.word_) {
      return true;
    }
    return kind() == other.kind() && terms() != nullptr &&
           other.terms() != nullptr &&
           AbstractEnergy::SameTermBits(*terms(), *other.terms());
  }

  std::string ToString() const;

  // Appends a canonical byte encoding of this value to `out`: a kind tag
  // followed by the bit-exact payload (doubles as raw bits, energies as
  // joules + sorted unit terms). Equal values produce equal encodings —
  // used to build evaluation-cache keys, not for display.
  void AppendFingerprint(std::string& out) const;

 private:
  static constexpr uintptr_t kKindMask = 3;
  static_assert(alignof(AbstractEnergy::Terms) > kKindMask,
                "term pointers must leave the kind bits free");

  Value(double payload, ValueKind kind)
      : payload_(payload), word_(static_cast<uintptr_t>(kind)) {}

  const AbstractEnergy::Terms* terms() const {
    return reinterpret_cast<const AbstractEnergy::Terms*>(word_ & ~kKindMask);
  }

  double payload_ = 0.0;
  uintptr_t word_ = 0;  // ValueKind | term pointer
};

static_assert(sizeof(Value) == 16);

// The arithmetic kernel (DESIGN.md, "Bytecode VM"): every case of
// ApplyBinary that cannot fail and involves no abstract term, that is, the
// arithmetic, comparisons and logic of numbers, bools and concrete
// energies. On such operands it stores the result in `out` (which may alias
// an operand) and returns true, building no Result and no string;
// otherwise it leaves `out` untouched and returns false. ApplyBinary calls
// it first and handles what it declines (abstract terms and every error),
// so each kind pair's arithmetic is written here once. The expressions are
// AbstractEnergy's (`a + b * sign`, `joules * scale`), so NaN payloads and
// signed zeros keep their bits.
inline bool TryApplyBinary(BinaryOp op, const Value& lhs, const Value& rhs,
                           Value& out) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub: {
      const double sign = op == BinaryOp::kAdd ? 1.0 : -1.0;
      if (lhs.is_number() && rhs.is_number()) {
        out = Value::Number(lhs.number() + sign * rhs.number());
        return true;
      }
      // Concrete energies are doubles, combined in AbstractEnergy's order:
      // lhs + (rhs * sign).
      if (lhs.is_concrete_energy() && rhs.is_concrete_energy()) {
        out = Value::Joules(lhs.joules() + rhs.joules() * sign);
        return true;
      }
      return false;
    }
    case BinaryOp::kMul:
      if (lhs.is_number() && rhs.is_number()) {
        out = Value::Number(lhs.number() * rhs.number());
        return true;
      }
      // An energy scales as `joules * scale`, whichever side it is on.
      if (lhs.is_concrete_energy() && rhs.is_number()) {
        out = Value::Joules(lhs.joules() * rhs.number());
        return true;
      }
      if (lhs.is_number() && rhs.is_concrete_energy()) {
        out = Value::Joules(rhs.joules() * lhs.number());
        return true;
      }
      return false;
    case BinaryOp::kDiv:
      if (rhs.is_number() && rhs.number() != 0.0) {
        if (lhs.is_number()) {
          out = Value::Number(lhs.number() / rhs.number());
          return true;
        }
        if (lhs.is_concrete_energy()) {
          out = Value::Joules(lhs.joules() * (1.0 / rhs.number()));
          return true;
        }
      }
      // The ratio of two concrete energies, as AbstractEnergy::RatioTo.
      if (lhs.is_concrete_energy() && rhs.is_concrete_energy() &&
          rhs.joules() != 0.0) {
        out = Value::Number(lhs.joules() / rhs.joules());
        return true;
      }
      return false;
    case BinaryOp::kMod:
      if (lhs.is_number() && rhs.is_number() && rhs.number() != 0.0) {
        out = Value::Number(std::fmod(lhs.number(), rhs.number()));
        return true;
      }
      return false;
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      if (lhs.has_terms() || rhs.has_terms()) {
        return false;
      }
      const bool eq = lhs == rhs;
      out = Value::Bool(op == BinaryOp::kEq ? eq : !eq);
      return true;
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      double a = 0.0;
      double b = 0.0;
      if (lhs.is_number() && rhs.is_number()) {
        a = lhs.number();
        b = rhs.number();
      } else if (lhs.is_concrete_energy() && rhs.is_concrete_energy()) {
        a = lhs.joules();
        b = rhs.joules();
      } else {
        return false;
      }
      switch (op) {
        case BinaryOp::kLt: out = Value::Bool(a < b); break;
        case BinaryOp::kLe: out = Value::Bool(a <= b); break;
        case BinaryOp::kGt: out = Value::Bool(a > b); break;
        default: out = Value::Bool(a >= b); break;
      }
      return true;
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      if (!lhs.is_bool() || !rhs.is_bool()) {
        return false;
      }
      const bool a = lhs.boolean();
      const bool b = rhs.boolean();
      out = Value::Bool(op == BinaryOp::kAnd ? (a && b) : (a || b));
      return true;
    }
  }
  return false;
}

// The kernel's unary half: negation of a number or a concrete energy
// (`joules * -1.0`, so a NaN keeps its sign bit) and logical not of a bool.
// ApplyUnary calls it first.
inline bool TryApplyUnary(UnaryOp op, const Value& operand, Value& out) {
  switch (op) {
    case UnaryOp::kNeg:
      if (operand.is_number()) {
        out = Value::Number(-operand.number());
        return true;
      }
      if (operand.is_concrete_energy()) {
        out = Value::Joules(operand.joules() * -1.0);
        return true;
      }
      return false;
    case UnaryOp::kNot:
      if (operand.is_bool()) {
        out = Value::Bool(!operand.boolean());
        return true;
      }
      return false;
  }
  return false;
}

// Applies a binary operator with EIL's typing rules. `context` is prepended
// to error messages (typically "at line:col"). Runs TryApplyBinary first.
Result<Value> ApplyBinary(BinaryOp op, const Value& lhs, const Value& rhs,
                          const std::string& context);

// Applies unary negation (number or energy) or logical not (bool). Runs
// TryApplyUnary first.
Result<Value> ApplyUnary(UnaryOp op, const Value& operand,
                         const std::string& context);

}  // namespace eclarity

#endif  // ECLARITY_SRC_LANG_VALUE_H_
