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

// Applies a binary operator with EIL's typing rules. `context` is prepended
// to error messages (typically "at line:col").
Result<Value> ApplyBinary(BinaryOp op, const Value& lhs, const Value& rhs,
                          const std::string& context);

// Applies unary negation (number or energy) or logical not (bool).
Result<Value> ApplyUnary(UnaryOp op, const Value& operand,
                         const std::string& context);

}  // namespace eclarity

#endif  // ECLARITY_SRC_LANG_VALUE_H_
