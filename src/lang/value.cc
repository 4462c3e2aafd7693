#include "src/lang/value.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

namespace eclarity {
namespace {

Status TypeError(const std::string& context, const std::string& what) {
  return InvalidArgumentError(context + ": " + what);
}

// Comparison on two concrete energies; abstract terms are not orderable
// without a calibration, so comparing them is an error.
Result<double> ComparableJoules(const Value& energy,
                                const std::string& context) {
  if (!energy.is_concrete_energy()) {
    return TypeError(context,
                     "cannot compare abstract energy '" +
                         energy.energy().ToString() + "' without calibration");
  }
  return energy.joules();
}

// `energy * scale`; a concrete energy scales as a double.
Value Scaled(const Value& energy, double scale) {
  if (energy.is_concrete_energy()) {
    return Value::Joules(energy.joules() * scale);
  }
  return Value::EnergyValue(energy.energy() * scale);
}

}  // namespace

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNumber: return "number";
    case ValueKind::kBool: return "bool";
    case ValueKind::kEnergy: return "energy";
  }
  return "unknown";
}

Result<double> Value::AsNumber() const {
  if (!is_number()) {
    return InvalidArgumentError(std::string("expected number, got ") +
                                ValueKindName(kind()));
  }
  return number();
}

Result<bool> Value::AsBool() const {
  if (!is_bool()) {
    return InvalidArgumentError(std::string("expected bool, got ") +
                                ValueKindName(kind()));
  }
  return boolean();
}

Result<AbstractEnergy> Value::AsEnergy() const {
  if (!is_energy()) {
    return InvalidArgumentError(std::string("expected energy, got ") +
                                ValueKindName(kind()));
  }
  return energy();
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNumber: {
      std::ostringstream os;
      os << number();
      return os.str();
    }
    case ValueKind::kBool:
      return boolean() ? "true" : "false";
    case ValueKind::kEnergy:
      return energy().ToString();
  }
  return "?";
}

Result<Value> ApplyBinary(BinaryOp op, const Value& lhs, const Value& rhs,
                          const std::string& context) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub: {
      const double sign = op == BinaryOp::kAdd ? 1.0 : -1.0;
      if (lhs.is_number() && rhs.is_number()) {
        return Value::Number(lhs.number() + sign * rhs.number());
      }
      if (lhs.is_energy() && rhs.is_energy()) {
        // Concrete energies are doubles, combined in AbstractEnergy's
        // order: lhs + (rhs * sign).
        if (lhs.is_concrete_energy() && rhs.is_concrete_energy()) {
          return Value::Joules(lhs.joules() + rhs.joules() * sign);
        }
        return Value::EnergyValue(lhs.energy() + rhs.energy() * sign);
      }
      return TypeError(context, std::string("cannot apply '") +
                                    BinaryOpName(op) + "' to " +
                                    ValueKindName(lhs.kind()) + " and " +
                                    ValueKindName(rhs.kind()));
    }
    case BinaryOp::kMul: {
      if (lhs.is_number() && rhs.is_number()) {
        return Value::Number(lhs.number() * rhs.number());
      }
      if (lhs.is_energy() && rhs.is_number()) {
        return Scaled(lhs, rhs.number());
      }
      if (lhs.is_number() && rhs.is_energy()) {
        return Scaled(rhs, lhs.number());
      }
      return TypeError(context, "cannot multiply " +
                                    std::string(ValueKindName(lhs.kind())) +
                                    " by " + ValueKindName(rhs.kind()));
    }
    case BinaryOp::kDiv: {
      if (lhs.is_number() && rhs.is_number()) {
        if (rhs.number() == 0.0) {
          return TypeError(context, "division by zero");
        }
        return Value::Number(lhs.number() / rhs.number());
      }
      if (lhs.is_energy() && rhs.is_number()) {
        if (rhs.number() == 0.0) {
          return TypeError(context, "division by zero");
        }
        return Scaled(lhs, 1.0 / rhs.number());
      }
      if (lhs.is_energy() && rhs.is_energy()) {
        Result<double> ratio = lhs.energy().RatioTo(rhs.energy());
        if (!ratio.ok()) {
          return TypeError(context, ratio.status().message());
        }
        return Value::Number(ratio.value());
      }
      return TypeError(context, "cannot divide " +
                                    std::string(ValueKindName(lhs.kind())) +
                                    " by " + ValueKindName(rhs.kind()));
    }
    case BinaryOp::kMod: {
      if (lhs.is_number() && rhs.is_number()) {
        if (rhs.number() == 0.0) {
          return TypeError(context, "modulo by zero");
        }
        return Value::Number(std::fmod(lhs.number(), rhs.number()));
      }
      return TypeError(context, "'%' requires numbers");
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      const bool eq = lhs == rhs;
      return Value::Bool(op == BinaryOp::kEq ? eq : !eq);
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
      } else if (lhs.is_energy() && rhs.is_energy()) {
        ECLARITY_ASSIGN_OR_RETURN(a, ComparableJoules(lhs, context));
        ECLARITY_ASSIGN_OR_RETURN(b, ComparableJoules(rhs, context));
      } else {
        return TypeError(context,
                         std::string("cannot order ") +
                             ValueKindName(lhs.kind()) + " and " +
                             ValueKindName(rhs.kind()));
      }
      switch (op) {
        case BinaryOp::kLt: return Value::Bool(a < b);
        case BinaryOp::kLe: return Value::Bool(a <= b);
        case BinaryOp::kGt: return Value::Bool(a > b);
        default: return Value::Bool(a >= b);
      }
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      ECLARITY_ASSIGN_OR_RETURN(bool a, lhs.AsBool());
      ECLARITY_ASSIGN_OR_RETURN(bool b, rhs.AsBool());
      return Value::Bool(op == BinaryOp::kAnd ? (a && b) : (a || b));
    }
  }
  return TypeError(context, "unknown binary operator");
}

Result<Value> ApplyUnary(UnaryOp op, const Value& operand,
                         const std::string& context) {
  switch (op) {
    case UnaryOp::kNeg:
      if (operand.is_number()) {
        return Value::Number(-operand.number());
      }
      if (operand.is_energy()) {
        return Scaled(operand, -1.0);
      }
      return TypeError(context, "cannot negate a bool");
    case UnaryOp::kNot: {
      ECLARITY_ASSIGN_OR_RETURN(bool b, operand.AsBool());
      return Value::Bool(!b);
    }
  }
  return TypeError(context, "unknown unary operator");
}

namespace {

void AppendDoubleBits(double v, std::string& out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  out.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

}  // namespace

void Value::AppendFingerprint(std::string& out) const {
  if (is_number()) {
    out.push_back('N');
    AppendDoubleBits(number(), out);
    return;
  }
  if (is_bool()) {
    out.push_back(boolean() ? 'T' : 'F');
    return;
  }
  out.push_back('E');
  AppendDoubleBits(payload_, out);
  if (const AbstractEnergy::Terms* terms = this->terms()) {
    for (const UnitTerm& term : terms->list) {
      out += term.unit;
      out.push_back('=');
      AppendDoubleBits(term.coefficient, out);
      out.push_back(',');
    }
  }
}

}  // namespace eclarity
