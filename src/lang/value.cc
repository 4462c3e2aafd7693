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

// `energy * scale` for an energy with abstract terms (TryApplyBinary
// scales concrete ones).
Value ScaledTerms(const Value& energy, double scale) {
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

// Every case TryApplyBinary answers is left out below: what remains are
// abstract terms and the errors.
Result<Value> ApplyBinary(BinaryOp op, const Value& lhs, const Value& rhs,
                          const std::string& context) {
  Value out;
  if (TryApplyBinary(op, lhs, rhs, out)) {
    return out;
  }
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub: {
      if (lhs.is_energy() && rhs.is_energy()) {
        const double sign = op == BinaryOp::kAdd ? 1.0 : -1.0;
        return Value::EnergyValue(lhs.energy() + rhs.energy() * sign);
      }
      return TypeError(context, std::string("cannot apply '") +
                                    BinaryOpName(op) + "' to " +
                                    ValueKindName(lhs.kind()) + " and " +
                                    ValueKindName(rhs.kind()));
    }
    case BinaryOp::kMul: {
      if (lhs.is_energy() && rhs.is_number()) {
        return ScaledTerms(lhs, rhs.number());
      }
      if (lhs.is_number() && rhs.is_energy()) {
        return ScaledTerms(rhs, lhs.number());
      }
      return TypeError(context, "cannot multiply " +
                                    std::string(ValueKindName(lhs.kind())) +
                                    " by " + ValueKindName(rhs.kind()));
    }
    case BinaryOp::kDiv: {
      if ((lhs.is_number() || lhs.is_energy()) && rhs.is_number() &&
          rhs.number() == 0.0) {
        return TypeError(context, "division by zero");
      }
      if (lhs.is_energy() && rhs.is_number()) {
        return ScaledTerms(lhs, 1.0 / rhs.number());
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
    case BinaryOp::kMod:
      if (lhs.is_number() && rhs.is_number()) {
        return TypeError(context, "modulo by zero");
      }
      return TypeError(context, "'%' requires numbers");
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      const bool eq = lhs == rhs;
      return Value::Bool(op == BinaryOp::kEq ? eq : !eq);
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      if (lhs.is_energy() && rhs.is_energy()) {
        // Abstract terms are not orderable without a calibration; the left
        // operand is checked first.
        const Value& abstract = lhs.has_terms() ? lhs : rhs;
        return TypeError(context, "cannot compare abstract energy '" +
                                      abstract.energy().ToString() +
                                      "' without calibration");
      }
      return TypeError(context, std::string("cannot order ") +
                                    ValueKindName(lhs.kind()) + " and " +
                                    ValueKindName(rhs.kind()));
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      ECLARITY_RETURN_IF_ERROR(lhs.AsBool().status());
      return rhs.AsBool().status();
  }
  return TypeError(context, "unknown binary operator");
}

Result<Value> ApplyUnary(UnaryOp op, const Value& operand,
                         const std::string& context) {
  Value out;
  if (TryApplyUnary(op, operand, out)) {
    return out;
  }
  switch (op) {
    case UnaryOp::kNeg:
      if (operand.is_energy()) {
        return ScaledTerms(operand, -1.0);
      }
      return TypeError(context, "cannot negate a bool");
    case UnaryOp::kNot:
      return operand.AsBool().status();
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
