#include "src/eval/builtins.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/lang/ast.h"

namespace eclarity {
namespace {

Status ArgError(const std::string& context, const std::string& name,
                const std::string& what) {
  return InvalidArgumentError(context + ": builtin '" + name + "': " + what);
}

// min/max over numbers or concrete energies.
Result<Value> MinMax(const std::string& name, const std::vector<Value>& args,
                     const std::string& context, bool want_min) {
  if (args[0].is_number() && args[1].is_number()) {
    const double a = args[0].number();
    const double b = args[1].number();
    return Value::Number(want_min ? std::min(a, b) : std::max(a, b));
  }
  if (args[0].is_concrete_energy() && args[1].is_concrete_energy()) {
    const double a = args[0].joules();
    const double b = args[1].joules();
    return Value::Joules(want_min ? std::min(a, b) : std::max(a, b));
  }
  return ArgError(context, name,
                  "arguments must both be numbers or concrete energies");
}

Result<Value> Numeric1(const std::string& name, const std::vector<Value>& args,
                       const std::string& context, double (*fn)(double)) {
  ECLARITY_ASSIGN_OR_RETURN(double x, args[0].AsNumber());
  const double y = fn(x);
  if (!std::isfinite(y)) {
    return ArgError(context, name, "non-finite result");
  }
  return Value::Number(y);
}

}  // namespace

Result<Value> ApplyBuiltin(const std::string& name,
                           const std::vector<Value>& args,
                           const std::vector<std::string>& string_args,
                           const std::string& context) {
  const BuiltinInfo* builtin = FindBuiltin(name);
  if (builtin == nullptr) {
    return ArgError(context, name, "unknown builtin");
  }
  // Every builtin but `au` (checked below) takes exactly min_args values.
  if (builtin->id != BuiltinId::kAu && args.size() != builtin->min_args) {
    return ArgError(context, name,
                    builtin->min_args == 1
                        ? std::string("expected 1 argument")
                        : "expected " + std::to_string(builtin->min_args) +
                              " arguments");
  }
  switch (builtin->id) {
    case BuiltinId::kMin:
      return MinMax(name, args, context, /*want_min=*/true);
    case BuiltinId::kMax:
      return MinMax(name, args, context, /*want_min=*/false);
    case BuiltinId::kClamp: {
      ECLARITY_ASSIGN_OR_RETURN(double x, args[0].AsNumber());
      ECLARITY_ASSIGN_OR_RETURN(double lo, args[1].AsNumber());
      ECLARITY_ASSIGN_OR_RETURN(double hi, args[2].AsNumber());
      if (lo > hi) {
        return ArgError(context, name, "clamp bounds inverted");
      }
      return Value::Number(std::clamp(x, lo, hi));
    }
    case BuiltinId::kAbs: {
      if (args[0].is_concrete_energy()) {
        return Value::Joules(std::fabs(args[0].joules()));
      }
      ECLARITY_ASSIGN_OR_RETURN(double x, args[0].AsNumber());
      return Value::Number(std::fabs(x));
    }
    case BuiltinId::kFloor:
      return Numeric1(name, args, context,
                      [](double x) { return std::floor(x); });
    case BuiltinId::kCeil:
      return Numeric1(name, args, context,
                      [](double x) { return std::ceil(x); });
    case BuiltinId::kRound:
      return Numeric1(name, args, context,
                      [](double x) { return std::round(x); });
    case BuiltinId::kLog:
      return Numeric1(name, args, context,
                      [](double x) { return std::log(x); });
    case BuiltinId::kLog2:
      return Numeric1(name, args, context,
                      [](double x) { return std::log2(x); });
    case BuiltinId::kExp:
      return Numeric1(name, args, context,
                      [](double x) { return std::exp(x); });
    case BuiltinId::kSqrt:
      return Numeric1(name, args, context,
                      [](double x) { return std::sqrt(x); });
    case BuiltinId::kPow: {
      ECLARITY_ASSIGN_OR_RETURN(double x, args[0].AsNumber());
      ECLARITY_ASSIGN_OR_RETURN(double y, args[1].AsNumber());
      const double r = std::pow(x, y);
      if (!std::isfinite(r)) {
        return ArgError(context, name, "non-finite result");
      }
      return Value::Number(r);
    }
    case BuiltinId::kAu: {
      if (string_args.size() != 1 || string_args[0].empty()) {
        return ArgError(context, name, "expected a unit name string");
      }
      double count = 1.0;
      // args[0] is the placeholder for the string literal; a real second
      // argument supplies the count.
      if (args.size() == 2) {
        ECLARITY_ASSIGN_OR_RETURN(count, args[1].AsNumber());
      }
      return Value::EnergyValue(AbstractEnergy::Unit(string_args[0], count));
    }
  }
  return ArgError(context, name, "unknown builtin");
}

}  // namespace eclarity
