#include "src/units/abstract_energy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <utility>

namespace eclarity {
namespace {

constexpr double kCoefficientEpsilon = 1e-15;

}  // namespace

void EnergyCalibration::Bind(const std::string& unit, Energy per_unit) {
  bindings_[unit] = per_unit;
}

bool EnergyCalibration::Has(const std::string& unit) const {
  return bindings_.count(unit) > 0;
}

Result<Energy> EnergyCalibration::Get(const std::string& unit) const {
  const auto it = bindings_.find(unit);
  if (it == bindings_.end()) {
    return NotFoundError("no calibration for abstract unit '" + unit + "'");
  }
  return it->second;
}

std::vector<std::string> EnergyCalibration::Units() const {
  std::vector<std::string> names;
  names.reserve(bindings_.size());
  for (const auto& [name, energy] : bindings_) {
    names.push_back(name);
  }
  return names;
}

std::string EnergyCalibration::Fingerprint() const {
  std::string fp;
  fp.reserve(bindings_.size() * 16);
  for (const auto& [name, energy] : bindings_) {  // std::map: sorted order
    fp += name;
    fp.push_back('=');
    const double joules = energy.joules();
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(joules));
    std::memcpy(&bits, &joules, sizeof(bits));
    fp.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
    fp.push_back(';');
  }
  return fp;
}

AbstractEnergy AbstractEnergy::FromConcrete(Energy e) {
  return AbstractEnergy(e, nullptr);
}

AbstractEnergy AbstractEnergy::Unit(const std::string& unit, double count) {
  return AbstractEnergy(Energy::Zero(), Pruned({UnitTerm{unit, count}}));
}

const AbstractEnergy::Terms* AbstractEnergy::Pruned(
    std::vector<UnitTerm> list) {
  std::erase_if(list, [](const UnitTerm& term) {
    return std::fabs(term.coefficient) < kCoefficientEpsilon;
  });
  if (list.empty()) {
    return nullptr;
  }
  Terms* terms = new Terms;
  terms->list = std::move(list);
  return terms;
}

bool AbstractEnergy::SameTermBits(const Terms& a, const Terms& b) {
  return std::equal(a.list.begin(), a.list.end(), b.list.begin(),
                    b.list.end(), [](const UnitTerm& x, const UnitTerm& y) {
                      return x.unit == y.unit &&
                             std::bit_cast<uint64_t>(x.coefficient) ==
                                 std::bit_cast<uint64_t>(y.coefficient);
                    });
}

std::span<const UnitTerm> AbstractEnergy::terms() const {
  if (terms_ == nullptr) {
    return {};
  }
  return terms_->list;
}

double AbstractEnergy::Coefficient(const std::string& unit) const {
  for (const UnitTerm& term : terms()) {
    if (term.unit == unit) {
      return term.coefficient;
    }
  }
  return 0.0;
}

std::vector<std::string> AbstractEnergy::Units() const {
  std::vector<std::string> names;
  names.reserve(terms().size());
  for (const UnitTerm& term : terms()) {
    names.push_back(term.unit);
  }
  return names;
}

AbstractEnergy AbstractEnergy::operator+(const AbstractEnergy& other) const {
  AbstractEnergy out = *this;
  out += other;
  return out;
}

AbstractEnergy AbstractEnergy::operator-(const AbstractEnergy& other) const {
  return *this + other * -1.0;
}

AbstractEnergy AbstractEnergy::operator*(double scale) const {
  if (terms_ == nullptr) {
    return AbstractEnergy(concrete_ * scale, nullptr);
  }
  std::vector<UnitTerm> scaled(terms_->list);
  for (UnitTerm& term : scaled) {
    term.coefficient = term.coefficient * scale;
  }
  return AbstractEnergy(concrete_ * scale, Pruned(std::move(scaled)));
}

AbstractEnergy& AbstractEnergy::operator+=(const AbstractEnergy& other) {
  concrete_ += other.concrete_;
  if (other.terms_ == nullptr) {
    return *this;
  }
  // Merge the two sorted term vectors. A unit only `other` has starts from
  // 0.0, so its coefficient is 0.0 + c, bit for bit what an accumulating
  // map produces.
  const std::span<const UnitTerm> a = terms();
  const std::span<const UnitTerm> b = other.terms();
  std::vector<UnitTerm> sum;
  sum.reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].unit < b[j].unit)) {
      sum.push_back(a[i++]);
    } else if (i == a.size() || b[j].unit < a[i].unit) {
      sum.push_back({b[j].unit, 0.0 + b[j].coefficient});
      ++j;
    } else {
      sum.push_back({a[i].unit, a[i].coefficient + b[j].coefficient});
      ++i;
      ++j;
    }
  }
  const Terms* merged = Pruned(std::move(sum));
  Release(terms_);
  terms_ = merged;
  return *this;
}

bool AbstractEnergy::operator==(const AbstractEnergy& other) const {
  return concrete_ == other.concrete_ && SameTerms(terms_, other.terms_);
}

Result<Energy> AbstractEnergy::Resolve(
    const EnergyCalibration& calibration) const {
  Energy total = concrete_;
  for (const UnitTerm& term : terms()) {
    ECLARITY_ASSIGN_OR_RETURN(Energy per_unit, calibration.Get(term.unit));
    total += per_unit * term.coefficient;
  }
  return total;
}

Result<double> AbstractEnergy::RatioTo(const AbstractEnergy& other) const {
  if (IsConcrete() && other.IsConcrete()) {
    if (other.concrete_ == Energy::Zero()) {
      return FailedPreconditionError("RatioTo: division by zero energy");
    }
    return concrete_ / other.concrete_;
  }
  if (terms().size() == 1 && other.terms().size() == 1 &&
      concrete_ == Energy::Zero() && other.concrete_ == Energy::Zero()) {
    const UnitTerm& a = terms().front();
    const UnitTerm& b = other.terms().front();
    if (a.unit != b.unit) {
      return FailedPreconditionError(
          "RatioTo: incomparable abstract units '" + a.unit + "' vs '" +
          b.unit + "'");
    }
    if (b.coefficient == 0.0) {
      return FailedPreconditionError("RatioTo: division by zero energy");
    }
    return a.coefficient / b.coefficient;
  }
  return FailedPreconditionError(
      "RatioTo: quantities are not multiples of a single common unit");
}

std::string AbstractEnergy::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (const UnitTerm& term : terms()) {
    if (!first) {
      os << " + ";
    }
    os << term.coefficient << " " << term.unit;
    first = false;
  }
  if (concrete_ != Energy::Zero() || first) {
    if (!first) {
      os << " + ";
    }
    os << concrete_.ToString();
  }
  return os.str();
}

AbstractEnergy operator*(double scale, const AbstractEnergy& e) {
  return e * scale;
}

}  // namespace eclarity
