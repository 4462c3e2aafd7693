// Abstract energy units (paper §3).
//
// An energy interface may return energy "in abstract units, such as 'energy
// for a 2D convolution' or 'energy for a ReLU'". Abstract units support
// relative comparisons ("4 ReLUs' worth is twice 2 ReLUs' worth") without
// knowing how many Joules a ReLU costs, and convert to concrete Joules once a
// calibration table — typically produced by microbenchmarks on the target
// machine — binds each unit.
//
// AbstractEnergy is a sparse linear combination of named units plus an
// optional concrete Joule component, so mixed expressions like
// `3 * relu + Energy::Millijoules(2)` remain well-defined.
//
// Representation (DESIGN.md, "Values"): the Joules plus one pointer to an
// immutable, reference-counted, name-sorted term vector that is null for
// every concrete energy. Copying an energy never allocates; arithmetic that
// changes abstract terms builds a new vector.

#ifndef ECLARITY_SRC_UNITS_ABSTRACT_ENERGY_H_
#define ECLARITY_SRC_UNITS_ABSTRACT_ENERGY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/units/units.h"
#include "src/util/status.h"

namespace eclarity {

// Binds abstract unit names to concrete energies, e.g. {"relu": 0.8 uJ}.
class EnergyCalibration {
 public:
  EnergyCalibration() = default;

  // Overwrites any previous binding for `unit`.
  void Bind(const std::string& unit, Energy per_unit);

  bool Has(const std::string& unit) const;
  Result<Energy> Get(const std::string& unit) const;

  // Names of all bound units, sorted.
  std::vector<std::string> Units() const;

  size_t size() const { return bindings_.size(); }

  // Deterministic key over all bindings (unit names + exact Joule bits),
  // for caches whose entries depend on the calibration.
  std::string Fingerprint() const;

 private:
  std::map<std::string, Energy> bindings_;
};

// `coefficient` units of the abstract unit `unit`.
struct UnitTerm {
  std::string unit;
  double coefficient = 0.0;

  bool operator==(const UnitTerm&) const = default;
};

class AbstractEnergy {
 public:
  AbstractEnergy() = default;
  AbstractEnergy(const AbstractEnergy& other)
      : concrete_(other.concrete_), terms_(other.terms_) {
    Retain(terms_);
  }
  AbstractEnergy(AbstractEnergy&& other) noexcept
      : concrete_(other.concrete_), terms_(other.terms_) {
    other.terms_ = nullptr;
  }
  AbstractEnergy& operator=(const AbstractEnergy& other) {
    Retain(other.terms_);
    Release(terms_);
    concrete_ = other.concrete_;
    terms_ = other.terms_;
    return *this;
  }
  AbstractEnergy& operator=(AbstractEnergy&& other) noexcept {
    if (this != &other) {
      Release(terms_);
      concrete_ = other.concrete_;
      terms_ = other.terms_;
      other.terms_ = nullptr;
    }
    return *this;
  }
  ~AbstractEnergy() { Release(terms_); }

  // A pure concrete amount (no abstract terms).
  static AbstractEnergy FromConcrete(Energy e);
  // `count` units of the named abstract unit.
  static AbstractEnergy Unit(const std::string& unit, double count = 1.0);

  // The concrete (Joule) component.
  Energy concrete() const { return concrete_; }
  // Coefficient of the named unit (0 when absent).
  double Coefficient(const std::string& unit) const;
  // All abstract unit names with nonzero coefficient, sorted.
  std::vector<std::string> Units() const;
  // The abstract terms, sorted by unit name; empty when concrete.
  std::span<const UnitTerm> terms() const;
  // True when there are no abstract terms (purely concrete, possibly zero).
  bool IsConcrete() const { return terms_ == nullptr; }

  AbstractEnergy operator+(const AbstractEnergy& other) const;
  AbstractEnergy operator-(const AbstractEnergy& other) const;
  AbstractEnergy operator*(double scale) const;
  AbstractEnergy& operator+=(const AbstractEnergy& other);

  bool operator==(const AbstractEnergy& other) const;

  // Resolves to concrete Joules under `calibration`. Fails with kNotFound
  // when a referenced unit is unbound.
  Result<Energy> Resolve(const EnergyCalibration& calibration) const;

  // If both quantities are multiples of the *same single* unit (or both
  // purely concrete), returns the dimensionless ratio this/other; otherwise
  // kFailedPrecondition. This is the paper's "relative comparison without
  // Joules" operation.
  Result<double> RatioTo(const AbstractEnergy& other) const;

  // e.g. "3 conv2d + 16 relu + 2.5 mJ".
  std::string ToString() const;

 private:
  friend class Value;  // stores the same term pointer in its tagged word

  // The shared term vector: sorted by unit name, every |coefficient| at
  // least 1e-15, never empty, and never written after it is built.
  struct Terms {
    mutable std::atomic<uint64_t> refs{1};
    std::vector<UnitTerm> list;
  };

  static void Retain(const Terms* terms) {
    if (terms != nullptr) {
      terms->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  static void Release(const Terms* terms) {
    if (terms != nullptr &&
        terms->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete terms;
    }
  }
  // Drops terms with |coefficient| < 1e-15; returns the rest as a new
  // vector holding one reference, or null when none is left.
  static const Terms* Pruned(std::vector<UnitTerm> list);
  // Term-by-term equality; a NaN coefficient is unequal even to itself.
  static bool SameTerms(const Terms* a, const Terms* b) {
    if (a == nullptr || b == nullptr) {
      return a == b;
    }
    return a->list == b->list;
  }

  // Equal unit names and coefficient bits; both non-null.
  static bool SameTermBits(const Terms& a, const Terms& b);

  // Adopts one reference to `terms`.
  AbstractEnergy(Energy concrete, const Terms* terms)
      : concrete_(concrete), terms_(terms) {}

  Energy concrete_;
  const Terms* terms_ = nullptr;  // null: concrete
};

AbstractEnergy operator*(double scale, const AbstractEnergy& e);

}  // namespace eclarity

#endif  // ECLARITY_SRC_UNITS_ABSTRACT_ENERGY_H_
