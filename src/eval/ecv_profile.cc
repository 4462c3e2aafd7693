#include "src/eval/ecv_profile.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

namespace eclarity {

Result<EcvSupport> EcvSupport::Make(
    std::vector<std::pair<Value, double>> o) {
  if (o.empty()) {
    return InvalidArgumentError("ECV support must be non-empty");
  }
  double total = 0.0;
  for (const auto& [value, prob] : o) {
    if (prob < 0.0 || !std::isfinite(prob)) {
      return InvalidArgumentError("ECV outcome probability must be >= 0");
    }
    total += prob;
  }
  if (total <= 0.0) {
    return InvalidArgumentError("ECV support has zero total probability");
  }
  for (auto& [value, prob] : o) {
    prob /= total;
  }
  EcvSupport support;
  support.outcomes = std::move(o);
  return support;
}

EcvSupport EcvSupport::Fixed(Value v) {
  EcvSupport support;
  support.outcomes.emplace_back(std::move(v), 1.0);
  return support;
}

EcvSupport EcvSupport::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  EcvSupport support;
  support.outcomes.emplace_back(Value::Bool(true), p);
  support.outcomes.emplace_back(Value::Bool(false), 1.0 - p);
  return support;
}

namespace {

// llround(bound) as an int64, or why it has none.
Result<int64_t> UniformIntBound(double bound, const char* which,
                                const std::string& prefix) {
  if (std::isfinite(bound) && bound >= -0x1p63 && bound < 0x1p63) {
    return static_cast<int64_t>(std::llround(bound));
  }
  std::ostringstream os;
  os << prefix << "uniform_int " << which << " bound ";
  // Spelled out: the stream would print a NaN's sign bit ("-nan").
  if (std::isnan(bound)) {
    os << "NaN";
  } else {
    os << bound;
  }
  os << (std::isfinite(bound) ? " is outside the int64 range"
                              : " is not finite");
  return InvalidArgumentError(os.str());
}

}  // namespace

Result<EcvSupport> EcvSupport::UniformInt(double lo_n, double hi_n,
                                          size_t max_support,
                                          const std::string& prefix) {
  ECLARITY_ASSIGN_OR_RETURN(const int64_t lo,
                            UniformIntBound(lo_n, "lower", prefix));
  ECLARITY_ASSIGN_OR_RETURN(const int64_t hi,
                            UniformIntBound(hi_n, "upper", prefix));
  if (hi < lo) {
    return InvalidArgumentError(prefix + "uniform_int with inverted bounds");
  }
  // hi - lo in uint64: the full int64 range spans 2^64 - 1, which int64
  // arithmetic would overflow.
  const uint64_t last = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (last >= max_support) {
    return ResourceExhaustedError(prefix + "uniform_int support too large");
  }
  std::vector<std::pair<Value, double>> outcomes;
  outcomes.reserve(last + 1);
  for (uint64_t i = 0; i <= last; ++i) {
    const int64_t v = static_cast<int64_t>(static_cast<uint64_t>(lo) + i);
    outcomes.emplace_back(Value::Number(static_cast<double>(v)), 1.0);
  }
  return Make(std::move(outcomes));
}

void EcvProfile::SetFixed(const std::string& key, Value value) {
  overrides_[key] = EcvSupport::Fixed(std::move(value));
}

void EcvProfile::SetBernoulli(const std::string& key, double p) {
  overrides_[key] = EcvSupport::Bernoulli(p);
}

Status EcvProfile::Set(const std::string& key,
                       std::vector<std::pair<Value, double>> outcomes) {
  ECLARITY_ASSIGN_OR_RETURN(EcvSupport support,
                            EcvSupport::Make(std::move(outcomes)));
  overrides_[key] = std::move(support);
  return OkStatus();
}

void EcvProfile::MergeFrom(const EcvProfile& other) {
  for (const auto& [key, support] : other.overrides_) {
    overrides_[key] = support;
  }
}

const EcvSupport* EcvProfile::FindQualified(const std::string& qualified,
                                            const std::string& bare) const {
  const auto q = overrides_.find(qualified);
  if (q != overrides_.end()) {
    return &q->second;
  }
  const auto b = overrides_.find(bare);
  if (b != overrides_.end()) {
    return &b->second;
  }
  return nullptr;
}

std::string EcvProfile::Fingerprint() const {
  std::string out;
  for (const auto& [key, support] : overrides_) {  // map order: sorted keys
    out += key;
    out.push_back('=');
    for (const auto& [value, prob] : support.outcomes) {
      value.AppendFingerprint(out);
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(prob));
      std::memcpy(&bits, &prob, sizeof(bits));
      out.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
    }
    out.push_back(';');
  }
  return out;
}

const EcvSupport* EcvProfile::Find(const std::string& iface_name,
                                   const std::string& ecv_name) const {
  const auto qualified = overrides_.find(iface_name + "." + ecv_name);
  if (qualified != overrides_.end()) {
    return &qualified->second;
  }
  const auto bare = overrides_.find(ecv_name);
  if (bare != overrides_.end()) {
    return &bare->second;
  }
  return nullptr;
}

}  // namespace eclarity
