// Evaluation-time overrides for energy-critical variables.
//
// The distribution written in an interface (`ecv hit ~ bernoulli(0.8);`) is
// a default, documenting typical behaviour. A caller who knows its workload
// — a resource manager with cache statistics, a test fixing a scenario —
// overrides ECVs with an EcvProfile. Keys can be qualified
// ("E_cache_lookup.local_cache_hit") or bare ("local_cache_hit"); the
// qualified form wins when both match.

#ifndef ECLARITY_SRC_EVAL_ECV_PROFILE_H_
#define ECLARITY_SRC_EVAL_ECV_PROFILE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/lang/value.h"
#include "src/util/status.h"

namespace eclarity {

// A finite weighted support for one ECV. Probabilities are normalised on
// construction.
struct EcvSupport {
  std::vector<std::pair<Value, double>> outcomes;

  static Result<EcvSupport> Make(std::vector<std::pair<Value, double>> o);
  static EcvSupport Fixed(Value v);
  static EcvSupport Bernoulli(double p);
  // uniform_int(lo, hi): each integer from llround(lo) to llround(hi),
  // equally likely. A bound that is not finite or rounds outside the int64
  // range, and inverted bounds, are InvalidArgument; more than
  // `max_support` outcomes is ResourceExhausted. `prefix` ("in 'iface' at
  // L:C: ") starts every message. The one implementation every engine
  // calls.
  static Result<EcvSupport> UniformInt(double lo, double hi,
                                       size_t max_support,
                                       const std::string& prefix);
};

class EcvProfile {
 public:
  EcvProfile() = default;

  // Pins the ECV to a single value (probability 1).
  void SetFixed(const std::string& key, Value value);
  void SetBernoulli(const std::string& key, double p);
  // Arbitrary weighted support; invalid supports are rejected.
  Status Set(const std::string& key, std::vector<std::pair<Value, double>> outcomes);

  // Lookup for ECV `ecv_name` declared in interface `iface_name`:
  // "iface.ecv" first, bare "ecv" second, nullptr when absent.
  const EcvSupport* Find(const std::string& iface_name,
                         const std::string& ecv_name) const;

  // As Find(), but takes the pre-joined qualified key ("iface.ecv") so hot
  // paths avoid re-concatenating it on every draw.
  const EcvSupport* FindQualified(const std::string& qualified,
                                  const std::string& bare) const;

  bool empty() const { return overrides_.empty(); }

  // Canonical byte string over all overrides (sorted keys, bit-exact
  // values/probabilities): equal profiles yield equal fingerprints. Used to
  // key result caches; not meant for display.
  std::string Fingerprint() const;

  // Copies every override from `other` into this profile, overwriting
  // colliding keys (used to fold layer policies into one profile).
  void MergeFrom(const EcvProfile& other);

 private:
  std::map<std::string, EcvSupport> overrides_;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_ECV_PROFILE_H_
