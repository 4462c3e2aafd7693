// The benchmark's workloads. Each is a closed-loop request log: a pure
// function of (seed, client, index) that a client regenerates call by call,
// so the oracle and the traced run's replay can rebuild any request.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/eval/interp.h"

namespace perfbench {

inline constexpr const char* kFig1Entry = "E_ml_webservice_handle";
inline constexpr const char* kGpt2Entry = "E_gpt2_generate";

// Request indices are split into disjoint ranges per phase, so a workload
// whose keys must never repeat keeps them fresh across phases.
inline constexpr uint64_t kPhaseStride = uint64_t{1} << 31;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  // .eil sources, relative to the repository root; loaded into one service.
  virtual std::vector<std::string> sources() const = 0;
  // Base profiles: [0] is published at creation. With more than one, a
  // writer thread cycles through them while clients run.
  virtual std::vector<EcvProfile> base_profiles() const {
    return {EcvProfile()};
  }
  // Client threads of the main phase.
  virtual size_t main_clients() const = 0;
  // Fills `req` with request `index` of `client`.
  virtual void Fill(uint64_t client, uint64_t index, Request& req) const = 0;
  // Queries outside the timed log that warm the service before timing.
  virtual void WarmUp(const QueryService& service) const = 0;
  // True: as `eilc serve` does, every outcome is fingerprinted inside the
  // client loop and the oracle is a single-threaded replay through a fresh
  // service (answers include Monte Carlo). False: a tree-walk evaluator
  // checks audited answers under some published base profile.
  virtual bool replay_oracle() const { return false; }
};

// Returns nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// Checks audited answers after timing.
class Oracle {
 public:
  // `program` must outlive the oracle.
  Oracle(const Workload& workload, const Program& program);

  // True when `fingerprints` (one per query of `req`) are legal answers.
  bool Check(const Request& req, const std::vector<std::string>& fingerprints);

 private:
  bool CheckUnder(const EcvProfile& base, const Request& req,
                  const std::vector<std::string>& fingerprints) const;

  const Workload& workload_;
  std::vector<EcvProfile> profiles_;
  std::unique_ptr<QueryService> replay_;
  std::unique_ptr<eclarity::Evaluator> tree_walk_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
