// The traced run's per-layer cost ledger. Every number here comes from
// timing calls into a layer's public functions from the benchmark itself:
// probes on side services and evaluators, and in-traffic replays of a
// seeded random subset of requests. Nothing inside src/ is instrumented.

#ifndef PERFBENCH_SRC_LEDGER_H_
#define PERFBENCH_SRC_LEDGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/workloads.h"
#include "src/eval/interp.h"

namespace perfbench {

// Per-layer costs measured by probes, outside the timed phases.
struct ProbeCosts {
  double parse_us = 0, check_us = 0;
  double lower_us = 0, compile_us = 0, specialize_us = 0;
  double snapshot_pin_ns = 0, hit_ns = 0, miss_overhead_us = 0;
  double mc_us = 0, publish_us = 0;
};

// Times the setup layers on `sources` (file contents) and the service
// layers on side services built from `program`.
ProbeCosts RunProbes(const Workload& workload,
                     const std::vector<std::string>& sources,
                     const Program& program);

// Replays requests on side evaluators, one per base profile, recording a
// ledger.replay span with one child span per layer call.
class Replayer {
 public:
  // `program` and `profiles` must outlive the replayer.
  Replayer(const Program& program, const std::vector<EcvProfile>& profiles);

  // True for the seeded random subset of requests that is replayed.
  bool Selected(uint64_t seed, uint64_t client, uint64_t index) const {
    return LogHash(seed, 0x7E91A + client, index) % kOneIn == 0;
  }
  void Replay(const Request& req, size_t profile, uint64_t request_id,
              SpanLog& log) const;

 private:
  static constexpr uint64_t kOneIn = 128;
  const std::vector<EcvProfile>& profiles_;
  std::vector<std::unique_ptr<eclarity::Evaluator>> side_;
};

// Per-span-name per-item durations (ns) gathered from span logs.
std::map<std::string, std::vector<double>> PerItemDurations(
    const std::vector<const SpanLog*>& logs);

// Sum of one replay's child-span durations, per replayed request kind.
struct ReplayTotals {
  std::vector<double> exact_ns;  // enumerate + fold, single exact queries
  std::vector<double> mc_ns;     // sampling, Monte Carlo queries
  std::vector<double> batch_ns;  // batch lanes, whole sweeps
};
ReplayTotals ReplayCosts(const std::vector<const SpanLog*>& logs);

// Writes every kept span as one JSON object per line.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LEDGER_H_
