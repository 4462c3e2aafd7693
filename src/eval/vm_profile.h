// Sampling profiler for the bytecode VM.
//
// Two layers, both cheap enough to leave compiled in:
//   - VmLocalProfile: interpreter-local per-opcode hit counters plus a
//     sampled instruction-site histogram. The profiled dispatch loop pays
//     one array increment and a countdown per instruction; every
//     sample_interval-th instruction is additionally timed with three
//     clock reads: an empty timer pair, then the instruction. Both deltas
//     land in log-linear histograms (one per opcode, one for the timer
//     pairs), and the instruction's cost minus the calibrated timer
//     overhead, scaled by the interval, is added to its site. An opcode's
//     estimate is hits(op) * (typical delta(op) - typical timer pair),
//     "typical" being the mean of the middle half of the samples: a sample
//     that spans a deschedule (one reading worth thousands of ops) cannot
//     decide the ranking, and the timer cost is the one of the moment the
//     ops ran. Expensive superinstructions thus rank above
//     frequent-but-trivial ones. Site and interface totals stay
//     interval-scaled sums.
//   - VmProfiler: thread-safe aggregation across interpreter instances
//     (QueryService snapshots run one interpreter per query), with
//     hot-op / hot-site / per-interface tables.
//
// Profiling is off unless EvalOptions::vm_profiler is set; the unprofiled
// dispatch loop is compiled separately (if constexpr) and carries zero
// profiling instructions, keeping the default path branch-predictable.

#ifndef ECLARITY_SRC_EVAL_VM_PROFILE_H_
#define ECLARITY_SRC_EVAL_VM_PROFILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace eclarity {

class BytecodeProgram;

// Upper bound on BcOp values; static_asserted against the length of the
// opcode list in bytecode.h so the two files cannot drift apart silently.
inline constexpr size_t kVmOpCount = 32;

// Display name for a BcOp raw value ("kFoldChain", ...); "op?" when out of
// range. Defined in bytecode.cc from the opcode list.
const char* VmOpName(uint8_t op);

// Cost histograms bucket a timed sample's raw clock delta (ns, timer
// overhead included): exact below 128 ns, then eight buckets per octave,
// the last bucket open-ended. One row per opcode, then kVmTimerRow: the
// empty timer pair taken right before each timed instruction.
inline constexpr size_t kVmCostBuckets = 320;
inline constexpr size_t kVmTimerRow = kVmOpCount;
// The VmLocalProfile::op_costs key of one delta in histogram row `row`.
uint32_t VmCostKey(size_t row, uint64_t delta_ns);

struct VmLocalProfile {
  struct Site {
    uint8_t op = 0;
    uint64_t samples = 0;
    uint64_t est_ns = 0;  // interval-scaled, overhead-subtracted
  };
  std::array<uint64_t, kVmOpCount> hits{};
  // VmCostKey(row, delta) -> timed samples; sparse, so an interpreter
  // that times a few ops allocates a few nodes.
  std::unordered_map<uint32_t, uint32_t> op_costs;
  // Keyed by absolute pc; the program's pc table names its interface.
  std::unordered_map<uint32_t, Site> sites;
  uint64_t dispatches = 0;
  uint64_t samples = 0;
  uint32_t countdown = 0;

  bool empty() const { return dispatches == 0; }
};

class VmProfiler {
 public:
  // Every `sample_interval`-th dispatched instruction is timed. 8 keeps
  // the profiled loop within ~2x of the unprofiled one on trivial ops;
  // raise it to profile more lightly, 1 times every instruction.
  explicit VmProfiler(uint32_t sample_interval = 8);

  uint32_t sample_interval() const { return sample_interval_; }
  // Calibrated cost of an empty start/stop timer pair, subtracted from
  // every sample so cheap-but-frequent ops are not over-charged.
  double timer_overhead_ns() const { return timer_overhead_ns_; }

  struct OpStat {
    uint8_t op = 0;
    uint64_t hits = 0;
    uint64_t est_ns = 0;  // hits * typical timed cost (0 when never timed)
  };
  struct SiteStat {
    std::string iface;
    uint32_t pc = 0;
    uint8_t op = 0;
    uint64_t samples = 0;
    uint64_t est_ns = 0;
  };
  struct IfaceStat {
    std::string iface;
    uint64_t samples = 0;
    uint64_t est_ns = 0;
  };
  struct Snapshot {
    uint64_t dispatches = 0;
    uint64_t samples = 0;
    uint32_t sample_interval = 0;
    std::vector<OpStat> ops;        // est_ns desc, zero-hit ops omitted
    std::vector<SiteStat> sites;    // est_ns desc
    std::vector<IfaceStat> ifaces;  // est_ns desc

    // The opcode with the largest estimated total cost ("" when empty).
    std::string HottestOp() const {
      return ops.empty() ? "" : VmOpName(ops.front().op);
    }
  };

  Snapshot TakeSnapshot() const;
  void Reset();

  // Folds an interpreter-local profile in (called from the interpreter's
  // destructor); `bc` names each site's interface through its pc table,
  // so an inlined body is charged to its callee. Charges the sampling cost
  // to the global ObsBudget.
  void Merge(const VmLocalProfile& local, const BytecodeProgram& bc);

  // Initial countdown for a fresh interpreter, uniform over
  // [1, sample_interval]. Systematic sampling with a uniform random start
  // is unbiased per instruction site even when the interval divides the
  // program's dispatch count — a fixed start would sample the same pc in
  // every short run and never see the others.
  uint32_t NextCountdown() {
    uint64_t x = phase_counter_.fetch_add(1, std::memory_order_relaxed);
    // splitmix64 finalizer: decorrelates the sequential counter.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return 1 + static_cast<uint32_t>(x % sample_interval_);
  }

 private:
  // The mean of a histogram row's middle half of samples, in raw ns; mu_
  // held.
  double CentralMeanNs(size_t row) const;

  const uint32_t sample_interval_;
  double timer_overhead_ns_ = 0.0;
  std::atomic<uint64_t> phase_counter_{0};

  mutable std::mutex mu_;
  uint64_t dispatches_ = 0;
  uint64_t samples_ = 0;
  std::array<uint64_t, kVmOpCount> hits_{};
  std::vector<uint64_t> op_costs_;  // (kVmOpCount + 1) x kVmCostBuckets
  struct SiteAgg {
    uint8_t op = 0;
    uint64_t samples = 0;
    uint64_t est_ns = 0;
  };
  std::map<std::pair<std::string, uint32_t>, SiteAgg> sites_;
};

// Human-readable hot-op / hot-site tables (eilc profile, serve --journal).
std::string FormatVmProfile(const VmProfiler::Snapshot& snap,
                            size_t top_n = 10);

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_VM_PROFILE_H_
