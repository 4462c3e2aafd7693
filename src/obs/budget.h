// Self-accounted telemetry overhead.
//
// The RAPL-overhead literature shows energy monitoring can quietly dominate
// the thing it measures; ROADMAP item 5 budgets all toolkit telemetry at
// <1% of useful work. ObsBudget makes that budget *measurable*: every
// instrumentation site charges its cost here (directly timed where the site
// already holds timestamps, or as calibrated per-operation estimates where
// a clock read would itself be the dominant cost), and every sampled
// observation of real work credits the work side. The ratio is exported as
// the `eclarity_obs_overhead_ratio` gauge and is asserted < 0.01 by a
// dedicated test, a bench-guard check, and the CI serve smoke.
//
// ObsSampler holds the 1-in-N per-thread sampling gates used by the
// query-service spans and latency histograms: unsampled queries pay one
// thread-local decrement and branch, no clock reads. Each query kind counts
// down on its own gate, so a traffic mix whose period divides N still
// samples every kind it carries.

#ifndef ECLARITY_SRC_OBS_BUDGET_H_
#define ECLARITY_SRC_OBS_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace eclarity {

inline uint64_t ObsNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class ObsBudget {
 public:
  // Leaked singleton; calibrates per-operation costs on first use.
  static ObsBudget& Global();

  // Calibrated cost of one ObsNowNs() read / one ObsSampler tick, in ns.
  double clock_read_ns() const { return clock_read_ns_; }
  double sampler_tick_ns() const { return sampler_tick_ns_; }

  // Credits `ns` of real (non-telemetry) work. Sampled sites pass
  // duration * sample_interval so the credit estimates the whole stream.
  void AddWorkNs(double ns) { AtomicAdd(work_ns_, ns); }
  // Charges `ns` of instrumentation cost (journal writes, metric updates,
  // profiler sampling, and the clock reads spent measuring them).
  void AddObsNs(double ns) { AtomicAdd(obs_ns_, ns); }

  double WorkNs() const { return Load(work_ns_); }
  double ObsNs() const { return Load(obs_ns_); }

  // Instrumentation cost as a fraction of observed real work. 0 until any
  // work has been credited.
  double OverheadRatio() const {
    const double work = WorkNs();
    return work > 0.0 ? ObsNs() / work : 0.0;
  }

  // Writes the current ratio to the eclarity_obs_overhead_ratio gauge.
  void Publish() const;

  void Reset() {
    work_ns_.store(0, std::memory_order_relaxed);
    obs_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  ObsBudget();

  using Bits = std::atomic<uint64_t>;
  static void AtomicAdd(Bits& bits, double delta);
  static double Load(const Bits& bits);

  Bits work_ns_{0};
  Bits obs_ns_{0};
  double clock_read_ns_ = 0.0;
  double sampler_tick_ns_ = 0.0;
};

class ObsSampler {
 public:
  // Independent countdowns per thread (QueryService uses one per QueryKind).
  static constexpr size_t kGates = 4;

  // True on every `interval`-th call from this thread on `gate` (first true
  // after `interval` calls on it). interval == 0 disables sampling entirely.
  static bool Tick(uint32_t interval, size_t gate) {
    if (interval == 0) {
      return false;
    }
    State& s = TlState();
    uint32_t& countdown = s.countdown[gate];
    if (countdown == 0) {
      countdown = interval;
    }
    if (--countdown == 0) {
      countdown = interval;
      s.active = true;
      return true;
    }
    return false;
  }

  // True between a sampling Tick() and the matching EndSample(); lets
  // downstream phases of the same operation record spans without
  // re-deciding (or re-randomizing) the sampling choice.
  static bool Active() { return TlState().active; }
  static void EndSample() { TlState().active = false; }

  // Test hook: restores this thread's deterministic initial state so
  // replayed workloads sample (and journal) identically.
  static void ResetThread() { TlState() = State{}; }

 private:
  struct State {
    uint32_t countdown[kGates] = {};
    bool active = false;
  };
  static State& TlState() {
    thread_local State state;
    return state;
  }
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_OBS_BUDGET_H_
