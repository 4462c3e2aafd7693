#include "src/obs/budget.h"

#include <bit>

#include "src/obs/metrics.h"

namespace eclarity {
namespace {

// Calibration runs in short batches and keeps the *minimum* per-iteration
// cost: a single preemption inside one long averaging loop would inflate
// the calibrated cost severalfold and overcharge the obs side of the
// budget for the whole process lifetime. The min over batches is the
// standard noise-rejecting estimator for a cost with one-sided noise.
// Total calibration stays < 100us, invisible at process start.
constexpr int kCalibrationBatches = 16;
constexpr int kCalibrationBatchIters = 256;

double MeasureClockReadNs() {
  double best = 1e18;
  uint64_t sink = 0;
  for (int b = 0; b < kCalibrationBatches; ++b) {
    const uint64_t t0 = ObsNowNs();
    for (int i = 0; i < kCalibrationBatchIters; ++i) {
      sink += ObsNowNs();
    }
    const uint64_t t1 = ObsNowNs();
    const double per = static_cast<double>(t1 - t0) / kCalibrationBatchIters;
    best = per < best ? per : best;
  }
  // Keep the loop alive without <benchmark> helpers.
  if (sink == 0) {
    return 0.0;
  }
  return best;
}

double MeasureSamplerTickNs() {
  double best = 1e18;
  bool sink = false;
  for (int b = 0; b < kCalibrationBatches; ++b) {
    const uint64_t t0 = ObsNowNs();
    for (int i = 0; i < kCalibrationBatchIters; ++i) {
      sink ^= ObsSampler::Tick(1u << 30, 0);
    }
    const uint64_t t1 = ObsNowNs();
    const double per = static_cast<double>(t1 - t0) / kCalibrationBatchIters;
    best = per < best ? per : best;
  }
  if (sink) {
    ObsSampler::EndSample();
  }
  ObsSampler::ResetThread();
  return best;
}

}  // namespace

ObsBudget::ObsBudget() {
  clock_read_ns_ = MeasureClockReadNs();
  sampler_tick_ns_ = MeasureSamplerTickNs();
}

ObsBudget& ObsBudget::Global() {
  static ObsBudget* budget = new ObsBudget();
  return *budget;
}

void ObsBudget::AtomicAdd(Bits& bits, double delta) {
  uint64_t cur = bits.load(std::memory_order_relaxed);
  double next;
  do {
    next = std::bit_cast<double>(cur) + delta;
  } while (!bits.compare_exchange_weak(cur, std::bit_cast<uint64_t>(next),
                                       std::memory_order_relaxed));
}

double ObsBudget::Load(const Bits& bits) {
  return std::bit_cast<double>(bits.load(std::memory_order_relaxed));
}

void ObsBudget::Publish() const {
  static Gauge& gauge = MetricsRegistry::Global().GetGauge(
      "eclarity_obs_overhead_ratio",
      "Self-accounted telemetry cost as a fraction of observed work");
  gauge.Set(OverheadRatio());
}

}  // namespace eclarity
