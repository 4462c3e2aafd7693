// Lock-cheap metrics for the eclarity toolkit.
//
// The paper's thesis is that energy behaviour must be *legible*; the
// RAPL-overhead literature adds that the monitoring itself must be cheap and
// its cost known. This registry follows both rules: metric updates are single
// relaxed atomic operations (no locks, no allocation), registration and
// export take a mutex but happen off the hot path, and everything is
// observable as JSON or Prometheus text.
//
// Usage:
//   Counter& hits = MetricsRegistry::Global().GetCounter(
//       "eclarity_svc_cache_hits_total", "QueryService fold-cache hits");
//   hits.Increment();
//
// Hot paths should resolve the Counter& once (function-local static or
// member) and only touch the atomic afterwards.

#ifndef ECLARITY_SRC_OBS_METRICS_H_
#define ECLARITY_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/latency.h"

namespace eclarity {

// Monotonically increasing event count. Each thread increments its own
// cache-line-sized cell and value() sums them, so concurrent writers never
// contend on one line, and a counter's cost does not depend on which heap
// objects happen to share its line.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    cells_[ThreadCell()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t sum = 0;
    for (const Cell& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void Reset() {
    for (Cell& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  // Threads past kCells share cells round-robin; sums stay exact.
  static constexpr size_t kCells = 16;
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  static size_t ThreadCell() {
    static std::atomic<size_t> next{0};
    thread_local const size_t cell =
        next.fetch_add(1, std::memory_order_relaxed) % kCells;
    return cell;
  }
  std::array<Cell, kCells> cells_;
};

// Last-written scalar (cache sizes, error rates, alarm flags).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram; bucket bounds are upper bounds, with an implicit
// +inf bucket. Observations are two relaxed atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  // Cumulative count of observations <= bounds()[i]; the final entry is the
  // total count (+inf bucket included).
  std::vector<uint64_t> CumulativeCounts() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // size bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Exponential bucket bounds: start, start*factor, ... (count bounds).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

// Linear bucket bounds: start, start+width, ... (count bounds).
std::vector<double> LinearBuckets(double start, double width, size_t count);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry the toolkit's built-in instrumentation uses.
  static MetricsRegistry& Global();

  // Returns the metric registered under `name`, creating it on first use.
  // References stay valid for the registry's lifetime. `help` is recorded on
  // first registration only (for a counter, the first that supplies one).
  // Requesting an existing name as a different metric kind returns a dummy
  // metric (never null) and logs nothing — the exporter keeps the original.
  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  Histogram& GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds);
  // HDR-style nanosecond latency histogram (src/obs/latency.h): exported
  // with p50/p90/p99/p99.9 in JSON and as a Prometheus summary.
  LatencyHistogram& GetLatencyHistogram(const std::string& name,
                                        const std::string& help = "");

  // All registered metrics as one JSON object:
  //   {"counters":{...},"gauges":{...},"histograms":{...},"latency":{...}}
  std::string ToJson() const;

  // Prometheus text exposition format (counters, gauges, and histograms
  // with _bucket/_sum/_count series).
  std::string ToPrometheusText() const;

  // Zeroes every registered metric (tests). Registrations are kept, so
  // cached references stay valid.
  void ResetAll();

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<LatencyHistogram> latency;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

// A built-in metric table is declared once, as a list macro with one row
// per metric (line continuations omitted here):
//
//   #define ECLARITY_FOO_METRICS(COUNTER, HISTOGRAM)
//     COUNTER(hits, "eclarity_foo_hits_total", "cache hits")
//     HISTOGRAM(bytes, "eclarity_foo_bytes", "entry size (bytes)",
//               LinearBuckets(0.0, 64.0, 16))
//
// Expanded with the *_MEMBER macros, the list declares the table's
// reference members; expanded with the *_LOOKUP macros inside the table's
// aggregate initializer, it resolves them from the global registry in the
// same order.
#define ECLARITY_COUNTER_MEMBER(member, name, help) Counter& member;
#define ECLARITY_COUNTER_LOOKUP(member, name, help) \
  MetricsRegistry::Global().GetCounter(name, help),
#define ECLARITY_HISTOGRAM_MEMBER(member, name, help, buckets) \
  Histogram& member;
#define ECLARITY_HISTOGRAM_LOOKUP(member, name, help, buckets) \
  MetricsRegistry::Global().GetHistogram(name, help, buckets),

}  // namespace eclarity

#endif  // ECLARITY_SRC_OBS_METRICS_H_
