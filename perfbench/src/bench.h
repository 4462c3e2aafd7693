// Shared pieces of the eclarity query benchmark: the seeded request-log
// hash, the every-call latency histogram, client-side call accounting and
// the in-memory span recorder of the traced run.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/eval/ecv_profile.h"
#include "src/lang/ast.h"
#include "src/svc/query_service.h"

namespace perfbench {

using eclarity::EcvProfile;
using eclarity::Program;
using eclarity::Query;
using eclarity::QueryKind;
using eclarity::QueryOutcome;
using eclarity::QueryService;
using eclarity::Value;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64's finalizer: a bijection on 64-bit values.
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The request log's randomness: a pure function of (seed, salt, index), so
// any request can be regenerated after timing for the oracle and the replay.
inline uint64_t LogHash(uint64_t seed, uint64_t salt, uint64_t index) {
  return Mix(Mix(seed ^ Mix(salt)) ^ index);
}

// Nanosecond latency histogram that records every call. Values below 128 ns
// get 1 ns buckets; above, each power of two up to 2^40 ns is split into 128
// buckets (< 0.8% relative width). Quantiles interpolate by rank inside a
// bucket.
class LatencyHist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kMaxBits = 40;

  LatencyHist() : counts_((kMaxBits - kSubBits + 1) * kSub, 0) {}

  void Record(uint64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
  }
  void Merge(const LatencyHist& other) {
    for (size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }

  // Value at rank q * (count - 1), in ns. Requires count() > 0.
  double QuantileNs(double q) const;
  // Samples strictly above the q-quantile's rank.
  uint64_t BeyondQuantile(double q) const {
    const double rank = q * static_cast<double>(count_ - 1);
    return count_ - 1 - static_cast<uint64_t>(rank);
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    v = std::min(v, (uint64_t{1} << kMaxBits) - 1);
    const int e = 63 - __builtin_clzll(v);  // >= kSubBits
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<size_t>((e - kSubBits + 1) * kSub + sub);
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

// Client-visible call kinds: the three single-query kinds plus batch calls.
enum CallKind { kCallExpected, kCallDistribution, kCallMonteCarlo, kCallBatch,
                kCallKinds };
inline const char* CallKindName(int kind) {
  static const char* const kNames[kCallKinds] = {"expected", "distribution",
                                                 "montecarlo", "batch"};
  return kNames[kind];
}

// One client's accounting for one timed phase.
struct ClientStats {
  LatencyHist latency;                        // every timed call
  std::array<LatencyHist, kCallKinds> by_kind;
  std::array<uint64_t, kCallKinds> calls{};   // calls per kind
  std::array<uint64_t, kCallKinds> busy_ns{};  // client-timed time per kind
  // Queries per single-query kind, counting batch items by their own kind.
  std::array<uint64_t, kCallKinds> queries_by_kind{};
  uint64_t queries = 0;  // single calls plus batch items
  uint64_t failed = 0;   // queries answered with a non-OK status

  void Record(int kind, uint64_t ns, uint64_t items, uint64_t bad) {
    latency.Record(ns);
    by_kind[kind].Record(ns);
    ++calls[kind];
    busy_ns[kind] += ns;
    queries += items;
    failed += bad;
  }
  void Merge(const ClientStats& o);
  uint64_t total_busy_ns() const;
};

// A request regenerated from the log: one single query or one batch.
struct Request {
  bool is_batch = false;
  Query single;
  std::vector<Query> batch;
};

// What the traced run keeps for each span. Spans of one request share
// `request`; `parent` is an index into the same thread's span list, or -1.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  uint64_t items = 1;  // work items the span covers (samples, lanes)
};

// Per-thread span list. Replay spans (rare) are always kept; top-level call
// spans are kept up to a cap, and every one is still counted in the
// client's ClientStats.
class SpanLog {
 public:
  static constexpr size_t kTopLevelCap = 1 << 11;

  int64_t Add(const Span& span, bool top_level) {
    if (top_level) {
      if (top_level_kept_ >= kTopLevelCap) {
        ++top_level_dropped_;
        return -1;
      }
      ++top_level_kept_;
    }
    spans_.push_back(span);
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void SetEnd(int64_t i, uint64_t end_ns) { spans_[i].end_ns = end_ns; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t top_level_dropped() const { return top_level_dropped_; }

 private:
  std::vector<Span> spans_;
  size_t top_level_kept_ = 0;
  uint64_t top_level_dropped_ = 0;
};

// Median of a sample (copies; callers pass small vectors).
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
