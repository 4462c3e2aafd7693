#include "perfbench/src/bench.h"

namespace perfbench {

double LatencyHist::QuantileNs(double q) const {
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const uint64_t c = counts_[i];
    if (c == 0) {
      continue;
    }
    if (rank < static_cast<double>(below + c)) {
      double lo = static_cast<double>(i);
      double width = 1.0;
      if (i >= kSub) {
        width = static_cast<double>(uint64_t{1} << (i / kSub - 1));
        lo = static_cast<double>(kSub + i % kSub) * width;
      }
      const double frac =
          (rank - static_cast<double>(below) + 0.5) / static_cast<double>(c);
      return lo + frac * width;
    }
    below += c;
  }
  return 0.0;
}

void ClientStats::Merge(const ClientStats& o) {
  latency.Merge(o.latency);
  for (int k = 0; k < kCallKinds; ++k) {
    by_kind[k].Merge(o.by_kind[k]);
    calls[k] += o.calls[k];
    busy_ns[k] += o.busy_ns[k];
    queries_by_kind[k] += o.queries_by_kind[k];
  }
  queries += o.queries;
  failed += o.failed;
}

uint64_t ClientStats::total_busy_ns() const {
  uint64_t n = 0;
  for (uint64_t b : busy_ns) {
    n += b;
  }
  return n;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) {
    return v[mid];
  }
  const double hi = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2.0;
}

}  // namespace perfbench
