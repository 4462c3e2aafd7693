#include "src/eval/vm_profile.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "src/eval/bytecode.h"
#include "src/obs/budget.h"

namespace eclarity {
namespace {

double MeasureTimerOverheadNs() {
  constexpr int kIters = 4096;
  uint64_t acc = 0;
  for (int i = 0; i < kIters; ++i) {
    const uint64_t t0 = ObsNowNs();
    const uint64_t t1 = ObsNowNs();
    acc += t1 - t0;
  }
  return static_cast<double>(acc) / kIters;
}

std::string FormatNs(double ns) {
  char buf[32];
  if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

constexpr uint64_t kExactBelow = 128;  // 2^kExactBits
constexpr int kExactBits = 7;
constexpr int kSubBits = 3;  // 8 buckets per octave

size_t VmCostBucket(uint64_t delta_ns) {
  if (delta_ns < kExactBelow) {
    return static_cast<size_t>(delta_ns);
  }
  const int octave = std::bit_width(delta_ns) - 1;  // >= kExactBits
  const size_t sub =
      (delta_ns >> (octave - kSubBits)) & ((size_t{1} << kSubBits) - 1);
  const size_t bucket = kExactBelow +
                        (static_cast<size_t>(octave - kExactBits) << kSubBits) +
                        sub;
  return std::min(bucket, kVmCostBuckets - 1);
}

// The midpoint of a bucket's range, in raw ns.
double VmCostBucketMid(size_t bucket) {
  if (bucket < kExactBelow) {
    return static_cast<double>(bucket);
  }
  const size_t rel = bucket - kExactBelow;
  const int octave = kExactBits + static_cast<int>(rel >> kSubBits);
  const double width = std::ldexp(1.0, octave - kSubBits);
  const double lo = std::ldexp(1.0, octave) +
                    static_cast<double>(rel & ((size_t{1} << kSubBits) - 1)) *
                        width;
  return lo + (width - 1.0) / 2.0;
}

}  // namespace

uint32_t VmCostKey(size_t row, uint64_t delta_ns) {
  return static_cast<uint32_t>(row * kVmCostBuckets + VmCostBucket(delta_ns));
}

VmProfiler::VmProfiler(uint32_t sample_interval)
    : sample_interval_(sample_interval == 0 ? 1 : sample_interval),
      timer_overhead_ns_(MeasureTimerOverheadNs()),
      op_costs_((kVmOpCount + 1) * kVmCostBuckets, 0) {}

void VmProfiler::Merge(const VmLocalProfile& local,
                       const BytecodeProgram& bc) {
  if (local.empty()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    dispatches_ += local.dispatches;
    samples_ += local.samples;
    for (size_t i = 0; i < kVmOpCount; ++i) {
      hits_[i] += local.hits[i];
    }
    for (const auto& [key, count] : local.op_costs) {
      op_costs_[key] += count;
    }
    for (const auto& [pc, site] : local.sites) {
      const std::string name = site.iface < bc.ifaces_.size()
                                   ? bc.ifaces_[site.iface].src->decl->name
                                   : std::string();
      SiteAgg& agg = sites_[{name, pc}];
      agg.op = site.op;
      agg.samples += site.samples;
      agg.est_ns += site.est_ns;
    }
  }
  // The profiled loop's extra work is telemetry: three clock reads per
  // sample plus a counter/countdown update per dispatch (approximated by
  // the calibrated sampler-tick cost — same shape: decrement and branch).
  ObsBudget& budget = ObsBudget::Global();
  budget.AddObsNs(static_cast<double>(local.samples) *
                      (3.0 * budget.clock_read_ns()) +
                  static_cast<double>(local.dispatches) *
                      budget.sampler_tick_ns());
}

VmProfiler::Snapshot VmProfiler::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.dispatches = dispatches_;
  snap.samples = samples_;
  snap.sample_interval = sample_interval_;
  for (size_t i = 0; i < kVmOpCount; ++i) {
    if (hits_[i] == 0) {
      continue;
    }
    OpStat stat;
    stat.op = static_cast<uint8_t>(i);
    stat.hits = hits_[i];
    const double cost = CentralMeanNs(i) - CentralMeanNs(kVmTimerRow);
    stat.est_ns = static_cast<uint64_t>(static_cast<double>(hits_[i]) *
                                        std::max(cost, 0.0));
    snap.ops.push_back(stat);
  }
  std::sort(snap.ops.begin(), snap.ops.end(),
            [](const OpStat& x, const OpStat& y) {
              return x.est_ns != y.est_ns ? x.est_ns > y.est_ns
                                          : x.hits > y.hits;
            });
  std::map<std::string, IfaceStat> per_iface;
  for (const auto& [key, agg] : sites_) {
    SiteStat stat;
    stat.iface = key.first;
    stat.pc = key.second;
    stat.op = agg.op;
    stat.samples = agg.samples;
    stat.est_ns = agg.est_ns;
    snap.sites.push_back(std::move(stat));
    IfaceStat& iface = per_iface[key.first];
    iface.iface = key.first;
    iface.samples += agg.samples;
    iface.est_ns += agg.est_ns;
  }
  std::sort(snap.sites.begin(), snap.sites.end(),
            [](const SiteStat& x, const SiteStat& y) {
              return x.est_ns > y.est_ns;
            });
  for (auto& [name, stat] : per_iface) {
    (void)name;
    snap.ifaces.push_back(std::move(stat));
  }
  std::sort(snap.ifaces.begin(), snap.ifaces.end(),
            [](const IfaceStat& x, const IfaceStat& y) {
              return x.est_ns > y.est_ns;
            });
  return snap;
}

double VmProfiler::CentralMeanNs(size_t row) const {
  const uint64_t* hist = op_costs_.data() + row * kVmCostBuckets;
  uint64_t total = 0;
  for (size_t b = 0; b < kVmCostBuckets; ++b) {
    total += hist[b];
  }
  if (total == 0) {
    return 0.0;
  }
  // Mean of the samples ranked in [total/4, 3*total/4): the middle half,
  // so a deschedule in the top quarter (or a clock hiccup in the bottom)
  // cannot move it, while sub-ns differences between ops still count.
  const double lo = static_cast<double>(total) / 4.0;
  const double hi = 3.0 * static_cast<double>(total) / 4.0;
  double below = 0.0;  // samples in earlier buckets
  double sum = 0.0;
  double weight = 0.0;
  for (size_t b = 0; b < kVmCostBuckets && below < hi; ++b) {
    const double n = static_cast<double>(hist[b]);
    const double take = std::min(below + n, hi) - std::max(below, lo);
    if (take > 0.0) {
      sum += take * VmCostBucketMid(b);
      weight += take;
    }
    below += n;
  }
  return sum / weight;
}

void VmProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  dispatches_ = 0;
  samples_ = 0;
  hits_.fill(0);
  std::fill(op_costs_.begin(), op_costs_.end(), 0);
  sites_.clear();
}

std::string FormatVmProfile(const VmProfiler::Snapshot& snap, size_t top_n) {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "dispatches:   %" PRIu64 " (%" PRIu64
                " sampled, 1 in %u)\n",
                snap.dispatches, snap.samples, snap.sample_interval);
  out += line;
  out += "hot ops:        hits          est-time    per-hit\n";
  for (size_t i = 0; i < snap.ops.size() && i < top_n; ++i) {
    const auto& op = snap.ops[i];
    const double per_hit =
        op.hits > 0 ? static_cast<double>(op.est_ns) / op.hits : 0.0;
    std::snprintf(line, sizeof(line), "  %-14s %-13" PRIu64 " %-11s %s\n",
                  VmOpName(op.op), op.hits,
                  FormatNs(static_cast<double>(op.est_ns)).c_str(),
                  FormatNs(per_hit).c_str());
    out += line;
  }
  out += "hot sites:      interface                 pc      samples  est-time\n";
  for (size_t i = 0; i < snap.sites.size() && i < top_n; ++i) {
    const auto& site = snap.sites[i];
    std::snprintf(line, sizeof(line),
                  "  %-14s %-25s %-7u %-8" PRIu64 " %s\n", VmOpName(site.op),
                  site.iface.c_str(), site.pc, site.samples,
                  FormatNs(static_cast<double>(site.est_ns)).c_str());
    out += line;
  }
  out += "interfaces:     samples       est-time\n";
  for (size_t i = 0; i < snap.ifaces.size() && i < top_n; ++i) {
    const auto& iface = snap.ifaces[i];
    std::snprintf(line, sizeof(line), "  %-25s %-13" PRIu64 " %s\n",
                  iface.iface.c_str(), iface.samples,
                  FormatNs(static_cast<double>(iface.est_ns)).c_str());
    out += line;
  }
  return out;
}

}  // namespace eclarity
