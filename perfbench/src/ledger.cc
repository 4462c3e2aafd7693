#include "perfbench/src/ledger.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "src/dist/distribution.h"
#include "src/eval/batch.h"
#include "src/eval/bytecode.h"
#include "src/eval/lower.h"
#include "src/lang/checker.h"
#include "src/lang/parser.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using eclarity::Atom;
using eclarity::BatchPlan;
using eclarity::BytecodeProgram;
using eclarity::Distribution;
using eclarity::EvalOptions;
using eclarity::Evaluator;
using eclarity::LoweredProgram;
using eclarity::WeightedOutcome;

constexpr int kSetupReps = 15;
constexpr int kProbeReps = 31;
constexpr int kBlock = 1000;

// The service's exact fold: outcomes to Joules, the canonical categorical
// distribution, its mean.
double Fold(const std::vector<WeightedOutcome>& outcomes) {
  std::vector<Atom> atoms;
  atoms.reserve(outcomes.size());
  for (const WeightedOutcome& o : outcomes) {
    auto joules = eclarity::OutcomeJoules(o.value, nullptr);
    atoms.push_back({joules.ok() ? *joules : 0.0, o.probability});
  }
  auto dist = Distribution::Categorical(std::move(atoms));
  return dist.ok() ? dist->Mean() : 0.0;
}

const char* EnumerateSpan(const std::string& entry) {
  return entry == kGpt2Entry ? "eval.enumerate.gpt2" : "eval.enumerate.fig1";
}

Query Fig1Query(double image_size, double n_zeros) {
  Query q;
  q.interface = kFig1Entry;
  q.args = {Value::Number(image_size), Value::Number(n_zeros)};
  return q;
}

// Four base profiles that differ in local_cache_hit, for the publish probe.
std::vector<EcvProfile> PublishProfiles() {
  std::vector<EcvProfile> profiles(4);
  const double p[4] = {0.8, 0.6, 0.4, 0.2};
  for (int i = 0; i < 4; ++i) {
    profiles[i].SetBernoulli("local_cache_hit", p[i]);
  }
  return profiles;
}

template <typename F>
double TimeNs(F&& f) {
  const uint64_t t0 = NowNs();
  f();
  return static_cast<double>(NowNs() - t0);
}

}  // namespace

ProbeCosts RunProbes(const Workload& workload,
                     const std::vector<std::string>& sources,
                     const Program& program) {
  const std::vector<EcvProfile> profiles = workload.base_profiles();
  std::vector<double> parse, check, lower, compile, specialize;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::vector<eclarity::Result<Program>> parsed;
    parse.push_back(TimeNs([&] {
      for (const std::string& text : sources) {
        parsed.push_back(eclarity::ParseProgram(text));
      }
    }));
    check.push_back(TimeNs([&] {
      for (const auto& p : parsed) {
        if (p.ok()) {
          (void)eclarity::CheckProgramOk(*p);
        }
      }
    }));
    std::unique_ptr<LoweredProgram> lowered;
    lower.push_back(TimeNs([&] {
      lowered = std::make_unique<LoweredProgram>(LoweredProgram::Lower(
          program, EvalOptions().max_ecv_support));
    }));
    compile.push_back(
        TimeNs([&] { (void)BytecodeProgram::Compile(*lowered); }));
    Evaluator evaluator(program);
    specialize.push_back(
        TimeNs([&] { evaluator.PrepareSpecialized(profiles[0]); }));
  }

  ProbeCosts costs;
  costs.parse_us = Median(parse) / 1e3;
  costs.check_us = Median(check) / 1e3;
  costs.lower_us = Median(lower) / 1e3;
  costs.compile_us = Median(compile) / 1e3;
  costs.specialize_us = Median(specialize) / 1e3;

  auto created = QueryService::Create(program.Clone(), {}, profiles[0]);
  if (!created.ok()) {
    std::fprintf(stderr, "probe service: %s\n",
                 created.status().ToString().c_str());
    return costs;
  }
  QueryService& svc = **created;

  std::vector<double> pin, hit;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    pin.push_back(TimeNs([&] {
                    for (int i = 0; i < kBlock; ++i) {
                      (void)svc.AcquireSnapshot();
                    }
                  }) /
                  kBlock);
  }
  const Query warm = Fig1Query(50176, 10000);
  (void)svc.Expected(warm);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    hit.push_back(TimeNs([&] {
                    for (int i = 0; i < kBlock; ++i) {
                      (void)svc.Expected(warm);
                    }
                  }) /
                  kBlock);
  }
  costs.snapshot_pin_ns = Median(pin);
  costs.hit_ns = Median(hit);

  // A fresh key costs key build + miss + enumerate + fold + insert; the
  // enumerate and fold are timed again on a side evaluator and subtracted.
  EvalOptions side_options;
  side_options.enum_cache_capacity = 0;
  Evaluator side(program, side_options);
  side.PrepareSpecialized(profiles[0]);
  std::vector<double> overhead;
  for (int i = 0; i < 10 * kProbeReps; ++i) {
    const Query q = Fig1Query(7.5e7 + i, 1000 + i);
    const double miss = TimeNs([&] { (void)svc.Expected(q); });
    eclarity::Result<std::vector<WeightedOutcome>> outcomes =
        std::vector<WeightedOutcome>();
    const double enumerate = TimeNs(
        [&] { outcomes = side.Enumerate(q.interface, q.args, profiles[0]); });
    const double fold = TimeNs([&] {
      if (outcomes.ok()) {
        (void)Fold(*outcomes);
      }
    });
    overhead.push_back(miss - enumerate - fold);
  }
  costs.miss_overhead_us = Median(overhead) / 1e3;

  std::vector<double> mc;
  for (int rep = 0; rep < 3 * kProbeReps; ++rep) {
    Query q = warm;
    q.kind = QueryKind::kMonteCarlo;
    q.samples = 256;
    q.seed = static_cast<uint64_t>(rep);
    mc.push_back(TimeNs([&] { (void)svc.MonteCarlo(q); }));
  }
  costs.mc_us = Median(mc) / 1e3;

  const std::vector<EcvProfile> publish = PublishProfiles();
  std::vector<double> update;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    EcvProfile next = publish[static_cast<size_t>(rep) % publish.size()];
    update.push_back(TimeNs([&] { svc.UpdateProfile(std::move(next)); }));
  }
  costs.publish_us = Median(update) / 1e3;
  return costs;
}

Replayer::Replayer(const Program& program,
                   const std::vector<EcvProfile>& profiles)
    : profiles_(profiles) {
  EvalOptions options;
  options.enum_cache_capacity = 0;
  for (const EcvProfile& profile : profiles_) {
    side_.push_back(std::make_unique<Evaluator>(program, options));
    side_.back()->PrepareSpecialized(profile);
  }
}

void Replayer::Replay(const Request& req, size_t profile, uint64_t request_id,
                      SpanLog& log) const {
  const Evaluator& ev = *side_[profile];
  const EcvProfile& base = profiles_[profile];
  const int64_t root =
      log.Add({"ledger.replay", NowNs(), 0, -1, request_id, 1}, false);
  auto child = [&](const char* name, uint64_t t0, uint64_t items) {
    log.Add({name, t0, NowNs(), root, request_id, items}, false);
  };
  if (!req.is_batch) {
    const Query& q = req.single;
    EcvProfile merged;
    const EcvProfile* effective = &base;
    if (!q.profile.empty()) {
      merged = base;
      merged.MergeFrom(q.profile);
      effective = &merged;
    }
    if (q.kind == QueryKind::kMonteCarlo) {
      eclarity::Rng rng(q.seed);
      const uint64_t t0 = NowNs();
      for (size_t s = 0; s < q.samples; ++s) {
        (void)ev.EvalSampled(q.interface, q.args, *effective, rng);
      }
      child("eval.sample", t0, q.samples);
    } else {
      const uint64_t t0 = NowNs();
      auto outcomes = ev.Enumerate(q.interface, q.args, *effective);
      child(EnumerateSpan(q.interface), t0, 1);
      if (outcomes.ok()) {
        const uint64_t t1 = NowNs();
        (void)Fold(*outcomes);
        child("dist.fold", t1, 1);
      }
    }
  } else {
    // The service groups batch items by effective profile; so does this.
    std::map<std::string, std::vector<const Query*>> groups;
    for (const Query& q : req.batch) {
      groups[q.profile.Fingerprint()].push_back(&q);
    }
    for (const auto& [fingerprint, items] : groups) {
      EcvProfile merged = base;
      merged.MergeFrom(items[0]->profile);
      std::vector<const std::vector<Value>*> lanes;
      for (const Query* q : items) {
        lanes.push_back(&q->args);
      }
      BatchPlan plan(ev, items[0]->interface);
      const uint64_t t0 = NowNs();
      (void)plan.EnumerateFold(lanes, merged, nullptr);
      child("eval.batch_lanes", t0, lanes.size());
    }
  }
  log.SetEnd(root, NowNs());
}

std::map<std::string, std::vector<double>> PerItemDurations(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, std::vector<double>> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                            static_cast<double>(s.items));
    }
  }
  return out;
}

ReplayTotals ReplayCosts(const std::vector<const SpanLog*>& logs) {
  ReplayTotals totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (size_t r = 0; r < spans.size(); ++r) {
      if (std::string(spans[r].name) != "ledger.replay") {
        continue;
      }
      double exact = 0, mc = 0, batch = 0;
      // A replay's children follow it directly in its thread's span list.
      for (size_t c = r + 1;
           c < spans.size() && spans[c].parent == static_cast<int64_t>(r);
           ++c) {
        const double d =
            static_cast<double>(spans[c].end_ns - spans[c].start_ns);
        const std::string name = spans[c].name;
        if (name == "eval.sample") {
          mc += d;
        } else if (name == "eval.batch_lanes") {
          batch += d;
        } else {
          exact += d;
        }
      }
      if (mc > 0) {
        totals.mc_ns.push_back(mc);
      } else if (batch > 0) {
        totals.batch_ns.push_back(batch);
      } else {
        totals.exact_ns.push_back(exact);
      }
    }
  }
  return totals;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      out << "{\"thread\":" << t << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"items\":" << s.items << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
