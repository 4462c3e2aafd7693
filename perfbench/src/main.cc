// eclarity query benchmark driver.
//
//   eclarity_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--root REPO_ROOT]
//
// Runs one workload in this process against a QueryService built with the
// default QueryServiceOptions{} (the settings `eilc serve` ships), checks
// the answers it timed, and prints one JSON result as its last line. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 the per-layer
// ledger (see perfbench/README.md for every metric's definition).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "perfbench/src/bench.h"
#include "perfbench/src/ledger.h"
#include "perfbench/src/workloads.h"
#include "src/lang/checker.h"
#include "src/lang/parser.h"
#include "src/obs/budget.h"
#include "src/obs/metrics.h"

namespace perfbench {
namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

// Each run is a sequence of short rounds; every round runs each of the
// workload's phases once (e.g. 1 client, the main client count, 4 clients).
// End-to-end figures are medians over rounds, and ratios pair phases of the
// same round, so a burst of outside load moves few rounds and a slow drift
// in the machine's speed moves both sides of a ratio alike.
constexpr double kRoundSeconds = 1.5;
// Set-ups timed after each round of an untraced run, so set-up time is
// sampled across the whole run as well.
constexpr int kSetupsPerRound = 8;
// Audits per client and phase: the first calls of each client in the first
// round, plus a seeded reservoir over a 1-in-kAuditOneIn subset.
constexpr uint64_t kAuditFirst = 64;
constexpr uint64_t kAuditReservoir = 16;
constexpr uint64_t kAuditOneIn = 256;
// Publication period of the writer thread.
constexpr auto kWriterPeriod = std::chrono::milliseconds(10);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) {
    return false;
  }
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        return false;
      }
      a.trace = v == "1";
    } else if (flag == "--root") {
      a.root = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && a.seconds <= 120;
}

struct Loaded {
  std::vector<std::string> texts;
  Program program;
};

// Reads, parses and checks the workload's sources and merges them.
eclarity::Result<Loaded> Load(const std::string& root, const Workload& wl) {
  Loaded out;
  for (const std::string& rel : wl.sources()) {
    std::ifstream in(root + "/" + rel);
    if (!in) {
      return eclarity::NotFoundError("cannot open '" + rel + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    out.texts.push_back(text.str());
    ECLARITY_ASSIGN_OR_RETURN(Program p,
                              eclarity::ParseProgram(out.texts.back()));
    ECLARITY_RETURN_IF_ERROR(eclarity::CheckProgramOk(p));
    ECLARITY_RETURN_IF_ERROR(out.program.Merge(p));
  }
  return out;
}

int KindIndex(QueryKind kind) {
  switch (kind) {
    case QueryKind::kDistribution:
      return kCallDistribution;
    case QueryKind::kMonteCarlo:
      return kCallMonteCarlo;
    default:
      return kCallExpected;
  }
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// An audited call: its request is regenerated from (client, index).
struct Audit {
  uint64_t client = 0;
  uint64_t index = 0;
  std::vector<std::string> fingerprints;  // empty: a query failed
};

enum Role { kRoleOne, kRoleMain, kRoleFour, kRoleUntraced };

struct PhaseSpec {
  Role role = kRoleMain;
  size_t clients = 1;
  double seconds = 1;
  bool traced = false;
  bool audit_first = false;  // audit the first kAuditFirst calls
  uint64_t base = 0;         // first request index of every client
};

// What a client keeps past its phase; its ClientStats are merged into the
// phase's role totals and released.
struct ClientOut {
  std::vector<Audit> audits;
  SpanLog spans;
};

struct PhaseOut {
  PhaseSpec spec;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  uint64_t beyond_p999 = 0;
  std::vector<std::unique_ptr<ClientOut>> clients;

  double qps() const { return static_cast<double>(queries) / wall_s; }
  double CpuUsPerQuery() const {
    return cpu_s * 1e6 / static_cast<double>(queries);
  }
};

struct Ctx {
  const Workload& workload;
  QueryService& service;
  const std::vector<EcvProfile>& profiles;
  uint64_t seed = 0;
  const Replayer* replayer = nullptr;  // traced phases only
  std::atomic<size_t> current_profile{0};
};

void RunClient(Ctx& ctx, const PhaseSpec& phase, uint64_t client,
               const std::atomic<bool>& go, const std::atomic<bool>& stop,
               ClientStats& stats, ClientOut& out) {
  const bool fingerprint_all = ctx.workload.replay_oracle();
  uint64_t candidates = 0;
  Request req;
  std::vector<std::string> fps;
  const uint64_t first = phase.audit_first ? kAuditFirst : 0;
  out.audits.reserve(first + kAuditReservoir);
  while (!go.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const uint64_t index = phase.base + i;
    ctx.workload.Fill(client, index, req);

    // Audit choice is made before the call, so only audited answers pay
    // for a fingerprint (unless the workload fingerprints every answer).
    int64_t slot = -1;
    if (i < first) {
      slot = static_cast<int64_t>(out.audits.size());
      out.audits.emplace_back();
    } else if (LogHash(ctx.seed, 0xA0D17 + client, index) % kAuditOneIn ==
               0) {
      ++candidates;
      if (out.audits.size() < first + kAuditReservoir) {
        slot = static_cast<int64_t>(out.audits.size());
        out.audits.emplace_back();
      } else {
        const uint64_t j = Mix(ctx.seed ^ (client << 56) ^ candidates) %
                           candidates;
        if (j < kAuditReservoir) {
          slot = static_cast<int64_t>(first + j);
        }
      }
    }
    const bool want_fp = fingerprint_all || slot >= 0;
    fps.clear();

    int kind = kCallBatch;
    uint64_t items = 1;
    uint64_t bad = 0;
    uint64_t t0 = 0, t1 = 0;
    if (!req.is_batch) {
      t0 = NowNs();
      auto result = ctx.service.Dispatch(req.single);
      t1 = NowNs();
      kind = KindIndex(req.single.kind);
      ++stats.queries_by_kind[kind];
      if (!result.ok()) {
        bad = 1;
      } else if (want_fp) {
        fps.push_back(result->Fingerprint());
      }
    } else {
      t0 = NowNs();
      auto results = ctx.service.EvaluateBatch(req.batch);
      t1 = NowNs();
      items = results.size();
      for (size_t k = 0; k < results.size(); ++k) {
        ++stats.queries_by_kind[KindIndex(req.batch[k].kind)];
        if (!results[k].ok()) {
          ++bad;
        } else if (want_fp) {
          fps.push_back(results[k]->Fingerprint());
        }
      }
    }
    stats.Record(kind, t1 - t0, items, bad);
    if (slot >= 0) {
      Audit& audit = out.audits[static_cast<size_t>(slot)];
      audit.client = client;
      audit.index = index;
      audit.fingerprints.clear();
      if (bad == 0) {
        audit.fingerprints.swap(fps);
      }
    }
    if (phase.traced) {
      static const char* const kSpanNames[kCallKinds] = {
          "call.expected", "call.distribution", "call.montecarlo",
          "call.batch"};
      const uint64_t request_id = (client << 40) + index;
      out.spans.Add({kSpanNames[kind], t0, t1, -1, request_id, items}, true);
      if (ctx.replayer->Selected(ctx.seed, client, index)) {
        ctx.replayer->Replay(
            req, ctx.current_profile.load(std::memory_order_relaxed),
            request_id, out.spans);
      }
    }
  }
}

// Runs one phase and merges its call accounting into `totals`.
PhaseOut RunPhase(Ctx& ctx, const PhaseSpec& spec, ClientStats& totals) {
  PhaseOut out;
  out.spec = spec;
  std::vector<ClientStats> stats(spec.clients);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  for (size_t c = 0; c < spec.clients; ++c) {
    out.clients.push_back(std::make_unique<ClientOut>());
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      RunClient(ctx, spec, c, go, stop, stats[c], *out.clients[c]);
    });
  }

  // The writer publishes the next base profile every period until the
  // clients are done.
  std::mutex writer_mu;
  std::condition_variable writer_cv;
  bool writer_done = false;  // guarded by writer_mu
  std::thread writer;
  if (ctx.profiles.size() > 1) {
    writer = std::thread([&] {
      auto next = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lock(writer_mu);
      while (true) {
        next += kWriterPeriod;
        if (writer_cv.wait_until(lock, next, [&] { return writer_done; })) {
          return;
        }
        const size_t k = (ctx.current_profile.load() + 1) % ctx.profiles.size();
        lock.unlock();
        ctx.service.UpdateProfile(ctx.profiles[k]);
        ctx.current_profile.store(k);
        lock.lock();
      }
    });
  }

  const double cpu0 = CpuSeconds();
  const uint64_t t0 = NowNs();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(spec.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }
  const uint64_t t1 = NowNs();
  out.cpu_s = CpuSeconds() - cpu0;
  {
    std::lock_guard<std::mutex> lock(writer_mu);
    writer_done = true;
  }
  writer_cv.notify_all();
  if (writer.joinable()) {
    writer.join();
  }
  out.wall_s = static_cast<double>(t1 - t0) / 1e9;
  ClientStats merged;
  for (const ClientStats& c : stats) {
    merged.Merge(c);
  }
  out.queries = merged.queries;
  out.failed = merged.failed;
  out.p50_us = merged.latency.QuantileNs(0.5) / 1e3;
  out.p99_us = merged.latency.QuantileNs(0.99) / 1e3;
  out.p999_us = merged.latency.QuantileNs(0.999) / 1e3;
  out.beyond_p999 = merged.latency.BeyondQuantile(0.999);
  totals.Merge(merged);
  return out;
}

// Process-wide counters, read before and after the timed phases.
struct Counters {
  QueryService::CacheStats cache;
  uint64_t tl_hits = 0, tl_misses = 0, batch_queries = 0, fallbacks = 0;
  double obs_work_ns = 0, obs_ns = 0;
  uint64_t sampled[3] = {0, 0, 0};
};

Counters ReadCounters(const QueryService& svc) {
  eclarity::MetricsRegistry& m = eclarity::MetricsRegistry::Global();
  Counters c;
  c.cache = svc.TotalCacheStats();
  c.tl_hits = m.GetCounter("eclarity_svc_tl_fold_hits_total").value();
  c.tl_misses = m.GetCounter("eclarity_svc_tl_fold_misses_total").value();
  c.batch_queries = m.GetCounter("eclarity_svc_batch_queries_total").value();
  c.fallbacks =
      m.GetCounter("eclarity_eval_batch_scalar_fallbacks_total").value();
  c.obs_work_ns = eclarity::ObsBudget::Global().WorkNs();
  c.obs_ns = eclarity::ObsBudget::Global().ObsNs();
  for (int k = 0; k < 3; ++k) {
    c.sampled[k] = m.GetLatencyHistogram(std::string("eclarity_svc_latency_ns_") +
                                         CallKindName(k))
                       .Count();
  }
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Wall-time share per call kind over `stats`.
std::array<double, kCallKinds> WallShares(const ClientStats& stats) {
  std::array<double, kCallKinds> share{};
  const double total = static_cast<double>(stats.total_busy_ns());
  for (int k = 0; k < kCallKinds; ++k) {
    share[k] = Ratio(static_cast<double>(stats.busy_ns[k]), total);
  }
  return share;
}

// The checks that keep each workload's name honest. Returns the failure,
// or an empty string.
std::string SelfCheck(const std::string& name, double cache_hit_ratio,
                      const ClientStats& main) {
  char buf[160];
  if (name == "hot_expected" && cache_hit_ratio < 0.99) {
    std::snprintf(buf, sizeof(buf),
                  "hot_expected: svc.cache_hit_ratio %.4f < 0.99",
                  cache_hit_ratio);
    return buf;
  }
  if (name == "cold_manager" && cache_hit_ratio > 0.2) {
    std::snprintf(buf, sizeof(buf),
                  "cold_manager: svc.cache_hit_ratio %.4f > 0.2",
                  cache_hit_ratio);
    return buf;
  }
  if (name == "serve_fig1") {
    const auto share = WallShares(main);
    for (int k = 0; k < kCallKinds; ++k) {
      if (share[k] > share[kCallMonteCarlo]) {
        std::snprintf(buf, sizeof(buf),
                      "serve_fig1: wall share of %s (%.3f) exceeds "
                      "montecarlo (%.3f)",
                      CallKindName(k), share[k], share[kCallMonteCarlo]);
        return buf;
      }
    }
  }
  return "";
}

// One line per role, over all of its phases, then its calls per kind.
void PrintRole(Role role, const std::vector<const PhaseOut*>& phases,
               const ClientStats& stats) {
  static const char* const kRoleNames[] = {"1-client", "main", "4-client",
                                           "untraced"};
  if (phases.empty()) {
    return;
  }
  std::printf("%-9s clients=%zu phases=%zu queries=%llu%s\n  qps by round:",
              kRoleNames[role], phases[0]->spec.clients, phases.size(),
              static_cast<unsigned long long>(stats.queries),
              phases[0]->spec.traced ? " (traced)" : "");
  for (const PhaseOut* p : phases) {
    std::printf(" %.0f", p->qps());
  }
  std::printf("\n  p50/p99/p99.9 us by round:");
  for (const PhaseOut* p : phases) {
    std::printf(" %.4g/%.4g/%.4g", p->p50_us, p->p99_us, p->p999_us);
  }
  std::printf("\n");
  for (int k = 0; k < kCallKinds; ++k) {
    const LatencyHist& h = stats.by_kind[k];
    if (h.count() == 0) {
      continue;
    }
    std::printf("  %-12s calls=%llu p50=%.3fus p99=%.3fus busy=%.3fs\n",
                CallKindName(k), static_cast<unsigned long long>(h.count()),
                h.QuantileNs(0.5) / 1e3, h.QuantileNs(0.99) / 1e3,
                static_cast<double>(stats.busy_ns[k]) / 1e9);
  }
}

// One timed set-up: read + parse + check the sources, Create, warm-up.
// Appends its time to `setup_s`.
eclarity::Result<std::unique_ptr<QueryService>> SetUp(
    const std::string& root, const Workload& wl,
    const std::vector<EcvProfile>& profiles, std::vector<double>& setup_s) {
  const uint64_t t0 = NowNs();
  ECLARITY_ASSIGN_OR_RETURN(Loaded loaded, Load(root, wl));
  ECLARITY_ASSIGN_OR_RETURN(
      std::unique_ptr<QueryService> service,
      QueryService::Create(std::move(loaded.program), {}, profiles[0]));
  wl.WarmUp(*service);
  setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return service;
}

int Run(const Args& args) {
  std::printf("context: nproc=%ld build_type=%s optimized=%d compiler=\"%s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
              kOptimized ? 1 : 0, kCompiler);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (!kOptimized || (build_type != "Release" && build_type != "RelWithDebInfo" &&
                      build_type != "MinSizeRel")) {
    std::fprintf(stderr,
                 "refusing to measure a non-optimised build (%s); configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              wl->name().c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const std::vector<EcvProfile> profiles = wl->base_profiles();

  std::vector<double> setup_s;
  auto service = SetUp(args.root, *wl, profiles, setup_s);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  // Program copy for the oracle, probes and replays (not timed).
  auto reference = Load(args.root, *wl);
  if (!reference.ok()) {
    std::fprintf(stderr, "%s\n", reference.status().ToString().c_str());
    return 1;
  }

  Ctx ctx{*wl, **service, profiles, args.seed};
  ProbeCosts probes;
  std::unique_ptr<Replayer> replayer;
  if (args.trace) {
    probes = RunProbes(*wl, reference->texts, reference->program);
    replayer = std::make_unique<Replayer>(reference->program, profiles);
    ctx.replayer = replayer.get();
  }

  // One round's phases. Untraced: 1 client and 4 clients for scaling_4v1
  // around the main phase (hot_expected's main phase is its 4-client
  // phase). Traced: the main phase untraced, then traced.
  const size_t main_clients = wl->main_clients();
  std::vector<PhaseSpec> layout;
  if (args.trace) {
    layout = {{kRoleUntraced, main_clients, 0.5, false},
              {kRoleMain, main_clients, 0.5, true}};
  } else if (main_clients == 4) {
    layout = {{kRoleOne, 1, 1.0 / 3}, {kRoleMain, 4, 2.0 / 3}};
  } else {
    layout = {{kRoleOne, 1, 0.2},
              {kRoleMain, main_clients, 0.6},
              {kRoleFour, 4, 0.2}};
  }
  const size_t rounds = std::max<size_t>(
      2, static_cast<size_t>(args.seconds / kRoundSeconds + 0.5));
  const double round_s = args.seconds / static_cast<double>(rounds);

  const Counters before = ReadCounters(**service);
  std::vector<PhaseOut> phases;  // round-major, `layout` order
  std::array<ClientStats, 4> totals;  // per Role
  uint64_t base = 0;
  for (size_t r = 0; r < rounds; ++r) {
    for (PhaseSpec spec : layout) {
      spec.seconds *= round_s;
      spec.audit_first = r == 0;
      spec.base = base;
      base += kPhaseStride;
      phases.push_back(RunPhase(ctx, spec, totals[spec.role]));
    }
    for (int k = 0; !args.trace && k < kSetupsPerRound; ++k) {
      if (!SetUp(args.root, *wl, profiles, setup_s).ok()) {
        return 1;
      }
    }
  }
  const Counters after = ReadCounters(**service);

  auto role = [&](Role want) {
    std::vector<const PhaseOut*> out;
    for (const PhaseOut& p : phases) {
      if (p.spec.role == want) {
        out.push_back(&p);
      }
    }
    return out;
  };
  const std::vector<const PhaseOut*> mains = role(kRoleMain);
  const ClientStats& main_stats = totals[kRoleMain];
  for (Role r : {kRoleOne, kRoleMain, kRoleFour, kRoleUntraced}) {
    PrintRole(r, role(r), totals[r]);
  }

  // Oracle, after timing.
  Oracle oracle(*wl, reference->program);
  uint64_t attempted = 0, failed = 0, verified = 0, rejected = 0;
  Request req;
  for (const PhaseOut& p : phases) {
    attempted += p.queries;
    failed += p.failed;
    for (const auto& c : p.clients) {
      for (const Audit& audit : c->audits) {
        if (audit.fingerprints.empty()) {
          continue;  // already counted as failed
        }
        wl->Fill(audit.client, audit.index, req);
        const uint64_t n = req.is_batch ? req.batch.size() : 1;
        if (oracle.Check(req, audit.fingerprints)) {
          verified += n;
        } else {
          rejected += n;
        }
      }
    }
  }
  failed += rejected;
  std::printf("oracle: %llu answers verified, %llu rejected (%s)\n",
              static_cast<unsigned long long>(verified),
              static_cast<unsigned long long>(rejected),
              wl->replay_oracle() ? "single-threaded replay, fresh service"
                                  : "tree-walk evaluator");
  std::printf("fail_ratio: %.17g (%llu of %llu queries)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  const double lookups =
      static_cast<double>(after.cache.lookups() - before.cache.lookups());
  const double cache_hit_ratio =
      Ratio(static_cast<double>(after.cache.hits - before.cache.hits), lookups);
  std::string problem = SelfCheck(wl->name(), cache_hit_ratio, main_stats);
  uint64_t beyond_p999 = UINT64_MAX;  // fewest in any main phase
  for (const PhaseOut* p : mains) {
    beyond_p999 = std::min(beyond_p999, p->beyond_p999);
  }
  if (problem.empty() && beyond_p999 < 10) {
    problem = "fewer than 10 samples beyond p99.9 in a main phase";
  }
  if (problem.empty() && verified == 0) {
    problem = "no answer verified";
  }
  if (problem.empty() && failed != 0) {
    problem = "failed queries";
  }
  std::printf("self-check: %s\n", problem.empty() ? "ok" : problem.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    auto median_of = [&](auto f) {
      std::vector<double> v;
      for (const PhaseOut* p : mains) {
        v.push_back(f(*p));
      }
      return Median(v);
    };
    // scaling_4v1 pairs the 1-client and 4-client phases of each round.
    const size_t one = 0;
    const size_t four = main_clients == 4 ? 1 : 2;
    std::vector<double> scaling;
    for (size_t r = 0; r < rounds; ++r) {
      scaling.push_back(phases[r * layout.size() + four].qps() /
                        phases[r * layout.size() + one].qps());
    }
    const double p50 = median_of([](const PhaseOut& p) { return p.p50_us; });
    const double p99 = median_of([](const PhaseOut& p) { return p.p99_us; });
    const double p999 =
        median_of([](const PhaseOut& p) { return p.p999_us; });
    std::printf("latency: p50 %.4f us, p99 %.4f us, p99.9 %.4f us (medians "
                "over %zu main phases of %llu calls in all; >= %llu beyond "
                "p99.9 in each)\n",
                p50, p99, p999, mains.size(),
                static_cast<unsigned long long>(main_stats.latency.count()),
                static_cast<unsigned long long>(beyond_p999));
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"qps", median_of([](const PhaseOut& p) { return p.qps(); }), "1/s"},
        {"lat_p50_us", p50, "us"},
        {"lat_p999_us", p999, "us"},
        {"cpu_us_per_query",
         median_of([](const PhaseOut& p) { return p.CpuUsPerQuery(); }), "us"},
        {"scaling_4v1", Median(scaling), "ratio"},
        {"setup_s", Median(setup_s), "s"},
        {"rss_peak_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
  } else {
    const ClientStats& t = main_stats;
    ClientStats all = totals[kRoleUntraced];
    all.Merge(t);
    std::vector<double> overhead;  // traced over untraced qps, per round
    std::vector<const SpanLog*> logs;
    for (size_t r = 0; r < rounds; ++r) {
      const PhaseOut& untraced = phases[2 * r];
      const PhaseOut& traced = phases[2 * r + 1];
      overhead.push_back(traced.qps() / untraced.qps());
      for (const auto& c : traced.clients) {
        logs.push_back(&c->spans);
      }
    }
    const auto per_item = PerItemDurations(logs);
    auto med_us = [&](const char* name) {
      auto it = per_item.find(name);
      return it == per_item.end() ? 0.0 : Median(it->second) / 1e3;
    };
    auto mean = [](const std::vector<double>& v) {
      double sum = 0;
      for (double x : v) {
        sum += x;
      }
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    const ReplayTotals replays = ReplayCosts(logs);
    const uint64_t single_calls =
        t.calls[kCallExpected] + t.calls[kCallDistribution] +
        t.calls[kCallMonteCarlo];
    const double batch_items = static_cast<double>(t.queries - single_calls);
    double replay_lanes = 0;
    for (const SpanLog* log : logs) {
      for (const Span& sp : log->spans()) {
        if (std::string(sp.name) == "eval.batch_lanes") {
          replay_lanes += static_cast<double>(sp.items);
        }
      }
    }
    const double mc_wait_us =
        t.calls[kCallMonteCarlo] > 0
            ? t.by_kind[kCallMonteCarlo].QuantileNs(0.5) / 1e3 - probes.mc_us
            : 0.0;
    const double queries_all = static_cast<double>(all.queries);
    const double interval = QueryService::Options().obs_sample_interval;
    std::array<double, 3> sampled_share{};
    for (int k = 0; k < 3; ++k) {
      const double n = static_cast<double>(all.queries_by_kind[k]);
      sampled_share[k] =
          Ratio(static_cast<double>(after.sampled[k] - before.sampled[k]) *
                    interval,
                n);
    }
    // The ledger: modelled busy time from per-layer costs against the
    // client-timed busy time of the traced phase.
    const double exact_miss_ns =
        mean(replays.exact_ns) + probes.miss_overhead_us * 1e3;
    const double exact_ns = cache_hit_ratio * probes.hit_ns +
                            (1 - cache_hit_ratio) * exact_miss_ns;
    const double modelled =
        static_cast<double>(t.calls[kCallExpected] +
                            t.calls[kCallDistribution]) *
            exact_ns +
        static_cast<double>(t.calls[kCallMonteCarlo]) * probes.mc_us * 1e3 +
        static_cast<double>(t.calls[kCallBatch]) * mean(replays.batch_ns);
    const auto share = WallShares(t);
    metrics = {
        {"lang.parse_us", probes.parse_us, "us"},
        {"lang.check_us", probes.check_us, "us"},
        {"eval.lower_us", probes.lower_us, "us"},
        {"eval.compile_us", probes.compile_us, "us"},
        {"eval.specialize_us", probes.specialize_us, "us"},
        {"eval.enumerate_us.fig1", med_us("eval.enumerate.fig1"), "us"},
        {"eval.enumerate_us.gpt2", med_us("eval.enumerate.gpt2"), "us"},
        {"eval.sample_us", med_us("eval.sample"), "us"},
        {"dist.fold_us", med_us("dist.fold"), "us"},
        {"eval.batch_lane_us", med_us("eval.batch_lanes"), "us"},
        {"eval.batch_fallback_ratio",
         Ratio(static_cast<double>(after.fallbacks - before.fallbacks),
               static_cast<double>(after.batch_queries - before.batch_queries) +
                   replay_lanes),
         "ratio"},
        {"svc.snapshot_pin_ns", probes.snapshot_pin_ns, "ns"},
        {"svc.hit_ns", probes.hit_ns, "ns"},
        {"svc.miss_overhead_us", probes.miss_overhead_us, "us"},
        {"svc.mc_us", probes.mc_us, "us"},
        {"svc.mc_wait_us", mc_wait_us, "us"},
        {"svc.batch_item_us",
         Ratio(static_cast<double>(t.busy_ns[kCallBatch]) / 1e3, batch_items),
         "us"},
        {"svc.publish_us", probes.publish_us, "us"},
        {"svc.cache_hit_ratio", cache_hit_ratio, "ratio"},
        {"svc.tl_hit_ratio",
         Ratio(static_cast<double>(after.tl_hits - before.tl_hits),
               static_cast<double>(after.tl_hits - before.tl_hits +
                                   after.tl_misses - before.tl_misses)),
         "ratio"},
        {"svc.evictions_per_query",
         Ratio(static_cast<double>(after.cache.evictions -
                                   before.cache.evictions),
               queries_all),
         "ratio"},
        {"svc.wall_share.expected", share[kCallExpected], "ratio"},
        {"svc.wall_share.distribution", share[kCallDistribution], "ratio"},
        {"svc.wall_share.montecarlo", share[kCallMonteCarlo], "ratio"},
        {"svc.wall_share.batch", share[kCallBatch], "ratio"},
        {"obs.overhead_ratio",
         Ratio(after.obs_ns - before.obs_ns,
               after.obs_work_ns - before.obs_work_ns),
         "ratio"},
        {"obs.sampled_share.expected", sampled_share[0], "ratio"},
        {"obs.sampled_share.distribution", sampled_share[1], "ratio"},
        {"obs.sampled_share.montecarlo", sampled_share[2], "ratio"},
        {"ledger.coverage",
         Ratio(modelled, static_cast<double>(t.total_busy_ns())), "ratio"},
        {"trace.overhead_ratio", Median(overhead), "ratio"},
        {"oracle.verified", static_cast<double>(verified), "count"},
    };
    uint64_t dropped = 0;
    for (const SpanLog* log : logs) {
      dropped += log->top_level_dropped();
    }
    std::printf("ledger: %zu exact, %zu montecarlo, %zu batch replays; "
                "%llu top-level spans counted but not kept\n",
                replays.exact_ns.size(), replays.mc_ns.size(),
                replays.batch_ns.size(),
                static_cast<unsigned long long>(dropped));
    std::printf("not applicable (reported as 0):");
    for (int k = 0; k < kCallKinds; ++k) {
      if (t.calls[k] == 0) {
        std::printf(" %s traffic;", CallKindName(k));
      }
    }
    if (per_item.count("eval.enumerate.gpt2") == 0) {
      std::printf(" gpt2 traffic;");
    }
    std::printf("\n");
    const std::string dir = args.root + "/.bench_build/spans";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + wl->name() + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    std::printf("spans: %s%s\n", path.c_str(),
                WriteSpans(path, logs) ? "" : " (write failed)");
  }

  if (!problem.empty()) {
    PrintResult(false, attempted, failed, {});
    return 1;
  }
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: eclarity_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--root DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
