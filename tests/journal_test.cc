// Tests for the flight recorder (src/obs/journal.h) and the self-accounted
// telemetry budget (src/obs/budget.h): ring wraparound semantics, concurrent
// drain-while-record consistency (the TSan job runs this binary), journal
// bit-identity under single-threaded replay of a service workload, and the
// <1% steady-state overhead budget.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/lang/parser.h"
#include "src/obs/budget.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/svc/query_service.h"
#include "tests/parity_programs.h"

namespace eclarity {
namespace {

Program MustParse(const std::string& source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

// --- Ring buffer semantics --------------------------------------------------

TEST(JournalTest, RecordDrainRoundTrip) {
  Journal& journal = Journal::Global();
  journal.Clear();
  const uint64_t recorded_before = journal.TotalRecorded();

  journal.Record(JournalEventKind::kMark, 7, 9);
  journal.Record(JournalEventKind::kSnapshotSwap, 3, 1, /*t_ns=*/1000);
  journal.Record(JournalEventKind::kEval, 42, 0, /*t_ns=*/500, /*dur_ns=*/250);

  const std::vector<JournalEvent> events = journal.Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(journal.TotalRecorded(), recorded_before + 3);

  // Same thread, history order.
  EXPECT_EQ(events[0].thread, events[2].thread);
  EXPECT_EQ(events[0].index + 1, events[1].index);
  EXPECT_EQ(events[1].index + 1, events[2].index);

  EXPECT_EQ(events[0].kind, JournalEventKind::kMark);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 9u);
  EXPECT_NE(events[0].t_ns, 0u);  // stamped by Record
  EXPECT_EQ(events[0].dur_ns, 0u);

  EXPECT_EQ(events[1].kind, JournalEventKind::kSnapshotSwap);
  EXPECT_EQ(events[1].t_ns, 1000u);  // caller-provided timestamp kept

  EXPECT_EQ(events[2].kind, JournalEventKind::kEval);
  EXPECT_EQ(events[2].a, 42u);
  EXPECT_EQ(events[2].t_ns, 500u);
  EXPECT_EQ(events[2].dur_ns, 250u);
}

TEST(JournalTest, DisabledRecordsNothing) {
  Journal& journal = Journal::Global();
  journal.Clear();
  journal.SetEnabled(false);
  journal.Record(JournalEventKind::kMark, 1);
  EXPECT_TRUE(journal.Drain().empty());
  journal.SetEnabled(true);
  journal.Record(JournalEventKind::kMark, 2);
  EXPECT_EQ(journal.Drain().size(), 1u);
}

TEST(JournalTest, WraparoundDropsOldestKeepsNewest) {
  Journal& journal = Journal::Global();
  journal.Clear();
  const uint64_t dropped_before = journal.TotalDropped();

  constexpr uint64_t kExtra = 100;
  constexpr uint64_t kTotal = Journal::kRingCapacity + kExtra;
  for (uint64_t i = 0; i < kTotal; ++i) {
    journal.Record(JournalEventKind::kMark, i);
  }

  const std::vector<JournalEvent> events = journal.Drain();
  ASSERT_EQ(events.size(), Journal::kRingCapacity);
  // The newest kRingCapacity events survive; the oldest kExtra are gone.
  EXPECT_EQ(events.front().a, kExtra);
  EXPECT_EQ(events.back().a, kTotal - 1);
  // History indices are contiguous even across the wrap, so index gaps
  // after a Clear() reveal exactly how many events were dropped.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].index, events[i - 1].index + 1);
  }
  EXPECT_GE(journal.TotalDropped(), dropped_before + kExtra);
}

TEST(JournalTest, ConcurrentRecordAndDrainStaysConsistent) {
  Journal& journal = Journal::Global();
  journal.Clear();

  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  std::atomic<bool> start{false};
  std::atomic<bool> release{false};
  std::atomic<int> finished{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        journal.Record(JournalEventKind::kMark, i, static_cast<uint64_t>(t));
      }
      // Stay alive until every writer is done: a thread that exits early
      // returns its ring to the pool, and a late-starting writer would
      // reuse (and overwrite) it, leaving fewer than kWriters rings.
      finished.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) {
      }
    });
  }
  start.store(true, std::memory_order_release);

  // Drain continuously while the writers hammer their rings. Torn slots
  // must be skipped, never surfaced with mixed payloads: every drained
  // event is a well-formed kMark with a coherent (a, b) pair.
  for (int round = 0; round < 50; ++round) {
    for (const JournalEvent& ev : journal.Drain()) {
      ASSERT_EQ(ev.kind, JournalEventKind::kMark);
      ASSERT_LT(ev.a, kPerWriter);
      ASSERT_LT(ev.b, static_cast<uint64_t>(kWriters));
    }
  }
  while (finished.load(std::memory_order_acquire) < kWriters) {
  }
  release.store(true, std::memory_order_release);
  for (std::thread& writer : writers) {
    writer.join();
  }

  // Quiesced: per-ring histories are strictly increasing, and each ring
  // retains exactly its newest kRingCapacity events.
  const std::vector<JournalEvent> events = journal.Drain();
  ASSERT_EQ(events.size(), kWriters * Journal::kRingCapacity);
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].thread == events[i - 1].thread) {
      EXPECT_EQ(events[i].index, events[i - 1].index + 1);
      EXPECT_EQ(events[i].a, events[i - 1].a + 1);
    }
  }
}

TEST(JournalTest, ChromeTraceExportIsWellFormed) {
  std::vector<JournalEvent> events;
  JournalEvent span;
  span.kind = JournalEventKind::kQuery;
  span.t_ns = 5000;
  span.dur_ns = 1500;
  span.a = 2;
  events.push_back(span);
  JournalEvent instant;
  instant.kind = JournalEventKind::kSnapshotSwap;
  instant.t_ns = 9000;
  events.push_back(instant);

  std::ostringstream out;
  WriteJournalChromeTrace(events, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"dur\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"snapshot_swap\""), std::string::npos);
}

// --- Service workload: replay determinism -----------------------------------

constexpr char kServiceSource[] = R"(
interface E_handle(n) {
  ecv hit ~ bernoulli(0.25);
  if (hit) {
    return n * 0.5nJ;
  } else {
    return n * 20nJ + 128 * 1.5nJ;
  }
}
)";

// Runs a fixed single-threaded mixed workload against a fresh service with
// every query sampled, and fingerprints the journal it leaves behind.
std::string RunWorkloadAndFingerprint() {
  Journal::Global().Clear();
  ObsSampler::ResetThread();

  QueryService::Options options;
  options.obs_sample_interval = 1;  // sample (and journal) every query
  auto service =
      QueryService::Create(MustParse(kServiceSource), options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();

  EcvProfile updated;
  updated.SetBernoulli("hit", 0.75);
  for (int i = 0; i < 64; ++i) {
    if (i == 32) {
      // A mid-workload profile swap journals kRespecialize/kSnapshotSwap
      // and rekeys the fold cache — all deterministically.
      (*service)->UpdateProfile(updated);
    }
    Query query;
    query.interface = "E_handle";
    query.args = {Value::Number(64.0 + (i % 4) * 16.0)};
    if (i % 16 == 5) {
      query.kind = QueryKind::kMonteCarlo;
      query.seed = static_cast<uint64_t>(i);
      query.samples = 64;
    } else if (i % 8 == 0) {
      query.kind = QueryKind::kDistribution;
    } else {
      query.kind = QueryKind::kExpected;
    }
    auto outcome = (*service)->Dispatch(query);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  }

  const std::vector<JournalEvent> events = Journal::Global().Drain();
  EXPECT_FALSE(events.empty());
  return JournalFingerprint(events);
}

TEST(JournalTest, SingleThreadedReplayIsBitIdentical) {
  const std::string first = RunWorkloadAndFingerprint();
  const std::string second = RunWorkloadAndFingerprint();
  EXPECT_EQ(first, second);
  // Sanity: the fingerprint reflects actual content, not emptiness.
  EXPECT_NE(first, JournalFingerprint({}));
}

// Drives `queries` distinct single queries through a two-entry store and
// returns how many kShardEviction records the journal then holds;
// `evictions` receives how many evictions the counter saw.
size_t JournaledEvictions(uint32_t sample_interval, int queries,
                          uint64_t& evictions) {
  Journal::Global().Clear();
  ObsSampler::ResetThread();
  QueryService::Options options;
  options.cache_capacity = 2;
  options.obs_sample_interval = sample_interval;
  auto service = QueryService::Create(MustParse(kServiceSource), options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  Counter& counter = MetricsRegistry::Global().GetCounter(
      "eclarity_svc_cache_evictions_total");
  const uint64_t before = counter.value();
  for (int i = 0; i < queries; ++i) {
    Query query;
    query.interface = "E_handle";
    query.args = {Value::Number(64.0 + i)};
    auto outcome = (*service)->Dispatch(query);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  evictions = counter.value() - before;
  size_t journaled = 0;
  for (const JournalEvent& event : Journal::Global().Drain()) {
    journaled += event.kind == JournalEventKind::kShardEviction ? 1 : 0;
  }
  return journaled;
}

// Evictions are always counted but journaled only inside a sampled query,
// where they are charged like its phase spans: on a churning store, one
// record per eviction would push the sampled spans out of the ring.
TEST(JournalTest, EvictionsAreJournaledOnlyInsideSampledQueries) {
  constexpr int kQueries = 32;
  uint64_t evictions = 0;
  EXPECT_EQ(JournaledEvictions(/*sample_interval=*/0, kQueries, evictions),
            0u);
  EXPECT_GE(evictions, static_cast<uint64_t>(kQueries - 2));
  EXPECT_EQ(JournaledEvictions(/*sample_interval=*/1, kQueries, evictions),
            evictions);
  EXPECT_GE(evictions, static_cast<uint64_t>(kQueries - 2));
}

// --- Telemetry overhead budget ----------------------------------------------

// The budget contract from the paper: telemetry must stay under 1% of
// steady-state service work. "Service work" here is serve-shaped mixed
// traffic against the Fig. 1 program — mostly cached expected-value
// queries with periodic distribution and Monte Carlo requests — the same
// mix `eilc serve` and BM_ServiceThroughput run, not a synthetic
// cheapest-possible query loop (a 130ns pure cache-hit stream is below
// the per-query cost of *any* instrumentation at a fixed ratio).
TEST(ObsBudgetTest, SteadyStateServiceOverheadUnderOnePercent) {
  QueryService::Options options;  // default obs_sample_interval
  auto service = QueryService::Create(MustParse(parity::kFig1Source), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto query_at = [](int i) {
    Query query;
    query.interface = "E_ml_webservice_handle";
    query.args = {Value::Number(50176.0 - (i % 8) * 512.0),
                  Value::Number(10000.0)};
    if (i % 32 == 0) {
      query.kind = QueryKind::kMonteCarlo;
      query.seed = static_cast<uint64_t>(i);
      query.samples = 128;
    } else if (i % 16 == 8) {
      query.kind = QueryKind::kDistribution;
    } else {
      query.kind = QueryKind::kExpected;
    }
    return query;
  };
  // Warm the fold cache so the measured region is steady-state traffic.
  for (int i = 0; i < 1024; ++i) {
    ASSERT_TRUE((*service)->Dispatch(query_at(i)).ok());
  }

  ObsBudget::Global().Reset();
  constexpr int kQueries = 100000;
  for (int i = 0; i < kQueries; ++i) {
    auto outcome = (*service)->Dispatch(query_at(i));
    ASSERT_TRUE(outcome.ok());
  }
  const double ratio = ObsBudget::Global().OverheadRatio();
  EXPECT_GT(ratio, 0.0);  // sampling actually happened
  EXPECT_LT(ratio, 0.01);

  // The ratio is exported as a gauge for scrapes.
  ObsBudget::Global().Publish();
  const std::string text = MetricsRegistry::Global().ToPrometheusText();
  EXPECT_NE(text.find("eclarity_obs_overhead_ratio"), std::string::npos);
}

// --- Sampling gates ---------------------------------------------------------

// A traffic mix whose period divides the sampling interval (here 16 and 64
// against 256) must still sample every kind it carries: a countdown shared
// by all kinds would put every sample on the same position of the mix, an
// Expected hit. With one gate per kind, kind k's latency histogram grows
// by exactly floor(N_k / interval).
TEST(ObsSamplerTest, PeriodicMixSamplesEveryKind) {
  QueryService::Options options;  // default obs_sample_interval
  auto service = QueryService::Create(MustParse(parity::kFig1Source), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ObsSampler::ResetThread();

  const QueryKind kKinds[] = {QueryKind::kExpected, QueryKind::kDistribution,
                              QueryKind::kMonteCarlo};
  const char* const kHistograms[] = {"eclarity_svc_latency_ns_expected",
                                     "eclarity_svc_latency_ns_distribution",
                                     "eclarity_svc_latency_ns_montecarlo"};
  auto counts = [&] {
    std::vector<uint64_t> out;
    for (const char* name : kHistograms) {
      out.push_back(
          MetricsRegistry::Global().GetLatencyHistogram(name).Count());
    }
    return out;
  };
  const std::vector<uint64_t> before = counts();

  constexpr int kQueries = 40000;
  std::vector<uint64_t> issued(3, 0);
  for (int i = 0; i < kQueries; ++i) {
    Query query;
    query.interface = "E_ml_webservice_handle";
    query.args = {Value::Number(50176.0), Value::Number(10000.0)};
    size_t k = 0;  // expected
    if (i % 64 == 0) {
      k = 2;
      query.seed = static_cast<uint64_t>(i);
      query.samples = 16;
    } else if (i % 16 == 8) {
      k = 1;
    }
    query.kind = kKinds[k];
    ++issued[k];
    ASSERT_TRUE((*service)->Dispatch(query).ok());
  }

  const std::vector<uint64_t> after = counts();
  const uint64_t interval = options.obs_sample_interval;
  for (size_t k = 0; k < 3; ++k) {
    SCOPED_TRACE(kHistograms[k]);
    EXPECT_GT(issued[k] / interval, 0u);
    EXPECT_EQ(after[k] - before[k], issued[k] / interval);
  }
}

}  // namespace
}  // namespace eclarity
