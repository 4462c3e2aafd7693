// Tests for the observability layer: metrics registry, evaluation tracing,
// the prediction-accuracy audit trail, the pluggable log sink, and energy
// provenance (including its agreement with SystemStack::AttributeByLayer).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/eval/interp.h"
#include "src/hw/vendor.h"
#include "src/iface/energy_interface.h"
#include "src/lang/parser.h"
#include "src/ml/gpt2.h"
#include "src/ml/gpt2_iface.h"
#include "src/obs/accuracy.h"
#include "src/obs/latency.h"
#include "src/obs/metrics.h"
#include "src/obs/provenance.h"
#include "src/obs/trace.h"
#include "src/stack/stack.h"
#include "src/util/json.h"
#include "src/util/logging.h"

namespace eclarity {
namespace {

Program MustParse(const std::string& source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

// --- Metrics registry ------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test_events_total", "events");
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5u);

  Gauge& g = registry.GetGauge("test_level", "level");
  g.Set(2.5);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(MetricsTest, HistogramBucketsAndCumulativeCounts) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test_latency", "latency",
                                       ExponentialBuckets(1.0, 10.0, 3));
  // bounds: 1, 10, 100; +inf implicit.
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(50.0);
  h.Observe(5000.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 5055.5);
  const std::vector<uint64_t> cumulative = h.CumulativeCounts();
  ASSERT_EQ(cumulative.size(), 4u);
  EXPECT_EQ(cumulative[0], 1u);
  EXPECT_EQ(cumulative[1], 2u);
  EXPECT_EQ(cumulative[2], 3u);
  EXPECT_EQ(cumulative[3], 4u);
}

TEST(MetricsTest, JsonAndPrometheusExports) {
  MetricsRegistry registry;
  registry.GetCounter("test_hits_total", "hit count").Increment(7);
  registry.GetGauge("test_ratio", "a ratio").Set(0.25);
  registry.GetHistogram("test_sizes", "sizes", {1.0, 2.0}).Observe(1.5);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"test_hits_total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);

  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE test_hits_total counter"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("test_hits_total 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_ratio gauge"), std::string::npos);
  EXPECT_NE(prom.find("test_sizes_count 1"), std::string::npos);
}

TEST(MetricsTest, KindClashReturnsDummyAndKeepsOriginal) {
  MetricsRegistry registry;
  registry.GetCounter("test_metric", "a counter").Increment(3);
  // Asking for the same name as a gauge must not corrupt the counter; the
  // returned dummy is writable but unexported.
  Gauge& dummy = registry.GetGauge("test_metric", "oops");
  dummy.Set(99.0);
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("test_metric 3"), std::string::npos) << prom;
  EXPECT_EQ(prom.find("test_metric 99"), std::string::npos);
}

TEST(MetricsTest, CounterKeepsFirstNonEmptyHelp) {
  // A reader may fetch a counter by name before its owner registers it with
  // help text; the owner's help must still reach the export.
  MetricsRegistry registry;
  registry.GetCounter("test_late_help_total").Increment();
  registry.GetCounter("test_late_help_total", "owner help");
  registry.GetCounter("test_late_help_total", "later help");
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# HELP test_late_help_total owner help\n"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("later help"), std::string::npos);
}

TEST(MetricsTest, ResetAllKeepsReferencesValid) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test_total", "");
  c.Increment(9);
  registry.ResetAll();
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsTest, CounterSumsEveryThreadsCell) {
  // More writers than the counter has cells, so some threads share one.
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test_threads_total", "");
  constexpr int kThreads = 20;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) {
        c.Increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(c.value(), uint64_t{kThreads} * kIncrements);
  registry.ResetAll();
  EXPECT_EQ(c.value(), 0u);
}

// --- JSON escaping ---------------------------------------------------------

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain ascii 123"), "plain ascii 123");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("tab\there\nnewline"), "tab\\there\\nnewline");
  EXPECT_EQ(JsonEscape(std::string("nul\x01middle")), "nul\\u0001middle");
  EXPECT_EQ(JsonEscape("\b\f\r"), "\\b\\f\\r");
  // UTF-8 passes through byte-for-byte (only ASCII controls are escaped).
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(MetricsTest, JsonExportEscapesMetricNames) {
  MetricsRegistry registry;
  registry.GetCounter("weird\"name\\with\ncontrols", "").Increment();
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\ncontrols"), std::string::npos);
  // The raw quote must not survive unescaped inside the key.
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);
}

// --- Latency histogram -----------------------------------------------------

TEST(LatencyHistogramTest, ExactBucketsBelowSixteen) {
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketValue(v), v);
  }
}

TEST(LatencyHistogramTest, BucketIndexIsMonotoneWithBoundedError) {
  size_t prev_idx = 0;
  for (uint64_t v = 1; v < (1ull << 40); v = v * 5 / 4 + 1) {
    const size_t idx = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_GE(idx, prev_idx) << "v=" << v;
    prev_idx = idx;
    // The bucket midpoint is within one sub-bucket (~6%) of the value.
    const double mid = static_cast<double>(LatencyHistogram::BucketValue(idx));
    const double rel = std::abs(mid - static_cast<double>(v)) /
                       static_cast<double>(v);
    EXPECT_LT(rel, 1.0 / LatencyHistogram::kSubBuckets) << "v=" << v;
  }
}

TEST(LatencyHistogramTest, QuantilesOnKnownPopulation) {
  LatencyHistogram hist;
  for (uint64_t v = 1; v <= 1000; ++v) {
    hist.Record(v);
  }
  EXPECT_EQ(hist.Count(), 1000u);
  EXPECT_EQ(hist.SumNs(), 500500u);
  EXPECT_EQ(hist.MaxNs(), 1000u);
  // Quantiles come back as bucket midpoints: exact to within the ~6%
  // bucket resolution.
  EXPECT_NEAR(static_cast<double>(hist.QuantileNs(0.5)), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(hist.QuantileNs(0.9)), 900.0, 900.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(hist.QuantileNs(0.99)), 990.0, 990.0 * 0.07);
  EXPECT_EQ(hist.QuantileNs(0.0), hist.QuantileNs(0.001));

  hist.Reset();
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.QuantileNs(0.5), 0u);
}

TEST(MetricsTest, LatencyExportsJsonAndPrometheusSummary) {
  MetricsRegistry registry;
  LatencyHistogram& hist =
      registry.GetLatencyHistogram("test_latency_ns", "query latency");
  for (uint64_t v = 100; v <= 200; ++v) {
    hist.Record(v);
  }
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"test_latency_ns\":{\"count\":101"), std::string::npos);
  EXPECT_NE(json.find("\"p50_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999_ns\":"), std::string::npos);

  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE test_latency_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_count 101"), std::string::npos);
}

// --- Tracing ---------------------------------------------------------------

constexpr char kTraceSource[] = R"(
interface E_entry(n) {
  ecv hit ~ bernoulli(0.25);
  if (hit) {
    return E_leaf(n);
  }
  return 2mJ * n;
}
interface E_leaf(n) {
  return 1uJ * n;
}
)";

constexpr char kFig1Source[] = R"(
const max_response_len = 1024;
interface E_ml_webservice_handle(image_size, n_zeros) {
  ecv request_hit ~ bernoulli(0.3);
  if (request_hit) {
    return E_cache_lookup(image_size, max_response_len);
  } else {
    return E_cnn_forward(image_size, n_zeros);
  }
}
interface E_cache_lookup(key_size, response_len) {
  ecv local_cache_hit ~ bernoulli(0.8);
  if (local_cache_hit) {
    return 0.001mJ * response_len;
  } else {
    return 0.1mJ * response_len;
  }
}
interface E_cnn_forward(image_size, n_zeros) {
  let n_embedding = 256;
  return 8 * (image_size - n_zeros) * 20nJ +
         8 * n_embedding * 0.1nJ +
         16 * n_embedding * 1.5nJ;
}
)";

TEST(TraceTest, FingerprintSeparatesDistinctEvents) {
  TraceEvent a;
  a.kind = TraceEventKind::kEnergyTerm;
  a.name = "E_x";
  a.value = Value::Number(1.0);
  TraceEvent b = a;
  EXPECT_EQ(TraceEventFingerprint(a), TraceEventFingerprint(b));
  b.value = Value::Number(2.0);
  EXPECT_NE(TraceEventFingerprint(a), TraceEventFingerprint(b));
  b = a;
  b.kind = TraceEventKind::kEcvDraw;
  EXPECT_NE(TraceEventFingerprint(a), TraceEventFingerprint(b));
}

TEST(TraceTest, TracedEnumerationEmitsSchema) {
  const Program program = MustParse(kTraceSource);
  RecordingTraceSink sink;
  EvalOptions options;
  options.trace = &sink;
  Evaluator evaluator(program, options);
  auto outcomes =
      evaluator.Enumerate("E_entry", {Value::Number(3.0)}, {});
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  EXPECT_EQ(outcomes->size(), 2u);

  const std::vector<TraceEvent> events = sink.TakeEvents();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, TraceEventKind::kPathStart);
  size_t starts = 0, ends = 0, draws = 0, enters = 0, terms = 0, branches = 0;
  double probability_sum = 0.0;
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::kPathStart: ++starts; break;
      case TraceEventKind::kPathEnd:
        ++ends;
        probability_sum += e.probability;
        break;
      case TraceEventKind::kEcvDraw: ++draws; break;
      case TraceEventKind::kInterfaceEnter: ++enters; break;
      case TraceEventKind::kEnergyTerm: ++terms; break;
      case TraceEventKind::kBranch: ++branches; break;
      default: break;
    }
  }
  EXPECT_EQ(starts, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_EQ(draws, 2u);      // one draw per path
  EXPECT_EQ(enters, 3u);     // entry twice + leaf once
  EXPECT_EQ(terms, 2u);      // one term per path
  EXPECT_EQ(branches, 2u);   // the if statement, decided on each path
  EXPECT_NEAR(probability_sum, 1.0, 1e-12);

  // The rendering carries names and the draw's distribution.
  const std::string text = FormatTrace(events);
  EXPECT_NE(text.find("E_entry"), std::string::npos) << text;
  EXPECT_NE(text.find("E_entry.hit"), std::string::npos) << text;
}

TEST(TraceTest, TracingDoesNotChangeOutcomes) {
  const Program program = MustParse(kTraceSource);
  RecordingTraceSink sink;
  EvalOptions traced;
  traced.trace = &sink;
  Evaluator with(program, traced);
  Evaluator without(program);
  const std::vector<Value> args = {Value::Number(3.0)};
  auto a = with.EvalDistribution("E_entry", args, {});
  auto b = without.EvalDistribution("E_entry", args, {});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->Mean(), b->Mean());
  EXPECT_DOUBLE_EQ(a->Stddev(), b->Stddev());
}

TEST(TraceTest, TracedBytecodeEvaluatorEmitsTreeWalkEvents) {
  // Only the tree walk emits events, so a traced evaluator's engine setting
  // must not change its stream.
  const Program program = MustParse(kFig1Source);
  const std::vector<Value> args = {Value::Number(50176.0),
                                   Value::Number(10000.0)};
  const auto fingerprints = [&](EvalEngine engine) {
    RecordingTraceSink sink;
    EvalOptions options;
    options.engine = engine;
    options.trace = &sink;
    Evaluator evaluator(program, options);
    EXPECT_TRUE(evaluator.Enumerate("E_ml_webservice_handle", args, {}).ok());
    std::vector<std::string> out;
    for (const TraceEvent& event : sink.TakeEvents()) {
      out.push_back(TraceEventFingerprint(event));
    }
    return out;
  };
  const std::vector<std::string> bytecode = fingerprints(EvalEngine::kBytecode);
  EXPECT_FALSE(bytecode.empty());
  EXPECT_EQ(bytecode, fingerprints(EvalEngine::kTreeWalk));
}

TEST(TraceTest, ChromeTraceIsWellFormed) {
  const Program program = MustParse(kTraceSource);
  RecordingTraceSink sink;
  EvalOptions options;
  options.trace = &sink;
  Evaluator evaluator(program, options);
  ASSERT_TRUE(evaluator.Enumerate("E_entry", {Value::Number(3.0)}, {}).ok());

  std::ostringstream out;
  WriteChromeTrace(sink.TakeEvents(), "E_entry", out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') { ++i; } else if (c == '"') { in_string = false; }
      continue;
    }
    if (c == '"') { in_string = true; }
    if (c == '[' || c == '{') { ++depth; }
    if (c == ']' || c == '}') { --depth; }
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// --- Accuracy monitor ------------------------------------------------------

TEST(AccuracyTest, TracksRelativeErrorStats) {
  AccuracyMonitor monitor(/*drift_threshold=*/0.10, /*window=*/4);
  monitor.Record("sim", 105.0, 100.0);  // 5% error
  monitor.Record("sim", 90.0, 100.0);   // 10% error
  const auto stats = monitor.Stats("sim");
  EXPECT_EQ(stats.samples, 2u);
  EXPECT_NEAR(stats.mean_abs_rel_error, 0.075, 1e-12);
  EXPECT_NEAR(stats.max_abs_rel_error, 0.10, 1e-12);
  EXPECT_DOUBLE_EQ(stats.predicted_total_j, 195.0);
  EXPECT_DOUBLE_EQ(stats.measured_total_j, 200.0);
  EXPECT_FALSE(monitor.AnyDrift());
}

TEST(AccuracyTest, DriftAlarmTripsAndClears) {
  AccuracyMonitor monitor(/*drift_threshold=*/0.10, /*window=*/4);
  for (int i = 0; i < 4; ++i) {
    monitor.Record("drifty", 130.0, 100.0);  // 30% error
  }
  EXPECT_TRUE(monitor.Stats("drifty").drift_alarm);
  EXPECT_TRUE(monitor.AnyDrift());
  // Four accurate samples push the bad ones out of the window.
  for (int i = 0; i < 4; ++i) {
    monitor.Record("drifty", 101.0, 100.0);
  }
  EXPECT_FALSE(monitor.Stats("drifty").drift_alarm);
  EXPECT_FALSE(monitor.AnyDrift());
}

TEST(AccuracyTest, ZeroMeasuredCountsTowardTotalsOnly) {
  AccuracyMonitor monitor;
  monitor.Record("s", 5.0, 0.0);
  const auto stats = monitor.Stats("s");
  EXPECT_EQ(stats.samples, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_abs_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(stats.predicted_total_j, 5.0);
}

TEST(AccuracyTest, QuarantineSkipsErrorStatsButCountsSamples) {
  AccuracyMonitor monitor(/*drift_threshold=*/0.10, /*window=*/4);
  monitor.Record("s", 100.0, 100.0);
  monitor.Quarantine("s");
  EXPECT_TRUE(monitor.IsQuarantined("s"));
  // Garbage while quarantined must not pollute error statistics or totals.
  monitor.Record("s", 100.0, 1e6);
  const auto stats = monitor.Stats("s");
  EXPECT_EQ(stats.samples, 2u);
  EXPECT_EQ(stats.quarantined_samples, 1u);
  EXPECT_TRUE(stats.quarantined);
  EXPECT_DOUBLE_EQ(stats.mean_abs_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(stats.measured_total_j, 100.0);
  EXPECT_FALSE(stats.drift_alarm);
}

TEST(AccuracyTest, UnquarantineClearsTheDriftWindow) {
  AccuracyMonitor monitor(/*drift_threshold=*/0.10, /*window=*/4);
  for (int i = 0; i < 4; ++i) {
    monitor.Record("s", 130.0, 100.0);  // 30% error: alarm trips
  }
  EXPECT_TRUE(monitor.Stats("s").drift_alarm);
  monitor.Quarantine("s");
  monitor.Unquarantine("s");
  // The pre-quarantine window is stale evidence; healing starts clean.
  EXPECT_FALSE(monitor.IsQuarantined("s"));
  EXPECT_FALSE(monitor.Stats("s").drift_alarm);
  monitor.Record("s", 101.0, 100.0);
  EXPECT_FALSE(monitor.Stats("s").drift_alarm);
}

TEST(AccuracyTest, QuarantineShowsInReportAndExport) {
  AccuracyMonitor monitor;
  monitor.Record("flaky", 10.0, 10.0);
  monitor.Quarantine("flaky");
  EXPECT_NE(monitor.Report().find("[QUARANTINED]"), std::string::npos)
      << monitor.Report();
  MetricsRegistry registry;
  monitor.ExportTo(registry);
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("eclarity_accuracy_flaky_quarantined"),
            std::string::npos)
      << prom;
}

TEST(AccuracyTest, ExportSanitizesSourceNames) {
  AccuracyMonitor monitor;
  monitor.Record("energy-interface", 1.0, 1.0);
  MetricsRegistry registry;
  monitor.ExportTo(registry);
  const std::string prom = registry.ToPrometheusText();
  // '-' is illegal in a Prometheus metric name; the exporter maps it to '_'.
  EXPECT_NE(prom.find("eclarity_accuracy_energy_interface_samples"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("energy-interface"), std::string::npos);
}

TEST(AccuracyTest, ReportListsSources) {
  AccuracyMonitor monitor;
  monitor.Record("webservice", 11.0, 10.0);
  const std::string report = monitor.Report();
  EXPECT_NE(report.find("webservice"), std::string::npos) << report;
}

// --- Log sink --------------------------------------------------------------

TEST(LoggingTest, SinkReceivesWholeRecords) {
  std::vector<std::string> records;
  SetLogSink([&records](LogSeverity, const std::string& record) {
    records.push_back(record);
  });
  const LogSeverity old_threshold = GetLogThreshold();
  SetLogThreshold(LogSeverity::kWarning);
  ECLARITY_LOG(Warning) << "first " << 1;
  ECLARITY_LOG(Info) << "suppressed";
  SetLogSink(nullptr);
  SetLogThreshold(old_threshold);

  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].find("first 1"), std::string::npos) << records[0];
  // One complete record, no embedded newline (single-write contract).
  EXPECT_EQ(records[0].find('\n'), std::string::npos);
}

// --- Provenance ------------------------------------------------------------

TEST(ProvenanceTest, Fig1RootTotalMatchesExpectation) {
  const Program program = MustParse(kFig1Source);
  const std::vector<Value> args = {Value::Number(50176.0),
                                   Value::Number(10000.0)};
  auto tree = ComputeProvenance(program, "E_ml_webservice_handle", args, {});
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  Evaluator evaluator(program);
  auto expected =
      evaluator.ExpectedEnergy("E_ml_webservice_handle", args, {});
  ASSERT_TRUE(expected.ok());

  EXPECT_DOUBLE_EQ(tree->expected_joules, expected->joules());
  // The composition is linear in its energy literals: the per-site deltas
  // partition the total and the tree reproduces it.
  EXPECT_NEAR(tree->attributed_joules, tree->expected_joules,
              1e-12 * tree->expected_joules + 1e-18);
  EXPECT_NEAR(tree->root.subtree_joules, tree->expected_joules,
              1e-12 * tree->expected_joules + 1e-18);
  EXPECT_EQ(tree->path_count, 3u);
  EXPECT_FALSE(tree->sites.empty());
  EXPECT_DOUBLE_EQ(tree->root.expected_calls, 1.0);

  const std::string rendering = RenderProvenanceTree(*tree);
  EXPECT_NE(rendering.find("E_ml_webservice_handle"), std::string::npos);
  EXPECT_NE(rendering.find("E_cnn_forward"), std::string::npos);
}

// The three-layer stack from tests/stack_test.cc: provenance per-layer sums
// must agree with the stack's own layer attribution, since both are exact
// ablation deltas on a literal-linear composition.
constexpr char kHw[] = R"(
interface E_cpu_op(n) { return n * 1nJ; }
interface E_mem_read(bytes) { return bytes * 0.1nJ; }
)";
constexpr char kRuntime[] = R"(
interface E_vm_dispatch(n_ops) {
  return E_cpu_op(n_ops * 12) + 2uJ;
}
)";
constexpr char kApp[] = R"(
interface E_handle_request(size) {
  ecv cached ~ bernoulli(0.5);
  if (cached) {
    return E_mem_read(size) + 1uJ;
  }
  return E_vm_dispatch(size * 4) + E_mem_read(size * 16) + 1uJ;
}
)";

TEST(ProvenanceTest, PerLayerSumsMatchStackAttribution) {
  SystemStack stack;
  ResourceManager hw("hardware");
  ASSERT_TRUE(hw.AddResource({"cpu+mem", MustParse(kHw)}).ok());
  ResourceManager runtime("runtime");
  ASSERT_TRUE(runtime.AddGlue(kRuntime).ok());
  ResourceManager app("application");
  ASSERT_TRUE(app.AddGlue(kApp).ok());
  ASSERT_TRUE(stack.AddLayer(std::move(hw)).ok());
  ASSERT_TRUE(stack.AddLayer(std::move(runtime)).ok());
  ASSERT_TRUE(stack.AddLayer(std::move(app)).ok());

  const std::vector<Value> args = {Value::Number(100.0)};
  auto by_layer = stack.AttributeByLayer("E_handle_request", args);
  ASSERT_TRUE(by_layer.ok()) << by_layer.status().ToString();

  auto iface = stack.Compose("E_handle_request");
  ASSERT_TRUE(iface.ok());
  auto tree = iface->Provenance(args, stack.CombinedPolicy());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  // Map each term site to the layer whose exported program owns it.
  auto owning_layer = [&stack](const std::string& owner) -> std::string {
    std::string name = owner;
    const bool is_const = owner.rfind("const:", 0) == 0;
    if (is_const) {
      name = owner.substr(6);
    }
    for (const ResourceManager& layer : stack.layers()) {
      auto exported = layer.ComposeExported();
      if (!exported.ok()) {
        continue;
      }
      if (is_const) {
        for (const ConstDecl& decl : exported->consts()) {
          if (decl.name == name) {
            return layer.name();
          }
        }
      } else if (exported->FindInterface(name) != nullptr) {
        return layer.name();
      }
    }
    return "";
  };

  for (const LayerContribution& contribution : *by_layer) {
    double provenance_sum = 0.0;
    for (const TermSite& site : tree->sites) {
      if (owning_layer(site.owner) == contribution.layer) {
        provenance_sum += site.delta_joules;
      }
    }
    EXPECT_NEAR(provenance_sum, contribution.own_energy.joules(), 1e-15)
        << contribution.layer;
  }
}

TEST(ProvenanceTest, Gpt2ProvenanceMatchesExpected) {
  const GpuProfile profile = Rtx4090LikeProfile();
  Gpt2Model model;
  auto gpt2 = Gpt2EnergyInterface(model, profile);
  ASSERT_TRUE(gpt2.ok()) << gpt2.status().ToString();
  auto hw = GpuVendorInterface(profile);
  ASSERT_TRUE(hw.ok());
  auto open_iface = EnergyInterface::FromProgram(
      std::move(*gpt2), "E_gpt2_generate", {"E_gpu_kernel", "E_gpu_idle"});
  ASSERT_TRUE(open_iface.ok()) << open_iface.status().ToString();
  auto iface = open_iface->Link(*hw);
  ASSERT_TRUE(iface.ok()) << iface.status().ToString();

  const std::vector<Value> args = {Value::Number(16.0), Value::Number(50.0)};
  auto expected = iface->Expected(args);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto tree = iface->Provenance(args);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  EXPECT_DOUBLE_EQ(tree->expected_joules, expected->joules());
  EXPECT_NEAR(tree->attributed_joules + tree->unattributed_joules,
              tree->expected_joules, 1e-9 * std::abs(tree->expected_joules));
  EXPECT_FALSE(tree->sites.empty());
  EXPECT_GT(tree->root.subtree_joules, 0.0);
}

}  // namespace
}  // namespace eclarity
