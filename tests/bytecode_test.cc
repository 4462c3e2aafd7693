// Edge tests for the register bytecode VM (src/eval/bytecode.h) that the
// engine-parity harnesses cannot see from the outside: constant-pool
// deduplication, superinstruction parity with the tree walk, register-frame
// reuse across nested calls, inlined calls' budgets and dispatch counts, and
// profile-swap respecialization rekeying the query-service cache. Broad
// value/error parity with the tree walk lives in
// tests/engine_parity_test.cc, tests/differential_test.cc and
// tests/eval_edge_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/eval/bytecode.h"
#include "src/eval/ecv_profile.h"
#include "src/eval/interp.h"
#include "src/eval/lower.h"
#include "src/eval/vm_profile.h"
#include "src/lang/parser.h"
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

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Fingerprint(const Value& v) {
  std::string out;
  v.AppendFingerprint(out);
  return out;
}

std::shared_ptr<const BytecodeProgram> MustCompile(
    const LoweredProgram& lowered,
    const BytecodeProgram::CompileOptions& options = {}) {
  auto bc = BytecodeProgram::Compile(lowered, options);
  EXPECT_TRUE(bc.ok()) << bc.status().ToString();
  return std::move(bc).value();
}

// One enumerated path, captured bit-exactly.
struct PathOutcome {
  std::string value_fp;
  uint64_t probability_bits = 0;
  std::vector<std::pair<std::string, Value>> assignments;
};

// Enumerates the full ECV tree through an existing interpreter, mirroring
// the driving loop in Evaluator::Enumerate. Takes the vm and its chooser by
// reference so a test can re-run the same (reused) frame.
Result<std::vector<PathOutcome>> EnumerateVm(
    BytecodeInterpreter& vm, eval_internal::EnumeratingChooser& chooser,
    const std::string& entry, const std::vector<Value>& args) {
  std::vector<PathOutcome> outcomes;
  for (;;) {
    vm.Reset();
    ECLARITY_ASSIGN_OR_RETURN(Value value, vm.CallByName(entry, args));
    PathOutcome o;
    o.value_fp = Fingerprint(value);
    o.probability_bits = Bits(chooser.probability());
    o.assignments = chooser.TakeAssignments();
    outcomes.push_back(std::move(o));
    if (!chooser.Advance()) {
      break;
    }
  }
  return outcomes;
}

void ExpectSameOutcomes(const std::vector<PathOutcome>& a,
                        const std::vector<PathOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("path " + std::to_string(i));
    EXPECT_EQ(a[i].value_fp, b[i].value_fp);
    EXPECT_EQ(a[i].probability_bits, b[i].probability_bits);
    ASSERT_EQ(a[i].assignments.size(), b[i].assignments.size());
    for (size_t j = 0; j < a[i].assignments.size(); ++j) {
      EXPECT_EQ(a[i].assignments[j].first, b[i].assignments[j].first);
      EXPECT_EQ(Fingerprint(a[i].assignments[j].second),
                Fingerprint(b[i].assignments[j].second));
    }
  }
}

TEST(BytecodeCompilerTest, ConstantPoolDeduplicatesRepeatedLiterals) {
  // The same 2mJ literal in five argument positions, plus one distinct
  // literal. None of the uses is constant-foldable (each multiplies the
  // runtime argument), so the compiler sees six kConst sites.
  const Program program = MustParse(R"(
interface f(x) {
  return x * 2mJ + x * 2mJ + x * 2mJ + x * 2mJ + x * 2mJ + x * 5mJ;
}
)");
  const Program single = MustParse(R"(
interface f(x) {
  return x * 2mJ + x * 5mJ;
}
)");
  const size_t support = EvalOptions().max_ecv_support;
  const LoweredProgram lowered = LoweredProgram::Lower(program, support);
  const LoweredProgram lowered_single =
      LoweredProgram::Lower(single, support);
  const auto bc = MustCompile(lowered);
  const auto bc_single = MustCompile(lowered_single);
  // Five uses of the same value share one pool entry: both programs pool
  // exactly the same set of distinct constants.
  EXPECT_EQ(bc->constant_pool_size(), bc_single->constant_pool_size());
  EXPECT_GE(bc->instruction_count(), bc_single->instruction_count());
}

TEST(BytecodeCompilerTest, SuperinstructionsAreBitIdenticalToTreeWalk) {
  // Fig. 1 exercises both superinstruction shapes: the CNN interface is a
  // fused sum-of-terms chain (kFoldChain) and both bernoulli draws guard
  // an immediate if (kEcvDrawBranch).
  const Program program = MustParse(parity::kFig1Source);
  const EvalOptions options;
  const LoweredProgram lowered =
      LoweredProgram::Lower(program, options.max_ecv_support);
  const auto fused = MustCompile(lowered);
  EXPECT_GT(fused->superinstruction_count(), 0u);

  const std::vector<Value> args = {Value::Number(64), Value::Number(16)};
  const EcvProfile profile;
  eval_internal::EnumeratingChooser chooser;
  BytecodeInterpreter vm(*fused, options, profile, chooser);
  auto fused_out = EnumerateVm(vm, chooser, "E_ml_webservice_handle", args);
  ASSERT_TRUE(fused_out.ok()) << fused_out.status().ToString();
  ASSERT_EQ(fused_out->size(), 3u);  // hit/local-hit, hit/local-miss, miss

  EvalOptions tree_options;
  tree_options.engine = EvalEngine::kTreeWalk;
  const Evaluator tree(program, tree_options);
  auto reference = tree.Enumerate("E_ml_webservice_handle", args, profile);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<PathOutcome> tree_out;
  for (WeightedOutcome& o : *reference) {
    tree_out.push_back({Fingerprint(o.value), Bits(o.probability),
                        std::move(o.ecv_assignments)});
  }
  ExpectSameOutcomes(*fused_out, tree_out);
}

TEST(BytecodeInterpreterTest, FrameReuseAcrossNestedCalls) {
  // Three-deep call chain with a draw at every level, so enumeration
  // re-enters the nested frames on every path. One interpreter runs the
  // whole tree twice over the same register storage; both sweeps must be
  // bit-identical to each other and to the tree walk.
  const Program program = MustParse(R"(
interface outer(x) {
  ecv a ~ bernoulli(0.5);
  return middle(x) + (a ? 1mJ : 2mJ);
}
interface middle(x) {
  ecv b ~ bernoulli(0.25);
  return inner(x) * (b ? 2 : 3);
}
interface inner(x) {
  ecv c ~ uniform_int(0, 2);
  return x * 1mJ + c * 10uJ;
}
)");
  const EvalOptions options;
  const LoweredProgram lowered =
      LoweredProgram::Lower(program, options.max_ecv_support);
  const auto bc = MustCompile(lowered);
  const std::vector<Value> args = {Value::Number(3)};
  const EcvProfile profile;
  eval_internal::EnumeratingChooser chooser;
  BytecodeInterpreter vm(*bc, options, profile, chooser);
  auto first = EnumerateVm(vm, chooser, "outer", args);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), 12u);  // 2 * 2 * 3 assignments
  // Second sweep on the same interpreter: Reset() retains the register
  // and frame storage, so any stale-state leak between runs shows up as
  // a bit difference here.
  chooser.Reset();
  auto second = EnumerateVm(vm, chooser, "outer", args);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectSameOutcomes(*first, *second);

  EvalOptions tree_options;
  tree_options.engine = EvalEngine::kTreeWalk;
  Evaluator tree(program, tree_options);
  auto reference = tree.Enumerate("outer", args, profile);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->size(), first->size());
  for (size_t i = 0; i < reference->size(); ++i) {
    SCOPED_TRACE("path " + std::to_string(i));
    EXPECT_EQ(Fingerprint((*reference)[i].value), (*first)[i].value_fp);
    EXPECT_EQ(Bits((*reference)[i].probability),
              (*first)[i].probability_bits);
  }
}

// --- Inlined calls ---------------------------------------------------------

std::string ReadExample(const char* name) {
  std::ifstream file(std::string(ECLARITY_SOURCE_DIR "/examples/eil/") + name);
  EXPECT_TRUE(file) << name;
  std::ostringstream source;
  source << file.rdbuf();
  return source.str();
}

uint64_t OpHits(const VmProfiler::Snapshot& snap, BcOp op) {
  for (const VmProfiler::OpStat& stat : snap.ops) {
    if (stat.op == static_cast<uint8_t>(op)) {
      return stat.hits;
    }
  }
  return 0;
}

uint64_t BudgetDepthCount() {
  return MetricsRegistry::Global()
      .GetCounter("eclarity_eval_budget_depth_exhausted_total")
      .value();
}

TEST(BytecodeInlineTest, Fig1MonteCarloSampleMakesNoCall) {
  // examples/eil/fig1_webservice.eil composes five callees under the
  // web-service interface, two levels deep; every one expands in place, so
  // a sample dispatches no kCall and only the entry's kReturn.
  const Program program = MustParse(ReadExample("fig1_webservice.eil"));
  EvalOptions options;
  options.engine = EvalEngine::kBytecode;
  VmProfiler profiler(/*sample_interval=*/1);
  options.vm_profiler = &profiler;
  {
    Evaluator evaluator(program, options);
    Rng rng(1);
    auto mean = evaluator.MonteCarloMean(
        "E_ml_webservice_handle",
        {Value::Number(50176.0), Value::Number(10000.0)}, {}, rng, 256);
    ASSERT_TRUE(mean.ok()) << mean.status().ToString();
  }
  const VmProfiler::Snapshot snap = profiler.TakeSnapshot();
  EXPECT_EQ(OpHits(snap, BcOp::kCall), 0u);
  EXPECT_EQ(OpHits(snap, BcOp::kReturn), 256u);
  // Every sample enters at least one inlined callee.
  EXPECT_GE(OpHits(snap, BcOp::kEnter), 256u);
}

// Runs `entry(x)` on both engines under `options` and checks that both
// fail with the same code and message, and count budget_depth alike.
void ExpectSameBudgetError(const Program& program, EvalOptions options,
                           double x, const std::string& message,
                           uint64_t depth_counts) {
  for (EvalEngine engine : {EvalEngine::kTreeWalk, EvalEngine::kBytecode}) {
    SCOPED_TRACE(engine == EvalEngine::kTreeWalk ? "tree" : "bytecode");
    options.engine = engine;
    Evaluator evaluator(program, options);
    const uint64_t depth_before = BudgetDepthCount();
    Rng rng(1);
    auto v = evaluator.EvalSampled("top", {Value::Number(x)}, {}, rng);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(v.status().message(), message);
    EXPECT_EQ(BudgetDepthCount() - depth_before, depth_counts);
  }
}

TEST(BytecodeInlineTest, BudgetsInsideInlinedBodiesMatchTheTreeWalk) {
  // `mid` expands into `top` at nesting level 1 and `leaf` into it at
  // level 2; a sample runs four statements at call depths 1, 2, 3, 3.
  const Program program = MustParse(R"(
interface top(x) { return mid(x) + 1mJ; }
interface mid(a) { return leaf(a) * 2; }
interface leaf(n) {
  let m = n + 1;
  return m * 1mJ;
}
)");
  EvalOptions options;
  {
    options.engine = EvalEngine::kBytecode;
    VmProfiler profiler(/*sample_interval=*/1);
    options.vm_profiler = &profiler;
    {
      Evaluator evaluator(program, options);
      Rng rng(1);
      auto v = evaluator.EvalSampled("top", {Value::Number(2.0)}, {}, rng);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      EXPECT_EQ(v.value(), Value::Joules(7e-3));
    }
    const VmProfiler::Snapshot snap = profiler.TakeSnapshot();
    EXPECT_EQ(OpHits(snap, BcOp::kCall), 0u);
    EXPECT_EQ(OpHits(snap, BcOp::kEnter), 2u);
    options.vm_profiler = nullptr;
  }
  {
    SCOPED_TRACE("failing call inlined at level 1");
    EvalOptions depth = options;
    depth.max_call_depth = 1;
    ExpectSameBudgetError(program, depth, 2.0,
                          "interface call depth limit exceeded at 'mid'", 1);
  }
  {
    SCOPED_TRACE("failing call inlined at level 2");
    EvalOptions depth = options;
    depth.max_call_depth = 2;
    ExpectSameBudgetError(program, depth, 2.0,
                          "interface call depth limit exceeded at 'leaf'", 1);
  }
  {
    SCOPED_TRACE("steps run out at an inlined body's first statement");
    EvalOptions steps = options;
    steps.max_steps = 2;
    ExpectSameBudgetError(program, steps, 2.0,
                          "statement budget exhausted in 'leaf' at 5:3", 0);
  }
  {
    SCOPED_TRACE("steps run out inside an inlined body");
    EvalOptions steps = options;
    steps.max_steps = 3;
    ExpectSameBudgetError(program, steps, 2.0,
                          "statement budget exhausted in 'leaf' at 6:3", 0);
  }
}

TEST(BytecodeInlineTest, RecursiveCalleesStayOutOfLine) {
  // rec_top(5) calls rec_fact five times and rec_even/rec_odd six times,
  // each through kCall; the leaf rec_unit expands into rec_fact's body.
  const Program program = MustParse(parity::kRecursiveSource);
  EvalOptions options;
  options.engine = EvalEngine::kBytecode;
  VmProfiler profiler(/*sample_interval=*/1);
  options.vm_profiler = &profiler;
  {
    Evaluator evaluator(program, options);
    auto outcomes = evaluator.Enumerate("rec_top", {Value::Number(5.0)}, {});
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    ASSERT_EQ(outcomes->size(), 1u);
    EXPECT_NEAR((*outcomes)[0].value.joules(), 122e-6, 1e-15);
  }
  const VmProfiler::Snapshot snap = profiler.TakeSnapshot();
  EXPECT_EQ(OpHits(snap, BcOp::kCall), 11u);
  EXPECT_EQ(OpHits(snap, BcOp::kReturn), 12u);
  EXPECT_EQ(OpHits(snap, BcOp::kEnter), 1u);
}

TEST(BytecodeSpecializationTest, PrepareSpecializedSwapsFingerprint) {
  const Program program = MustParse(parity::kFig1Source);
  EvalOptions options;
  options.engine = EvalEngine::kBytecode;
  Evaluator evaluator(program, options);
  EcvProfile p0;
  p0.SetBernoulli("request_hit", 0.2);
  EcvProfile p1;
  p1.SetBernoulli("request_hit", 0.9);
  evaluator.PrepareSpecialized(p0);
  const auto bc0 = evaluator.specialized_bytecode();
  ASSERT_NE(bc0, nullptr);
  EXPECT_TRUE(bc0->specialized());
  EXPECT_EQ(bc0->specialization_fingerprint(), p0.Fingerprint());
  // Re-specializing swaps in a fresh program keyed to the new profile;
  // the old one stays valid for readers that still hold it.
  evaluator.PrepareSpecialized(p1);
  const auto bc1 = evaluator.specialized_bytecode();
  ASSERT_NE(bc1, nullptr);
  EXPECT_NE(bc1, bc0);
  EXPECT_EQ(bc1->specialization_fingerprint(), p1.Fingerprint());
  EXPECT_EQ(bc0->specialization_fingerprint(), p0.Fingerprint());
}

TEST(BytecodeSpecializationTest, ProfileSwapRespecializesAndRekeysCache) {
  QueryService::Options options;
  options.eval.engine = EvalEngine::kBytecode;
  EcvProfile p0;
  p0.SetBernoulli("hit", 0.25);
  EcvProfile p1;
  p1.SetBernoulli("hit", 0.75);
  auto service = QueryService::Create(MustParse(R"(
interface f(x) {
  ecv hit ~ bernoulli(0.5);
  if (hit) {
    return 1mJ * x;
  } else {
    return 3mJ * x;
  }
}
)"),
                                      options, p0);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  QueryService& svc = **service;
  Query query;
  query.interface = "f";
  query.args = {Value::Number(2)};

  auto first = svc.Expected(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(svc.TotalCacheStats().misses, 1u);
  // A repeat under the same profile is a cache answer, not a re-fold.
  auto repeat = svc.Expected(query);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(Bits(repeat->joules()), Bits(first->joules()));
  EXPECT_EQ(svc.TotalCacheStats().misses, 1u);

  // Swapping the base profile re-specializes the snapshot and rekeys the
  // cache: the same query must miss again and fold a different answer.
  svc.UpdateProfile(p1);
  auto swapped = svc.Expected(query);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(svc.TotalCacheStats().misses, 2u);
  EXPECT_NE(Bits(swapped->joules()), Bits(first->joules()));
  // 0.25 * 2mJ + 0.75 * 6mJ vs 0.75 * 2mJ + 0.25 * 6mJ.
  EXPECT_DOUBLE_EQ(first->millijoules(), 5.0);
  EXPECT_DOUBLE_EQ(swapped->millijoules(), 3.0);

  // Swapping back publishes a third snapshot, so the query folds again,
  // and the answer is bit-identical to the first.
  svc.UpdateProfile(p0);
  auto back = svc.Expected(query);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(svc.TotalCacheStats().misses, 3u);
  EXPECT_EQ(Bits(back->joules()), Bits(first->joules()));
}

// --- VM profiler -----------------------------------------------------------

// Inline-arithmetic interface whose left spine of additions compiles to a
// kFoldChain superinstruction — the hottest opcode by construction, since
// one fold-chain dispatch does the work of several binary ops.
constexpr char kFoldChainSource[] = R"(
const n_embedding = 256;
interface E_cnn_forward(image_size, n_zeros) {
  return 8 * (image_size - n_zeros) * 20nJ
       + 8 * n_embedding * 0.1nJ
       + 16 * n_embedding * 1.5nJ;
}
)";

TEST(VmProfilerTest, IntervalOneCountsEveryDispatch) {
  const Program program = MustParse(kFoldChainSource);
  EvalOptions options;
  options.engine = EvalEngine::kBytecode;
  options.enum_cache_capacity = 0;
  VmProfiler profiler(/*sample_interval=*/1);
  options.vm_profiler = &profiler;
  Evaluator evaluator(program, options);

  const std::vector<Value> args = {Value::Number(1024.0), Value::Number(64.0)};
  constexpr int kRepeats = 50;
  for (int i = 0; i < kRepeats; ++i) {
    auto dist = evaluator.EvalDistribution("E_cnn_forward", args, {});
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  }

  const VmProfiler::Snapshot snap = profiler.TakeSnapshot();
  ASSERT_GT(snap.dispatches, 0u);
  uint64_t hit_sum = 0;
  for (const VmProfiler::OpStat& op : snap.ops) {
    hit_sum += op.hits;
  }
  // Hit counters are exact regardless of the sampling interval.
  EXPECT_EQ(hit_sum, snap.dispatches);
  // At interval 1 every instruction is timed, except returning ones (they
  // leave the dispatch loop before the post-dispatch timing hook).
  EXPECT_GT(snap.samples, 0u);
  EXPECT_LT(snap.samples, snap.dispatches);
  EXPECT_GE(snap.samples, snap.dispatches / 2);
  // The run count is stable across calls: dispatches divide evenly.
  EXPECT_EQ(snap.dispatches % kRepeats, 0u);
}

TEST(VmProfilerTest, ProfiledRunIsBitIdenticalToUnprofiled) {
  const Program program = MustParse(parity::kFig1Source);
  const std::vector<Value> args = {Value::Number(50176.0),
                                   Value::Number(10000.0)};

  EvalOptions plain;
  plain.engine = EvalEngine::kBytecode;
  plain.enum_cache_capacity = 0;
  Evaluator unprofiled(program, plain);
  auto reference = unprofiled.EvalDistribution("E_ml_webservice_handle", args, {});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  VmProfiler profiler(/*sample_interval=*/2);
  EvalOptions profiled = plain;
  profiled.vm_profiler = &profiler;
  Evaluator instrumented(program, profiled);
  auto observed = instrumented.EvalDistribution("E_ml_webservice_handle", args, {});
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();

  EXPECT_EQ(Bits(observed->Mean()), Bits(reference->Mean()));
  ASSERT_EQ(observed->atoms().size(), reference->atoms().size());
  for (size_t i = 0; i < reference->atoms().size(); ++i) {
    EXPECT_EQ(Bits(observed->atoms()[i].value), Bits(reference->atoms()[i].value));
    EXPECT_EQ(Bits(observed->atoms()[i].probability),
              Bits(reference->atoms()[i].probability));
  }
  EXPECT_GT(profiler.TakeSnapshot().dispatches, 0u);
}

TEST(VmProfilerTest, FoldChainIsHottestOpOnBenchShape) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "sanitizer instrumentation distorts per-op timings";
#endif
  const Program program = MustParse(kFoldChainSource);
  EvalOptions options;
  options.engine = EvalEngine::kBytecode;
  options.enum_cache_capacity = 0;
  VmProfiler profiler(/*sample_interval=*/4);
  options.vm_profiler = &profiler;
  Evaluator evaluator(program, options);

  const std::vector<Value> args = {Value::Number(1024.0), Value::Number(64.0)};
  for (int i = 0; i < 3000; ++i) {
    auto dist = evaluator.EvalDistribution("E_cnn_forward", args, {});
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  }

  const VmProfiler::Snapshot snap = profiler.TakeSnapshot();
  ASSERT_FALSE(snap.ops.empty());
  // The random-phase systematic sampler must reach every site, not alias
  // onto one pc (runs here are much shorter than the sampling period).
  size_t sampled_sites = 0;
  for (const VmProfiler::SiteStat& site : snap.sites) {
    if (site.samples > 0) {
      ++sampled_sites;
    }
  }
  EXPECT_GE(sampled_sites, 4u);
  EXPECT_EQ(snap.HottestOp(), "kFoldChain");
}

TEST(VmProfilerTest, Gpt2GenerateDispatchCount) {
  // One E_gpt2_generate(512, 16) evaluation: a binary operator reads its
  // constant operand straight from the pool, so only call arguments and
  // stored constants take a kConst, and every callee expands in place, so
  // no call pays a kCall, a parameter copy or a kReturn. Calling them out of
  // line reads 795 dispatches; loading every constant operand with a kConst
  // as well reads 1,066, 293 of them kConst.
  const Program program = MustParse(ReadExample("gpt2_rtx4090.eil"));
  EvalOptions options;
  options.engine = EvalEngine::kBytecode;
  VmProfiler profiler(/*sample_interval=*/1);
  options.vm_profiler = &profiler;
  Evaluator evaluator(program, options);
  auto outcomes = evaluator.Enumerate(
      "E_gpt2_generate", {Value::Number(512.0), Value::Number(16.0)}, {});
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), 1u);

  const VmProfiler::Snapshot snap = profiler.TakeSnapshot();
  EXPECT_EQ(snap.dispatches, 593u);
  EXPECT_EQ(OpHits(snap, BcOp::kConst), 22u);
  EXPECT_EQ(OpHits(snap, BcOp::kCall), 0u);
}

TEST(VmProfilerTest, QueryServiceAttributesCostPerInterface) {
  QueryService::Options options;
  options.eval.engine = EvalEngine::kBytecode;
  VmProfiler profiler(/*sample_interval=*/2);
  options.eval.vm_profiler = &profiler;
  auto service =
      QueryService::Create(MustParse(parity::kFig1Source), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  for (int i = 0; i < 256; ++i) {
    Query query;
    query.interface = "E_ml_webservice_handle";
    query.args = {Value::Number(1000.0 + i), Value::Number(100.0)};
    query.kind = QueryKind::kExpected;
    auto outcome = (*service)->Dispatch(query);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }

  const VmProfiler::Snapshot snap = profiler.TakeSnapshot();
  ASSERT_GT(snap.dispatches, 0u);
  ASSERT_FALSE(snap.ifaces.empty());
  // Every sampled site resolves to a real interface of the program, and
  // code inlined into the web-service interface is charged to its callee.
  bool cache_lookup_charged = false;
  for (const VmProfiler::IfaceStat& iface : snap.ifaces) {
    EXPECT_TRUE(iface.iface == "E_ml_webservice_handle" ||
                iface.iface == "E_cache_lookup" ||
                iface.iface == "E_cnn_forward")
        << iface.iface;
    cache_lookup_charged |= iface.iface == "E_cache_lookup";
  }
  EXPECT_TRUE(cache_lookup_charged);
  // The formatted report carries the per-interface table.
  const std::string report = FormatVmProfile(snap);
  EXPECT_NE(report.find("E_"), std::string::npos);
}

}  // namespace
}  // namespace eclarity
