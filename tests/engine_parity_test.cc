// Parity tests for the two evaluation engines: the register bytecode VM
// (EvalEngine::kBytecode, the default) must be observationally identical to
// the tree-walking reference interpreter (EvalEngine::kTreeWalk) — same
// outcome values and probability bits, ECV draw order, sampled values, and
// error codes and messages. A traced evaluator runs the tree walk and must
// answer as the untraced bytecode one does. Also covers the tree walk
// serving when bytecode compilation overflows, and Monte Carlo: the same
// seed gives the same bits, or the same error, on both engines.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/eval/batch.h"
#include "src/eval/interp.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/parity_programs.h"

namespace eclarity {
namespace {

std::vector<Value> NumberArgs(const std::vector<double>& xs) {
  std::vector<Value> args;
  args.reserve(xs.size());
  for (double x : xs) {
    args.push_back(Value::Number(x));
  }
  return args;
}

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

EvalOptions BytecodeOptions() {
  EvalOptions options;
  options.engine = EvalEngine::kBytecode;
  return options;
}

EvalOptions TreeOptions() {
  EvalOptions options;
  options.engine = EvalEngine::kTreeWalk;
  return options;
}

// Same paths in the same order: value fingerprints, probability bits, and
// ECV draw sequences.
void ExpectSameOutcomes(const std::vector<WeightedOutcome>& got,
                        const std::vector<WeightedOutcome>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const WeightedOutcome& g = got[i];
    const WeightedOutcome& w = want[i];
    EXPECT_EQ(Fingerprint(g.value), Fingerprint(w.value)) << "outcome " << i;
    EXPECT_EQ(Bits(g.probability), Bits(w.probability)) << "outcome " << i;
    ASSERT_EQ(g.ecv_assignments.size(), w.ecv_assignments.size())
        << "outcome " << i;
    for (size_t j = 0; j < g.ecv_assignments.size(); ++j) {
      EXPECT_EQ(g.ecv_assignments[j].first, w.ecv_assignments[j].first);
      EXPECT_EQ(Fingerprint(g.ecv_assignments[j].second),
                Fingerprint(w.ecv_assignments[j].second));
    }
  }
}

void ExpectSameDistribution(const Distribution& got, const Distribution& want) {
  ASSERT_EQ(got.atoms().size(), want.atoms().size());
  for (size_t i = 0; i < got.atoms().size(); ++i) {
    EXPECT_EQ(Bits(got.atoms()[i].value), Bits(want.atoms()[i].value))
        << "atom " << i;
    EXPECT_EQ(Bits(got.atoms()[i].probability),
              Bits(want.atoms()[i].probability))
        << "atom " << i;
  }
}

// Only the tree walk emits trace events, so a traced kBytecode evaluator
// must compile no bytecode, emit events, and enumerate exactly what the
// untraced bytecode evaluator does: the same outcomes bit for bit, or the
// same error code and message.
void ExpectTraceParity(const Program& program, const std::string& entry,
                       const std::vector<Value>& args,
                       const EcvProfile& profile = {}) {
  RecordingTraceSink sink;
  EvalOptions traced_options = BytecodeOptions();
  traced_options.trace = &sink;
  Evaluator traced(program, traced_options);
  Evaluator untraced(program, BytecodeOptions());
  EXPECT_EQ(traced.bytecode(), nullptr) << "a traced evaluator compiled";
  ASSERT_NE(untraced.bytecode(), nullptr) << "bytecode did not compile";
  auto traced_out = traced.Enumerate(entry, args, profile);
  auto untraced_out = untraced.Enumerate(entry, args, profile);
  EXPECT_FALSE(sink.TakeEvents().empty());
  ASSERT_EQ(traced_out.ok(), untraced_out.ok())
      << "traced: " << traced_out.status().ToString()
      << "\nuntraced: " << untraced_out.status().ToString();
  if (!traced_out.ok()) {
    EXPECT_EQ(traced_out.status().code(), untraced_out.status().code());
    EXPECT_EQ(traced_out.status().message(), untraced_out.status().message());
    return;
  }
  ExpectSameOutcomes(*traced_out, *untraced_out);
}

// Enumerates `entry` on both engines and requires bit-identical results:
// same outcome order, values, probability bits, and ECV draw sequences —
// or the same error code and message. Also checks trace parity, so the
// whole parity corpus runs traced.
void ExpectEnumerationParity(const Program& program, const std::string& entry,
                             const std::vector<Value>& args,
                             const EcvProfile& profile = {}) {
  ExpectTraceParity(program, entry, args, profile);
  Evaluator bytecode(program, BytecodeOptions());
  Evaluator tree(program, TreeOptions());
  ASSERT_NE(bytecode.bytecode(), nullptr) << "bytecode did not compile";
  auto bytecode_out = bytecode.Enumerate(entry, args, profile);
  auto tree_out = tree.Enumerate(entry, args, profile);
  ASSERT_EQ(bytecode_out.ok(), tree_out.ok())
      << "bytecode: " << bytecode_out.status().ToString()
      << "\ntree: " << tree_out.status().ToString();
  if (!bytecode_out.ok()) {
    EXPECT_EQ(bytecode_out.status().code(), tree_out.status().code());
    EXPECT_EQ(bytecode_out.status().message(), tree_out.status().message());
    return;
  }
  ExpectSameOutcomes(*bytecode_out, *tree_out);
}

// Samples `entry` with `engine` and the tree walk from identically seeded
// RNGs and requires the same value (or the same error).
void ExpectSampleParity(const Evaluator& engine, const Evaluator& tree,
                        const std::string& entry,
                        const std::vector<Value>& args,
                        const EcvProfile& profile = {}) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng engine_rng(seed);
    Rng tree_rng(seed);
    auto e = engine.EvalSampled(entry, args, profile, engine_rng);
    auto t = tree.EvalSampled(entry, args, profile, tree_rng);
    ASSERT_EQ(e.ok(), t.ok()) << "seed " << seed << "\nengine: "
                              << e.status().ToString()
                              << "\ntree: " << t.status().ToString();
    if (!e.ok()) {
      EXPECT_EQ(e.status().code(), t.status().code());
      EXPECT_EQ(e.status().message(), t.status().message());
    } else {
      EXPECT_EQ(Fingerprint(*e), Fingerprint(*t)) << "seed " << seed;
    }
  }
}

void ExpectSampleParity(const Program& program, const std::string& entry,
                        const std::vector<Value>& args,
                        const EcvProfile& profile = {}) {
  Evaluator bytecode(program, BytecodeOptions());
  Evaluator tree(program, TreeOptions());
  ASSERT_NE(bytecode.bytecode(), nullptr) << "bytecode did not compile";
  ExpectSampleParity(bytecode, tree, entry, args, profile);
}

// The corpus lives in tests/parity_programs.h so the analytic differential
// harness replays exactly the same programs.
TEST(EngineParityTest, ParityCorpus) {
  for (const parity::ParityCase& c : parity::kParityCorpus) {
    SCOPED_TRACE(c.name);
    const Program p = MustParse(c.source);
    const std::vector<Value> args = NumberArgs(c.args);
    ExpectEnumerationParity(p, c.entry, args);
    ExpectSampleParity(p, c.entry, args);
  }
}

TEST(EngineParityTest, ProfileOverrideParity) {
  const Program p = MustParse(parity::kProfileOverrideSource);
  EcvProfile profile;
  ASSERT_TRUE(profile
                  .Set("mode", {{Value::Bool(true), 0.2},
                                {Value::Bool(false), 0.8}})
                  .ok());
  ExpectEnumerationParity(p, "f", {}, profile);
  ExpectSampleParity(p, "f", {}, profile);
}

TEST(EngineParityTest, ErrorParity) {
  // Each corpus program hits a different failure path; both engines must
  // agree on the status code and the exact message.
  for (const parity::ParityCase& c : parity::kErrorCorpus) {
    SCOPED_TRACE(c.name);
    const Program p = MustParse(c.source);
    const std::vector<Value> args = NumberArgs(c.args);
    ExpectEnumerationParity(p, c.entry, args);
    ExpectSampleParity(p, c.entry, args);
  }
}

TEST(EngineParityTest, ConstantFoldingPreservesRuntimeErrors) {
  // The folder sees `log(-1)` with constant arguments; the failure must
  // still surface at evaluation time with the tree-walk's message.
  const Program p = MustParse(
      "const bad = log(0 - 1);\n"
      "interface f(x) { return bad * 1J; }");
  ExpectEnumerationParity(p, "f", {Value::Number(1.0)});
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

// One interface with 65,536 `let` slots: its frame needs more registers
// than a bytecode instruction can address (0xFFFF), so compilation fails.
// The ECV's parameter depends on the argument, so the batch engine's vector
// passes abort as well and every lane and sample runs on the tree walk.
Program OverflowProgram() {
  std::string source = "interface f(x) {\n";
  for (int i = 0; i < 65536; ++i) {
    source += "  let v" + std::to_string(i) + " = x;\n";
  }
  source +=
      "  ecv hit ~ bernoulli(x / 8);\n"
      "  return hit ? v65535 * 1mJ : (x + v0) * 2mJ;\n"
      "}\n";
  return MustParse(source);
}

TEST(EngineParityTest, CompileOverflowFallsBackToTreeWalk) {
  const Program p = OverflowProgram();
  const uint64_t fallbacks_before =
      CounterValue("eclarity_eval_bytecode_fallback_total");
  const uint64_t treewalk_before =
      CounterValue("eclarity_eval_engine_treewalk_total");
  const uint64_t bytecode_before =
      CounterValue("eclarity_eval_engine_bytecode_total");
  const Evaluator fallback(p, BytecodeOptions());
  EXPECT_EQ(fallback.bytecode(), nullptr);
  EXPECT_EQ(CounterValue("eclarity_eval_bytecode_fallback_total"),
            fallbacks_before + 1);
  EXPECT_EQ(CounterValue("eclarity_eval_engine_treewalk_total"),
            treewalk_before + 1);
  EXPECT_EQ(CounterValue("eclarity_eval_engine_bytecode_total"),
            bytecode_before);

  const Evaluator tree(p, TreeOptions());
  const std::vector<Value> args = {Value::Number(3.0)};

  auto enumerated = fallback.Enumerate("f", args, {});
  auto reference = tree.Enumerate("f", args, {});
  ASSERT_TRUE(enumerated.ok()) << enumerated.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(enumerated->size(), 2u);
  ExpectSameOutcomes(*enumerated, *reference);

  ExpectSampleParity(fallback, tree, "f", args);

  Rng fallback_rng(11);
  Rng tree_rng(11);
  auto mc = fallback.MonteCarloMean("f", args, {}, fallback_rng, 16);
  auto mc_reference = tree.MonteCarloMean("f", args, {}, tree_rng, 16);
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  ASSERT_TRUE(mc_reference.ok()) << mc_reference.status().ToString();
  EXPECT_EQ(Bits(mc->joules()), Bits(mc_reference->joules()));

  auto expected = fallback.ExpectedEnergy("f", args, {});
  auto expected_reference = tree.ExpectedEnergy("f", args, {});
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(expected_reference.ok());
  EXPECT_EQ(Bits(expected->joules()), Bits(expected_reference->joules()));

  auto certified = fallback.EvalCertifiedMode("f", args, {}, nullptr,
                                              DistMode::kEnumerate);
  auto certified_reference =
      tree.EvalCertifiedMode("f", args, {}, nullptr, DistMode::kEnumerate);
  ASSERT_TRUE(certified.ok()) << certified.status().ToString();
  ASSERT_TRUE(certified_reference.ok());
  EXPECT_TRUE(certified->exact);
  EXPECT_EQ(Bits(certified->mean), Bits(certified_reference->mean));
  ExpectSameDistribution(certified->distribution,
                         certified_reference->distribution);

  const std::vector<Value> lane1 = {Value::Number(1.0)};
  const std::vector<Value> lane2 = {Value::Number(2.0)};
  const std::vector<const std::vector<Value>*> lanes = {&lane1, &lane2, &args};
  const std::vector<Result<ExactFold>> folds =
      BatchPlan(fallback, "f").EnumerateFold(lanes, {}, nullptr);
  const std::vector<Result<ExactFold>> fold_references =
      BatchPlan(tree, "f").EnumerateFold(lanes, {}, nullptr);
  ASSERT_EQ(folds.size(), lanes.size());
  ASSERT_EQ(fold_references.size(), lanes.size());
  for (size_t l = 0; l < lanes.size(); ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    ASSERT_TRUE(folds[l].ok()) << folds[l].status().ToString();
    ASSERT_TRUE(fold_references[l].ok());
    EXPECT_EQ(Bits(folds[l]->mean), Bits(fold_references[l]->mean));
    ExpectSameDistribution(folds[l]->distribution,
                           fold_references[l]->distribution);
  }
}

// Runs MonteCarloMean on the bytecode engine and on the tree walk from the
// same seed and returns the bytecode result. Both must return the same
// bits, or fail with the same code and message.
Result<Energy> MonteCarloAcrossEngines(const Program& program,
                                       const std::string& entry,
                                       const std::vector<Value>& args,
                                       uint64_t seed, size_t samples) {
  SCOPED_TRACE(std::to_string(samples) + " samples");
  const auto run = [&](EvalEngine engine) {
    EvalOptions options;
    options.engine = engine;
    const Evaluator eval(program, options);
    Rng rng(seed);
    return eval.MonteCarloMean(entry, args, {}, rng, samples);
  };
  Result<Energy> bytecode = run(EvalEngine::kBytecode);
  const Result<Energy> tree = run(EvalEngine::kTreeWalk);
  if (!bytecode.ok() || !tree.ok()) {
    EXPECT_EQ(bytecode.status().code(), tree.status().code());
    EXPECT_EQ(bytecode.status().message(), tree.status().message());
  } else {
    EXPECT_EQ(Bits(bytecode->joules()), Bits(tree->joules()));
  }
  return bytecode;
}

TEST(EngineParityTest, MonteCarloDeterministicAcrossEngines) {
  // Fig. 1 branches on its draws.
  const Program p = MustParse(parity::kFig1Source);
  const auto mean = MonteCarloAcrossEngines(
      p, "E_ml_webservice_handle",
      {Value::Number(50176.0), Value::Number(10000.0)}, 42, 2000);
  EXPECT_TRUE(mean.ok()) << mean.status().ToString();
}

// BatchMonteCarloTest is named for the batch-lane sampler MonteCarloMean
// once ran. Monte Carlo now runs the scalar chunk loop on the calling
// thread; these cases pin its chunk layouts across engines.
TEST(BatchMonteCarloTest, ChunkLayoutsMatchAcrossEngines) {
  // This program returns its draws as values. The sample counts cover
  // partial single chunks, exactly one chunk, and even and uneven splits
  // over several chunks.
  const Program p = MustParse(R"(
interface g(n) {
  ecv tier ~ categorical(0: 0.5, 1: 0.3, 2: 0.2);
  ecv extra ~ uniform_int(0, 3);
  return (n + tier * 2 + extra) * 1mJ;
}
)");
  for (const size_t samples : {1u, 7u, 256u, 1000u, 4096u}) {
    const auto mean = MonteCarloAcrossEngines(p, "g", {Value::Number(5.0)},
                                              0xC0FFEEu, samples);
    EXPECT_TRUE(mean.ok()) << mean.status().ToString();
  }
}

TEST(EngineParityTest, MonteCarloAgreesWithExactExpectation) {
  const Program p = MustParse(parity::kFig1Source);
  const std::vector<Value> args = {Value::Number(50176.0),
                                   Value::Number(10000.0)};
  Evaluator eval(p);
  auto exact = eval.ExpectedEnergy("E_ml_webservice_handle", args, {});
  ASSERT_TRUE(exact.ok());
  Rng rng(7);
  auto mc = eval.MonteCarloMean("E_ml_webservice_handle", args, {}, rng,
                                20000);
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  EXPECT_NEAR(mc->joules() / exact->joules(), 1.0, 0.05);
}

TEST(EngineParityTest, MonteCarloSurfacesSampleErrors) {
  // A bad ECV parameter fails with the same error on both engines, in one
  // chunk and across several.
  const Program p = MustParse(
      "interface f(x) { ecv e ~ bernoulli(2); return e ? 1J : 2J; }");
  for (const size_t samples : {100u, 1000u}) {
    EXPECT_FALSE(
        MonteCarloAcrossEngines(p, "f", {Value::Number(0.0)}, 1, samples)
            .ok());
  }
}

TEST(BatchMonteCarloTest, ErrorParity) {
  // A number-plus-energy type error, in one chunk and across several.
  const Program p = MustParse("interface f(x) { return x + 1J; }");
  for (const size_t samples : {64u, 1000u}) {
    EXPECT_FALSE(
        MonteCarloAcrossEngines(p, "f", {Value::Number(1.0)}, 7, samples)
            .ok());
  }
}

}  // namespace
}  // namespace eclarity
