// Error-path and edge-case tests for the evaluator: every malformed
// runtime situation must surface as a typed Status with a useful message,
// never as a crash or a silent wrong answer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/eval/builtins.h"
#include "src/eval/interp.h"
#include "src/eval/interval.h"
#include "src/eval/pure_expr.h"
#include "src/lang/checker.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"

namespace eclarity {
namespace {

Program MustParse(const char* source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

Result<Value> Run1(const char* source, const char* entry, double arg) {
  static std::vector<std::unique_ptr<Program>> keep_alive;
  keep_alive.push_back(std::make_unique<Program>(MustParse(source)));
  Evaluator eval(*keep_alive.back());
  Rng rng(1);
  return eval.EvalSampled(entry, {Value::Number(arg)}, {}, rng);
}

// --- Runtime type errors -------------------------------------------------------

TEST(EvalEdgeTest, ConditionMustBeBool) {
  auto v = Run1("interface f(x) { if (x) { return 1J; } return 2J; }", "f", 1);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("if condition"), std::string::npos);
}

TEST(EvalEdgeTest, LoopBoundsMustBeNumbers) {
  auto v = Run1(
      "interface f(x) { let mut t = 0J; for i in 0..(x > 0) { t = t + 1J; } "
      "return t; }",
      "f", 1);
  EXPECT_FALSE(v.ok());
}

TEST(EvalEdgeTest, ReturnedNumberFailsDistribution) {
  // The dynamic type system allows returning a number; converting to a
  // distribution must fail cleanly.
  const Program p = MustParse("interface f(x) { return x * 2; }");
  Evaluator eval(p);
  auto dist = eval.EvalDistribution("f", {Value::Number(1.0)}, {});
  ASSERT_FALSE(dist.ok());
  EXPECT_NE(dist.status().message().find("expected energy"),
            std::string::npos);
}

TEST(EvalEdgeTest, MixedEnergyNumberAdditionRejected) {
  auto v = Run1("interface f(x) { return x + 1J; }", "f", 2);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("'+'"), std::string::npos);
}

// --- ECV runtime validation -----------------------------------------------------

TEST(EvalEdgeTest, BernoulliProbabilityOutOfRange) {
  auto v = Run1(
      "interface f(p) { ecv e ~ bernoulli(p); return e ? 1J : 2J; }", "f",
      1.5);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("out of [0,1]"), std::string::npos);
}

TEST(EvalEdgeTest, UniformIntInvertedBounds) {
  auto v = Run1(
      "interface f(x) { ecv e ~ uniform_int(5, 2); return e * 1J; }", "f", 0);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("inverted"), std::string::npos);
}

TEST(EvalEdgeTest, UniformIntSupportBudget) {
  const Program p = MustParse(
      "interface f(x) { ecv e ~ uniform_int(0, 100000); return e * 1J; }");
  Evaluator eval(p);
  Rng rng(1);
  auto v = eval.EvalSampled("f", {Value::Number(0.0)}, {}, rng);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalEdgeTest, CategoricalZeroMassRejected) {
  auto v = Run1(
      "interface f(x) { ecv e ~ categorical(1: 0, 2: 0); return e * 1J; }",
      "f", 0);
  ASSERT_FALSE(v.ok());
}

TEST(EvalEdgeTest, EcvParamsMayDependOnInputs) {
  // Paper-adjacent: hit rate that depends on a parameter (cache size).
  const Program p = MustParse(R"(
interface f(cache_frac) {
  ecv hit ~ bernoulli(cache_frac);
  return hit ? 1mJ : 3mJ;
}
)");
  Evaluator eval(p);
  auto low = eval.ExpectedEnergy("f", {Value::Number(0.1)}, {});
  auto high = eval.ExpectedEnergy("f", {Value::Number(0.9)}, {});
  ASSERT_TRUE(low.ok() && high.ok());
  EXPECT_GT(low->joules(), high->joules());
}

// --- Builtin error paths ---------------------------------------------------------

TEST(EvalEdgeTest, BuiltinErrorPaths) {
  const std::string ctx = "t";
  // clamp with inverted bounds.
  EXPECT_FALSE(ApplyBuiltin("clamp",
                            {Value::Number(1), Value::Number(5),
                             Value::Number(2)},
                            {}, ctx)
                   .ok());
  // log of a non-positive value -> non-finite.
  EXPECT_FALSE(ApplyBuiltin("log", {Value::Number(-1)}, {}, ctx).ok());
  EXPECT_FALSE(ApplyBuiltin("sqrt", {Value::Number(-4)}, {}, ctx).ok());
  // pow overflow.
  EXPECT_FALSE(
      ApplyBuiltin("pow", {Value::Number(1e300), Value::Number(10)}, {}, ctx)
          .ok());
  // au without its unit-name string.
  EXPECT_FALSE(ApplyBuiltin("au", {Value::Number(0)}, {}, ctx).ok());
  // unknown builtin name.
  EXPECT_FALSE(ApplyBuiltin("warp", {Value::Number(0)}, {}, ctx).ok());
  // min over mixed kinds.
  EXPECT_FALSE(
      ApplyBuiltin("min", {Value::Number(1), Value::Joules(1)}, {}, ctx).ok());
  // abs of an abstract energy (not resolvable without calibration).
  EXPECT_FALSE(
      ApplyBuiltin("abs", {Value::EnergyValue(AbstractEnergy::Unit("x"))}, {},
                   ctx)
          .ok());
}

TEST(EvalEdgeTest, MinMaxOnConcreteEnergies) {
  auto lo = ApplyBuiltin("min", {Value::Joules(2), Value::Joules(5)}, {}, "t");
  auto hi = ApplyBuiltin("max", {Value::Joules(2), Value::Joules(5)}, {}, "t");
  ASSERT_TRUE(lo.ok() && hi.ok());
  EXPECT_DOUBLE_EQ(lo->energy().concrete().joules(), 2.0);
  EXPECT_DOUBLE_EQ(hi->energy().concrete().joules(), 5.0);
}

// --- Pure-expression evaluator -----------------------------------------------------

TEST(EvalEdgeTest, PureExprBasics) {
  auto e = ParseExpression("min(a, 3) * 2 + (a > 1 ? 1 : 0)");
  ASSERT_TRUE(e.ok());
  std::map<std::string, Value> env = {{"a", Value::Number(5.0)}};
  auto v = EvalPureExpr(**e, env);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->number(), 7.0);
}

TEST(EvalEdgeTest, PureExprRejectsInterfaceCalls) {
  auto e = ParseExpression("E_hw(3)");
  ASSERT_TRUE(e.ok());
  std::map<std::string, Value> env;
  auto v = EvalPureExpr(**e, env);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("cannot call interface"),
            std::string::npos);
}

TEST(EvalEdgeTest, PureExprUndefinedName) {
  auto e = ParseExpression("missing + 1");
  ASSERT_TRUE(e.ok());
  std::map<std::string, Value> env;
  EXPECT_EQ(EvalPureExpr(**e, env).status().code(), StatusCode::kNotFound);
}

// --- Profile interactions -------------------------------------------------------

TEST(EvalEdgeTest, ProfileOverrideWithWrongTypeSurfacesAtUse) {
  // Pinning a boolean ECV to a number makes the branch condition fail.
  const Program p = MustParse(R"(
interface f(x) {
  ecv hit ~ bernoulli(0.5);
  if (hit) { return 1J; }
  return 2J;
}
)");
  Evaluator eval(p);
  EcvProfile profile;
  profile.SetFixed("hit", Value::Number(1.0));
  Rng rng(1);
  auto v = eval.EvalSampled("f", {Value::Number(0.0)}, profile, rng);
  ASSERT_FALSE(v.ok());
}

TEST(EvalEdgeTest, ProfileOverrideCanWidenSupport) {
  // A profile can replace a Bernoulli with a three-way categorical.
  const Program p = MustParse(R"(
interface f() {
  ecv mode ~ bernoulli(0.5);
  return mode ? 1mJ : 2mJ;
}
)");
  Evaluator eval(p);
  EcvProfile profile;
  ASSERT_TRUE(profile
                  .Set("mode", {{Value::Bool(true), 0.2},
                                {Value::Bool(false), 0.8}})
                  .ok());
  auto dist = eval.EvalDistribution("f", {}, profile);
  ASSERT_TRUE(dist.ok());
  EXPECT_NEAR(dist->Mean(), 0.2 * 1e-3 + 0.8 * 2e-3, 1e-12);
}

// --- Budget exhaustion, on both engines ------------------------------------------

EvalOptions WithEngine(EvalEngine engine) {
  EvalOptions options;
  options.engine = engine;
  return options;
}

TEST(EvalEdgeTest, MaxPathsExhaustedOnAllEngines) {
  // 12 Bernoullis -> 4096 assignments, over a 100-path budget.
  std::string source = "interface f(x) {\n  let mut acc = 0J;\n";
  for (int i = 0; i < 12; ++i) {
    source += "  ecv b" + std::to_string(i) + " ~ bernoulli(0.5);\n";
    source += "  if (b" + std::to_string(i) + ") { acc = acc + 1mJ; }\n";
  }
  source += "  return acc;\n}\n";
  const Program p = MustParse(source.c_str());
  for (EvalEngine engine : {EvalEngine::kTreeWalk, EvalEngine::kBytecode}) {
    EvalOptions options = WithEngine(engine);
    options.max_paths = 100;
    Evaluator eval(p, options);
    auto outcomes = eval.Enumerate("f", {Value::Number(0.0)}, {});
    ASSERT_FALSE(outcomes.ok());
    EXPECT_EQ(outcomes.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(EvalEdgeTest, MaxCallDepthExhaustedOnAllEngines) {
  const Program p = MustParse("interface f(x) { return f(x); }");
  for (EvalEngine engine : {EvalEngine::kTreeWalk, EvalEngine::kBytecode}) {
    EvalOptions options = WithEngine(engine);
    options.max_call_depth = 8;
    Evaluator eval(p, options);
    Rng rng(1);
    auto v = eval.EvalSampled("f", {Value::Number(0.0)}, {}, rng);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(EvalEdgeTest, MaxEcvSupportExhaustedOnAllEngines) {
  const Program p = MustParse(
      "interface f(x) { ecv e ~ uniform_int(0, 10); return e * 1J; }");
  for (EvalEngine engine : {EvalEngine::kTreeWalk, EvalEngine::kBytecode}) {
    EvalOptions options = WithEngine(engine);
    options.max_ecv_support = 4;
    Evaluator eval(p, options);
    Rng rng(1);
    auto v = eval.EvalSampled("f", {Value::Number(0.0)}, {}, rng);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(EvalEdgeTest, MaxStepsExhaustedOnAllEngines) {
  const Program p = MustParse(
      "interface f(x) { let mut t = 0J; for i in 0..100000 { t = t + 1J; } "
      "return t; }");
  for (EvalEngine engine : {EvalEngine::kTreeWalk, EvalEngine::kBytecode}) {
    EvalOptions options = WithEngine(engine);
    options.max_steps = 50;
    Evaluator eval(p, options);
    Rng rng(1);
    auto v = eval.EvalSampled("f", {Value::Number(0.0)}, {}, rng);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
  }
}

// --- Nesting limit ----------------------------------------------------------------
//
// The parser rejects source nested deeper than 256 levels, so every later
// walker may recurse once per level. Source at the limit must then run
// through each of them without exhausting the stack; the sanitizer job runs
// this with ASan's larger frames.

// `x * 1J + 1J + ...` with `terms` terms: a left-deep chain, one level per
// `+`.
std::string FlatSum(int terms) {
  std::string source = "interface f(x) {\n  return x * 1J";
  for (int i = 1; i < terms; ++i) {
    source += " + 1J";
  }
  return source + ";\n}\n";
}

// `x * 1J` inside `depth` parentheses.
std::string NestedParens(int depth) {
  return "interface f(x) {\n  return " + std::string(depth, '(') + "x * 1J" +
         std::string(depth, ')') + ";\n}\n";
}

// `w0(x)` calls `w1(x)` and so on down to `w{n-1}(x) { return x * 1J; }`:
// one call level per interface, each a one-line wrapper the bytecode
// compiler may expand in place.
std::string WrapperChain(int n) {
  std::string source;
  for (int i = 0; i + 1 < n; ++i) {
    source += "interface w" + std::to_string(i) + "(x) { return w" +
              std::to_string(i + 1) + "(x); }\n";
  }
  return source + "interface w" + std::to_string(n - 1) +
         "(x) { return x * 1J; }\n";
}

TEST(EvalEdgeTest, EveryWalkerRunsAtTheNestingLimit) {
  struct Case {
    std::string deepest;   // the deepest source the parser accepts
    std::string too_deep;  // one level more
    double joules;         // f(2)
  };
  const Case cases[] = {{FlatSum(255), FlatSum(256), 2.0 + 254.0},
                        {NestedParens(254), NestedParens(255), 2.0}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.deepest.substr(0, 60));
    const auto rejected = ParseProgram(c.too_deep);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

    const Program p = MustParse(c.deepest.c_str());
    ASSERT_TRUE(CheckProgramOk(p).ok());
    EXPECT_NE(PrintProgram(p).find("interface f(x)"), std::string::npos);

    const std::vector<Value> args = {Value::Number(2.0)};
    for (EvalEngine engine : {EvalEngine::kTreeWalk, EvalEngine::kBytecode}) {
      SCOPED_TRACE(engine == EvalEngine::kTreeWalk ? "tree" : "bytecode");
      Evaluator eval(p, WithEngine(engine));
      auto outcomes = eval.Enumerate("f", args, {});
      ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
      ASSERT_EQ(outcomes->size(), 1u);
      EXPECT_EQ((*outcomes)[0].value, Value::Joules(c.joules));
    }

    auto bounds = IntervalEvaluator(p).EvalInterval(
        "f", {IntervalValue::Number(1.0, 2.0)});
    ASSERT_TRUE(bounds.ok()) << bounds.status().ToString();
    EXPECT_TRUE(bounds->Contains(c.joules));

    for (DistMode mode : {DistMode::kAnalyticBounded,
                          DistMode::kAnalyticMoments}) {
      EvalOptions options;
      options.dist_mode = mode;
      Evaluator eval(p, options);
      auto cd = eval.EvalCertified("f", args, {});
      ASSERT_TRUE(cd.ok()) << cd.status().ToString();
      EXPECT_LE(std::abs(cd->mean - c.joules), cd->mean_error_bound);
      EXPECT_EQ(eval.analytic_hits(), 1u);
    }
  }

  // A chain of call levels at the call-depth limit (64 by default) runs
  // through every walker too; one level more fails alike on both engines.
  const Program chain = MustParse(WrapperChain(64).c_str());
  ASSERT_TRUE(CheckProgramOk(chain).ok());
  EXPECT_NE(PrintProgram(chain).find("interface w63(x)"), std::string::npos);
  const Program too_long = MustParse(WrapperChain(65).c_str());
  const std::vector<Value> args = {Value::Number(2.0)};
  for (EvalEngine engine : {EvalEngine::kTreeWalk, EvalEngine::kBytecode}) {
    SCOPED_TRACE(engine == EvalEngine::kTreeWalk ? "tree" : "bytecode");
    Evaluator eval(chain, WithEngine(engine));
    auto outcomes = eval.Enumerate("w0", args, {});
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    ASSERT_EQ(outcomes->size(), 1u);
    EXPECT_EQ((*outcomes)[0].value, Value::Joules(2.0));

    Evaluator deeper(too_long, WithEngine(engine));
    auto rejected = deeper.Enumerate("w0", args, {});
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(rejected.status().message(),
              "interface call depth limit exceeded at 'w64'");
  }
  auto bounds = IntervalEvaluator(chain).EvalInterval(
      "w0", {IntervalValue::Number(1.0, 2.0)});
  ASSERT_TRUE(bounds.ok()) << bounds.status().ToString();
  EXPECT_TRUE(bounds->Contains(2.0));
  for (DistMode mode :
       {DistMode::kAnalyticBounded, DistMode::kAnalyticMoments}) {
    EvalOptions options;
    options.dist_mode = mode;
    Evaluator eval(chain, options);
    auto cd = eval.EvalCertified("w0", args, {});
    ASSERT_TRUE(cd.ok()) << cd.status().ToString();
    EXPECT_LE(std::abs(cd->mean - 2.0), cd->mean_error_bound);
  }
}

// --- Fold slot ---------------------------------------------------------------------
//
// EvalDistribution / ExpectedEnergy answer an immediate repeat from a
// thread-local slot holding the last answer. The tests alternate keys that
// differ in one input each (arguments, profile, calibration), so a slot
// keyed without that input would answer the second key with the first
// key's bits.

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameBits(const Distribution& a, const Distribution& b) {
  ASSERT_EQ(a.atoms().size(), b.atoms().size());
  for (size_t i = 0; i < a.atoms().size(); ++i) {
    EXPECT_EQ(Bits(a.atoms()[i].value), Bits(b.atoms()[i].value));
    EXPECT_EQ(Bits(a.atoms()[i].probability), Bits(b.atoms()[i].probability));
  }
}

TEST(EvalEdgeTest, CachedEnumerationMatchesColdPath) {
  const Program p = MustParse(R"(
interface f(x) {
  ecv hit ~ bernoulli(0.5);
  return hit ? 1mJ * x : 3mJ * x;
}
)");
  Evaluator cached(p);  // default engine, fold slot switched on
  EvalOptions cold_options;
  cold_options.enum_cache_capacity = 0;
  Evaluator cold(p, cold_options);

  EcvProfile biased;
  ASSERT_TRUE(biased
                  .Set("hit", {{Value::Bool(true), 0.9},
                               {Value::Bool(false), 0.1}})
                  .ok());
  const std::vector<Value> args = {Value::Number(2.0)};
  const EcvProfile base;
  const EcvProfile* profiles[] = {&base, &biased};

  // References first, from an evaluator with the slot switched off.
  std::vector<Distribution> ref_dist;
  std::vector<double> ref_mean;
  for (const EcvProfile* profile : profiles) {
    auto dist = cold.EvalDistribution("f", args, *profile);
    auto mean = cold.ExpectedEnergy("f", args, *profile);
    ASSERT_TRUE(dist.ok() && mean.ok());
    ref_dist.push_back(*dist);
    ref_mean.push_back(mean->joules());
  }
  EXPECT_NE(Bits(ref_mean[0]), Bits(ref_mean[1]));

  // Two rounds over alternating profiles: each EvalDistribution follows the
  // other key, so it folds afresh; each ExpectedEnergy repeats the key just
  // folded, so the slot answers it.
  for (int round = 0; round < 2; ++round) {
    for (size_t k = 0; k < 2; ++k) {
      auto dist = cached.EvalDistribution("f", args, *profiles[k]);
      auto mean = cached.ExpectedEnergy("f", args, *profiles[k]);
      ASSERT_TRUE(dist.ok() && mean.ok());
      ExpectSameBits(*dist, ref_dist[k]);
      EXPECT_EQ(Bits(mean->joules()), Bits(ref_mean[k]));
    }
  }
}

TEST(EvalEdgeTest, CacheKeyDistinguishesArguments) {
  const Program p = MustParse(R"(
interface f(x) {
  ecv hit ~ bernoulli(0.5);
  return hit ? 1mJ * x : 3mJ * x;
}
)");
  Evaluator eval(p);
  auto a = eval.ExpectedEnergy("f", {Value::Number(1.0)}, {});
  auto b = eval.ExpectedEnergy("f", {Value::Number(2.0)}, {});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->joules(), b->joules());
  // Back to the first key while the slot holds the second: the answer is
  // the first key's own.
  auto again = eval.ExpectedEnergy("f", {Value::Number(1.0)}, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Bits(again->joules()), Bits(a->joules()));
}

TEST(EvalEdgeTest, CacheKeyDistinguishesCalibration) {
  const Program p = MustParse(R"(
interface f(n) {
  ecv hit ~ bernoulli(0.5);
  return hit ? au("relu", n) : au("relu", 2 * n);
}
)");
  EnergyCalibration slow;
  slow.Bind("relu", Energy::Microjoules(3.0));
  EnergyCalibration fast;
  fast.Bind("relu", Energy::Microjoules(1.0));
  Evaluator eval(p);
  const std::vector<Value> args = {Value::Number(2.0)};
  auto a = eval.ExpectedEnergy("f", args, {}, &slow);
  auto b = eval.ExpectedEnergy("f", args, {}, &fast);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a->joules(), 9e-6, 1e-15);
  EXPECT_NEAR(b->joules(), 3e-6, 1e-15);
  // Same arguments and profile, alternating calibrations: each answer is
  // its own calibration's.
  auto a_again = eval.ExpectedEnergy("f", args, {}, &slow);
  auto b_again = eval.ExpectedEnergy("f", args, {}, &fast);
  ASSERT_TRUE(a_again.ok() && b_again.ok());
  EXPECT_EQ(Bits(a_again->joules()), Bits(a->joules()));
  EXPECT_EQ(Bits(b_again->joules()), Bits(b->joules()));
}

}  // namespace
}  // namespace eclarity
