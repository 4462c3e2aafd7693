// Property tests over randomly generated EIL programs.
//
// A generator produces well-formed random interfaces (typed expressions,
// ECVs, branches, bounded loops, nested helper calls); each parameterised
// test instance checks, on a fresh random program:
//
//   1. printer/parser round trip: Print(Parse(Print(p))) == Print(p), and
//      the reparsed program evaluates identically;
//   2. exact enumeration is a probability distribution (mass sums to 1);
//   3. interval evaluation at point inputs covers every enumerated outcome;
//   4. Monte Carlo sampling converges to the exact expectation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/dist/certified.h"
#include "src/eval/interp.h"
#include "src/eval/interval.h"
#include "src/lang/checker.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"

namespace eclarity {
namespace {

// ---------------------------------------------------------------------------
// Random program generator
// ---------------------------------------------------------------------------

class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint64_t seed) : rng_(seed) {}

  // Generates a program with 1-2 helper interfaces plus a root "f".
  Program Generate() {
    Program program;
    const int helpers = static_cast<int>(rng_.UniformInt(0, 2));
    for (int h = 0; h < helpers; ++h) {
      const std::string name = "helper" + std::to_string(h);
      (void)program.AddInterface(GenInterface(name, 1));
      callable_.push_back(name);
    }
    (void)program.AddInterface(GenInterface("f", 2));
    return program;
  }

 private:
  struct Scope {
    std::vector<std::string> nums;
    std::vector<std::string> bools;
  };

  ExprPtr NumLit() {
    // Small integers keep everything finite and loop bounds tame.
    return MakeNumber(static_cast<double>(rng_.UniformInt(0, 6)));
  }

  ExprPtr NonZeroNumLit() {
    return MakeNumber(static_cast<double>(rng_.UniformInt(1, 6)));
  }

  ExprPtr GenNum(const Scope& scope, int depth) {
    if (depth <= 0 || rng_.Bernoulli(0.3) || scope.nums.empty()) {
      if (!scope.nums.empty() && rng_.Bernoulli(0.5)) {
        return MakeVar(scope.nums[rng_.UniformUint64(scope.nums.size())]);
      }
      return NumLit();
    }
    switch (rng_.UniformInt(0, 4)) {
      case 0:
        return MakeBinary(BinaryOp::kAdd, GenNum(scope, depth - 1),
                          GenNum(scope, depth - 1));
      case 1:
        return MakeBinary(BinaryOp::kSub, GenNum(scope, depth - 1),
                          GenNum(scope, depth - 1));
      case 2:
        return MakeBinary(BinaryOp::kMul, GenNum(scope, depth - 1),
                          GenNum(scope, depth - 1));
      case 3:
        // Division only by nonzero literals.
        return MakeBinary(BinaryOp::kDiv, GenNum(scope, depth - 1),
                          NonZeroNumLit());
      default:
        return MakeConditional(GenBool(scope, depth - 1),
                               GenNum(scope, depth - 1),
                               GenNum(scope, depth - 1));
    }
  }

  ExprPtr GenBool(const Scope& scope, int depth) {
    if (depth <= 0 || rng_.Bernoulli(0.4)) {
      if (!scope.bools.empty() && rng_.Bernoulli(0.6)) {
        return MakeVar(scope.bools[rng_.UniformUint64(scope.bools.size())]);
      }
      return MakeBool(rng_.Bernoulli(0.5));
    }
    switch (rng_.UniformInt(0, 3)) {
      case 0:
        return MakeBinary(BinaryOp::kLt, GenNum(scope, depth - 1),
                          GenNum(scope, depth - 1));
      case 1:
        return MakeBinary(BinaryOp::kGe, GenNum(scope, depth - 1),
                          GenNum(scope, depth - 1));
      case 2:
        return MakeBinary(BinaryOp::kAnd, GenBool(scope, depth - 1),
                          GenBool(scope, depth - 1));
      default:
        return MakeUnary(UnaryOp::kNot, GenBool(scope, depth - 1));
    }
  }

  ExprPtr GenEnergy(const Scope& scope, int depth) {
    if (depth <= 0 || rng_.Bernoulli(0.35)) {
      // Positive literal in a sensible range.
      return MakeEnergyJoules(rng_.UniformDouble(1e-6, 1e-2));
    }
    switch (rng_.UniformInt(0, 3)) {
      case 0:
        return MakeBinary(BinaryOp::kAdd, GenEnergy(scope, depth - 1),
                          GenEnergy(scope, depth - 1));
      case 1:
        return MakeBinary(BinaryOp::kMul, GenNum(scope, depth - 1),
                          GenEnergy(scope, depth - 1));
      case 2:
        if (!callable_.empty()) {
          std::vector<ExprPtr> args;
          args.push_back(GenNum(scope, depth - 1));
          return MakeCall(callable_[rng_.UniformUint64(callable_.size())],
                          std::move(args));
        }
        [[fallthrough]];
      default:
        return MakeConditional(GenBool(scope, depth - 1),
                               GenEnergy(scope, depth - 1),
                               GenEnergy(scope, depth - 1));
    }
  }

  // acc = acc + <energy>
  StmtPtr Accumulate(const Scope& scope, int depth) {
    return MakeAssign("acc", MakeBinary(BinaryOp::kAdd, MakeVar("acc"),
                                        GenEnergy(scope, depth)));
  }

  void GenStmts(Block& block, Scope& scope, int depth, int budget) {
    for (int s = 0; s < budget; ++s) {
      switch (rng_.UniformInt(0, 4)) {
        case 0: {  // let
          const std::string name =
              "v" + std::to_string(fresh_counter_++);
          block.statements.push_back(
              MakeLet(name, GenNum(scope, depth), false));
          scope.nums.push_back(name);
          break;
        }
        case 1: {  // ecv
          const std::string name =
              "e" + std::to_string(fresh_counter_++);
          EcvDistSpec spec;
          spec.kind = EcvDistKind::kBernoulli;
          spec.params.push_back(
              MakeNumber(rng_.UniformDouble(0.1, 0.9)));
          block.statements.push_back(
              std::make_unique<EcvStmt>(name, std::move(spec)));
          scope.bools.push_back(name);
          break;
        }
        case 2: {  // if
          Block then_block;
          Scope then_scope = scope;
          then_block.statements.push_back(Accumulate(then_scope, depth - 1));
          std::optional<Block> else_block;
          if (rng_.Bernoulli(0.5)) {
            Block compiled;
            Scope else_scope = scope;
            compiled.statements.push_back(Accumulate(else_scope, depth - 1));
            else_block = std::move(compiled);
          }
          block.statements.push_back(std::make_unique<IfStmt>(
              GenBool(scope, depth), std::move(then_block),
              std::move(else_block)));
          break;
        }
        case 3: {  // for, small literal bound
          Block body;
          Scope body_scope = scope;
          const std::string var =
              "i" + std::to_string(fresh_counter_++);
          body_scope.nums.push_back(var);
          body.statements.push_back(Accumulate(body_scope, depth - 1));
          block.statements.push_back(std::make_unique<ForStmt>(
              var, MakeNumber(0.0),
              MakeNumber(static_cast<double>(rng_.UniformInt(0, 3))),
              std::move(body)));
          break;
        }
        default:
          block.statements.push_back(Accumulate(scope, depth));
          break;
      }
    }
  }

  InterfaceDecl GenInterface(const std::string& name, int arity) {
    InterfaceDecl decl;
    decl.name = name;
    Scope scope;
    for (int p = 0; p < arity; ++p) {
      const std::string param = "p" + std::to_string(p);
      decl.params.push_back(param);
      scope.nums.push_back(param);
    }
    Block body;
    body.statements.push_back(
        MakeLet("acc", MakeEnergyJoules(0.0), /*is_mut=*/true));
    GenStmts(body, scope, /*depth=*/3,
             /*budget=*/static_cast<int>(rng_.UniformInt(2, 5)));
    body.statements.push_back(MakeReturn(
        MakeBinary(BinaryOp::kAdd, MakeVar("acc"), GenEnergy(scope, 2))));
    decl.body = std::move(body);
    return decl;
  }

  Rng rng_;
  std::vector<std::string> callable_;
  int fresh_counter_ = 0;
};

class RandomProgramTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    ProgramGenerator generator(0xbeef00 + static_cast<uint64_t>(GetParam()));
    program_ = generator.Generate();
    ASSERT_TRUE(CheckProgramOk(program_).ok())
        << PrintProgram(program_);
    args_ = {Value::Number(2.0), Value::Number(5.0)};
  }

  Program program_;
  std::vector<Value> args_;
};

TEST_P(RandomProgramTest, PrintParseRoundTrip) {
  const std::string once = PrintProgram(program_);
  auto reparsed = ParseProgram(once);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << once;
  EXPECT_EQ(PrintProgram(*reparsed), once);

  // Reparsed program evaluates identically.
  Evaluator a(program_);
  Evaluator b(*reparsed);
  auto da = a.EvalDistribution("f", args_, {});
  auto db = b.EvalDistribution("f", args_, {});
  ASSERT_TRUE(da.ok()) << da.status().ToString() << "\n" << once;
  ASSERT_TRUE(db.ok());
  EXPECT_NEAR(Distribution::Wasserstein1(*da, *db), 0.0, 1e-15) << once;
}

TEST_P(RandomProgramTest, EnumerationIsAProbabilityDistribution) {
  Evaluator evaluator(program_);
  auto outcomes = evaluator.Enumerate("f", args_, {});
  ASSERT_TRUE(outcomes.ok())
      << outcomes.status().ToString() << "\n" << PrintProgram(program_);
  double mass = 0.0;
  for (const WeightedOutcome& o : *outcomes) {
    EXPECT_GT(o.probability, 0.0);
    EXPECT_LE(o.probability, 1.0 + 1e-12);
    mass += o.probability;
  }
  EXPECT_NEAR(mass, 1.0, 1e-9) << PrintProgram(program_);
}

TEST_P(RandomProgramTest, IntervalCoversAllOutcomes) {
  Evaluator evaluator(program_);
  IntervalEvaluator intervals(program_);
  auto outcomes = evaluator.Enumerate("f", args_, {});
  ASSERT_TRUE(outcomes.ok()) << PrintProgram(program_);
  auto bounds = intervals.EvalInterval(
      "f", {IntervalValue::NumberPoint(2.0), IntervalValue::NumberPoint(5.0)});
  ASSERT_TRUE(bounds.ok())
      << bounds.status().ToString() << "\n" << PrintProgram(program_);
  for (const WeightedOutcome& o : *outcomes) {
    const double joules = o.value.energy().concrete().joules();
    EXPECT_GE(joules, bounds->lo_joules - 1e-9) << PrintProgram(program_);
    EXPECT_LE(joules, bounds->hi_joules + 1e-9) << PrintProgram(program_);
  }
}

TEST_P(RandomProgramTest, MonteCarloConvergesToExact) {
  Evaluator evaluator(program_);
  auto exact = evaluator.ExpectedEnergy("f", args_, {});
  ASSERT_TRUE(exact.ok()) << PrintProgram(program_);
  Rng rng(0x5a5a + static_cast<uint64_t>(GetParam()));
  auto mc = evaluator.MonteCarloMean("f", args_, {}, rng, 4000);
  ASSERT_TRUE(mc.ok());
  // 4000 samples: generous tolerance scaled to the spread.
  auto dist = evaluator.EvalDistribution("f", args_, {});
  ASSERT_TRUE(dist.ok());
  const double slack = 5.0 * dist->Stddev() / std::sqrt(4000.0) + 1e-12;
  EXPECT_NEAR(mc->joules(), exact->joules(), slack) << PrintProgram(program_);
}

TEST_P(RandomProgramTest, CertifiedModesAgreeWithEnumeration) {
  // The analytic certified surface over the random-program family: the
  // bounded mode's envelope must contain the exact mean, and whenever it
  // claims exactness (its enumeration fallback, which these loop-heavy
  // programs mostly take — exactly the contract under test) its answer
  // must be bit-identical to the enumeration fold.
  const auto bits = [](double v) {
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  Evaluator reference(program_);
  auto ref = reference.EvalCertified("f", args_, {});
  ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n"
                        << PrintProgram(program_);
  EvalOptions bounded_options;
  bounded_options.dist_mode = DistMode::kAnalyticBounded;
  Evaluator bounded(program_, bounded_options);
  auto got = bounded.EvalCertified("f", args_, {});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_LE(std::abs(ref->mean - got->mean), got->mean_error_bound)
      << PrintProgram(program_);
  if (!got->exact) {
    return;
  }
  EXPECT_EQ(got->mean_error_bound, 0.0);
  EXPECT_EQ(bits(got->mean), bits(ref->mean)) << PrintProgram(program_);
  const auto& ra = ref->distribution.atoms();
  const auto& ga = got->distribution.atoms();
  ASSERT_EQ(ga.size(), ra.size()) << PrintProgram(program_);
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(bits(ga[i].value), bits(ra[i].value));
    EXPECT_EQ(bits(ga[i].probability), bits(ra[i].probability));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// Certified distribution algebra (src/dist/certified.h)
// ---------------------------------------------------------------------------

std::vector<Atom> RandomAtoms(Rng& rng, size_t count) {
  std::vector<Atom> atoms;
  atoms.reserve(count);
  std::vector<double> weights;
  double total = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const double w = 1.0 + static_cast<double>(rng.UniformInt(0, 9));
    weights.push_back(w);
    total += w;
  }
  for (size_t i = 0; i < count; ++i) {
    // A coarse value grid makes bit-equal collisions (the merge path)
    // likely.
    const double value = 0.5 * static_cast<double>(rng.UniformInt(0, 12));
    atoms.push_back({value, weights[i] / total});
  }
  return atoms;
}

CertifiedDist MustFromOutcomes(std::vector<Atom> atoms) {
  auto dist = CertifiedDist::FromOutcomes(std::move(atoms));
  EXPECT_TRUE(dist.ok()) << dist.status().ToString();
  return *dist;
}

class CertifiedAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(CertifiedAlgebraTest, ConvolutionCommutes) {
  Rng rng(0xc0aa + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const CertifiedDist a =
        MustFromOutcomes(RandomAtoms(rng, rng.UniformUint64(6) + 1));
    const CertifiedDist b =
        MustFromOutcomes(RandomAtoms(rng, rng.UniformUint64(6) + 1));
    const CertifiedDist ab = CertifiedDist::Convolve(a, b, 4096);
    const CertifiedDist ba = CertifiedDist::Convolve(b, a, 4096);
    // IEEE addition is commutative bitwise, so the supports agree exactly;
    // merged probabilities may differ by summation order only.
    ASSERT_EQ(ab.atoms().size(), ba.atoms().size());
    for (size_t i = 0; i < ab.atoms().size(); ++i) {
      EXPECT_EQ(ab.atoms()[i].value, ba.atoms()[i].value) << "atom " << i;
      EXPECT_NEAR(ab.atoms()[i].probability, ba.atoms()[i].probability,
                  1e-15);
    }
    EXPECT_NEAR(ab.Finalize().mean, ba.Finalize().mean, 1e-12);
  }
}

TEST_P(CertifiedAlgebraTest, ConvolutionAssociatesWithinSlack) {
  Rng rng(0xc0bb + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const CertifiedDist a =
        MustFromOutcomes(RandomAtoms(rng, rng.UniformUint64(5) + 1));
    const CertifiedDist b =
        MustFromOutcomes(RandomAtoms(rng, rng.UniformUint64(5) + 1));
    const CertifiedDist c =
        MustFromOutcomes(RandomAtoms(rng, rng.UniformUint64(5) + 1));
    const CertifiedDistribution left =
        CertifiedDist::Convolve(CertifiedDist::Convolve(a, b, 4096), c, 4096)
            .Finalize();
    const CertifiedDistribution right =
        CertifiedDist::Convolve(a, CertifiedDist::Convolve(b, c, 4096), 4096)
            .Finalize();
    // Support values regroup (FP addition is not associative), so compare
    // the finalized summaries, not atom bits.
    const double scale = std::max(1.0, std::abs(left.mean));
    EXPECT_NEAR(left.mean, right.mean, 1e-12 * scale);
    EXPECT_NEAR(left.min_joules, right.min_joules, 1e-12 * scale);
    EXPECT_NEAR(left.max_joules, right.max_joules, 1e-12 * scale);
  }
}

TEST_P(CertifiedAlgebraTest, MomentsMatchCategorical) {
  Rng rng(0xc0cc + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Atom> atoms = RandomAtoms(rng, rng.UniformUint64(8) + 1);
    const CertifiedDistribution cd = MustFromOutcomes(atoms).Finalize();
    auto dist = Distribution::Categorical(std::move(atoms));
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    EXPECT_NEAR(cd.mean, dist->Mean(), 1e-12);
    EXPECT_NEAR(cd.variance, dist->Variance(), 1e-12);
    EXPECT_EQ(cd.min_joules, dist->MinValue());
    EXPECT_EQ(cd.max_joules, dist->MaxValue());
    // Exact input, no pruning: the bound is FP slack only.
    EXPECT_LE(cd.mean_error_bound, 1e-10);
    EXPECT_LE(std::abs(cd.mean - dist->Mean()), cd.mean_error_bound);
  }
}

TEST_P(CertifiedAlgebraTest, PruningBoundIsMonotoneInThreshold) {
  Rng rng(0xc0dd + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const CertifiedDist base =
        MustFromOutcomes(RandomAtoms(rng, rng.UniformUint64(10) + 2));
    double prev_bound = -1.0;
    double prev_pruned = -1.0;
    for (double threshold : {0.0, 1e-3, 1e-2, 0.05, 0.2, 0.5}) {
      CertifiedDist pruned = base;
      pruned.PruneBelow(threshold);
      const CertifiedDistribution cd = pruned.Finalize();
      // A larger threshold never prunes less mass or certifies a tighter
      // bound — the monotonicity the algebra documents.
      EXPECT_GE(pruned.pruned_mass(), prev_pruned) << "t=" << threshold;
      EXPECT_GE(cd.mean_error_bound, prev_bound) << "t=" << threshold;
      // And the bound stays sound against the unpruned mean.
      EXPECT_LE(std::abs(cd.mean - base.Finalize().mean),
                cd.mean_error_bound + base.Finalize().mean_error_bound)
          << "t=" << threshold;
      prev_bound = cd.mean_error_bound;
      prev_pruned = pruned.pruned_mass();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertifiedAlgebraTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace eclarity
