// Differential-testing harness for the analytic distribution algebra
// (src/eval/analytic.*), the archetype deliverable of the "certified
// bounds" work: every program is replayed through
//
//   * the tree-walking reference interpreter (exact enumeration fold),
//   * the register bytecode VM (exact enumeration fold), and
//   * the analytic engines (kAnalyticBounded / kAnalyticMoments, each
//     falling back to enumeration on what it cannot analyze),
//
// and the answers are compared under the algebra's contracts:
//
//   * EXACT BIT-IDENTITY — whenever an engine claims exactness
//     (CertifiedDistribution::exact), its atoms, probability bits, and mean
//     must equal the reference enumeration fold bit for bit, and its error
//     bound must be zero.
//   * BOUNDED CONTAINMENT — approximate answers must satisfy
//     |exact_mean - mean| <= mean_error_bound, with [min_joules,
//     max_joules] covering the full exact support and pruned_mass in [0, 1].
//   * ERROR PARITY — failing programs must fail with the same status code
//     and message from every engine (the fallback contract: anything the
//     algebra cannot reproduce exactly is re-run through enumeration).
//
// The corpus is the engine-parity corpus (tests/parity_programs.h, shared
// with engine_parity_test.cc) plus randomized deep ECV programs
// (tests/deep_program_gen.h) whose path counts make enumeration the
// expensive engine and the analytic path the interesting one. kEnumerate on
// the bytecode VM is the second reference below, so no mode row repeats it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/eval/interp.h"
#include "src/lang/parser.h"
#include "src/util/rng.h"
#include "tests/deep_program_gen.h"
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

std::vector<Value> NumberArgs(const std::vector<double>& xs) {
  std::vector<Value> args;
  args.reserve(xs.size());
  for (double x : xs) {
    args.push_back(Value::Number(x));
  }
  return args;
}

struct ModeCase {
  const char* name;
  DistMode mode;
  double prune = 0.0;
};

const ModeCase kModes[] = {
    {"bounded", DistMode::kAnalyticBounded, 0.0},
    {"bounded_pruned", DistMode::kAnalyticBounded, 1e-3},
    {"moments", DistMode::kAnalyticMoments, 0.0},
};

EvalOptions ModeOptions(const ModeCase& mode) {
  EvalOptions options;
  options.dist_mode = mode.mode;
  options.prune_threshold = mode.prune;
  return options;
}

void ExpectExactBitIdentity(const CertifiedDistribution& ref,
                            const CertifiedDistribution& got) {
  EXPECT_TRUE(got.exact);
  EXPECT_EQ(got.mean_error_bound, 0.0);
  EXPECT_EQ(got.pruned_mass, 0.0);
  EXPECT_EQ(Bits(got.mean), Bits(ref.mean));
  ASSERT_TRUE(got.has_distribution);
  const auto& ref_atoms = ref.distribution.atoms();
  const auto& got_atoms = got.distribution.atoms();
  ASSERT_EQ(got_atoms.size(), ref_atoms.size());
  for (size_t i = 0; i < ref_atoms.size(); ++i) {
    EXPECT_EQ(Bits(got_atoms[i].value), Bits(ref_atoms[i].value))
        << "atom " << i;
    EXPECT_EQ(Bits(got_atoms[i].probability), Bits(ref_atoms[i].probability))
        << "atom " << i;
  }
}

void ExpectBoundedContainment(const CertifiedDistribution& ref,
                              const CertifiedDistribution& got) {
  EXPECT_TRUE(std::isfinite(got.mean));
  EXPECT_GE(got.mean_error_bound, 0.0);
  EXPECT_LE(std::abs(ref.mean - got.mean), got.mean_error_bound)
      << "exact mean " << ref.mean << " vs bounded mean " << got.mean
      << " +/- " << got.mean_error_bound;
  EXPECT_GE(got.pruned_mass, 0.0);
  EXPECT_LE(got.pruned_mass, 1.0 + 1e-12);
  // The certified support bounds must cover the full exact support.
  EXPECT_LE(got.min_joules, ref.distribution.MinValue() + 1e-18);
  EXPECT_GE(got.max_joules, ref.distribution.MaxValue() - 1e-18);
}

// Replays (program, entry, args, profile) through the reference and every
// analytic mode, checking the contract that applies to each answer.
void ExpectDifferentialAgreement(const Program& program,
                                 const std::string& entry,
                                 const std::vector<Value>& args,
                                 const EcvProfile& profile = {}) {
  // Reference #1: the tree-walking interpreter (no lowered form, no
  // analytic engine — pure enumeration fold).
  EvalOptions tree_options;
  tree_options.engine = EvalEngine::kTreeWalk;
  Evaluator tree(program, tree_options);
  const auto ref = tree.EvalCertified(entry, args, profile);

  // Reference #2: the register bytecode VM in kEnumerate mode must agree
  // with the tree walk bit for bit (the engine-parity contract, rechecked
  // here through the certified surface). Errors must match code and message
  // too.
  {
    SCOPED_TRACE("bytecode");
    EvalOptions bytecode_options;
    bytecode_options.engine = EvalEngine::kBytecode;
    Evaluator bytecode(program, bytecode_options);
    const auto bytecode_ref = bytecode.EvalCertified(entry, args, profile);
    ASSERT_EQ(bytecode_ref.ok(), ref.ok())
        << "bytecode: " << bytecode_ref.status().ToString()
        << "\ntree: " << ref.status().ToString();
    if (ref.ok()) {
      ExpectExactBitIdentity(*ref, *bytecode_ref);
    } else {
      EXPECT_EQ(bytecode_ref.status().code(), ref.status().code());
      EXPECT_EQ(bytecode_ref.status().message(), ref.status().message());
    }
  }

  for (const ModeCase& mode : kModes) {
    SCOPED_TRACE(mode.name);
    Evaluator analytic(program, ModeOptions(mode));
    const auto got = analytic.EvalCertified(entry, args, profile);
    if (!ref.ok() && ref.status().code() == StatusCode::kResourceExhausted &&
        got.ok()) {
      // The bounded/moments engines never enumerate assignments, so they
      // may legitimately answer a query whose enumeration exceeds
      // max_paths — that is their reason to exist. With no exact reference
      // available, check internal soundness: the certified mean must be
      // finite and lie inside the certified support envelope.
      EXPECT_TRUE(std::isfinite(got->mean));
      EXPECT_GE(got->mean_error_bound, 0.0);
      EXPECT_GE(got->mean, got->min_joules - got->mean_error_bound - 1e-12);
      EXPECT_LE(got->mean, got->max_joules + got->mean_error_bound + 1e-12);
      continue;
    }
    ASSERT_EQ(got.ok(), ref.ok())
        << "analytic: " << got.status().ToString()
        << "\nreference: " << ref.status().ToString();
    if (!ref.ok()) {
      // Error parity: same code, same message, regardless of engine. When
      // the analytic engine declines, its enumeration fallback raises the
      // error, the max_paths budget included.
      EXPECT_EQ(got.status().code(), ref.status().code());
      EXPECT_EQ(got.status().message(), ref.status().message());
      continue;
    }
    if (got->exact) {
      // The bounded/moments engines fell back to enumeration; then the
      // full bit-identity contract applies.
      ExpectExactBitIdentity(*ref, *got);
    } else {
      ExpectBoundedContainment(*ref, *got);
      if (mode.mode == DistMode::kAnalyticMoments) {
        EXPECT_FALSE(got->has_distribution);
      }
    }
  }
}

TEST(DifferentialTest, ParityCorpus) {
  for (const parity::ParityCase& c : parity::kParityCorpus) {
    SCOPED_TRACE(c.name);
    const Program p = MustParse(c.source);
    ExpectDifferentialAgreement(p, c.entry, NumberArgs(c.args));
  }
}

TEST(DifferentialTest, ParityCorpusWithProfileOverride) {
  const Program p = MustParse(parity::kProfileOverrideSource);
  EcvProfile profile;
  ASSERT_TRUE(profile
                  .Set("mode", {{Value::Bool(true), 0.2},
                                {Value::Bool(false), 0.8}})
                  .ok());
  ExpectDifferentialAgreement(p, "f", {}, profile);
}

TEST(DifferentialTest, ErrorCorpusParity) {
  for (const parity::ParityCase& c : parity::kErrorCorpus) {
    SCOPED_TRACE(c.name);
    const Program p = MustParse(c.source);
    ExpectDifferentialAgreement(p, c.entry, NumberArgs(c.args));
  }
}

TEST(DifferentialTest, AnalyticEngineActuallyEngages) {
  // Guard against the harness silently passing because every mode fell back
  // to enumeration: on an analytic-shaped program the bounded and moments
  // engines must answer analytically.
  const Program p = MustParse(parity::kAccumulatorChainSource);
  for (DistMode mode :
       {DistMode::kAnalyticBounded, DistMode::kAnalyticMoments}) {
    EvalOptions options;
    options.dist_mode = mode;
    Evaluator eval(p, options);
    auto cd = eval.EvalCertified("acc_chain", {Value::Number(6.0)}, {});
    ASSERT_TRUE(cd.ok()) << cd.status().ToString();
    EXPECT_EQ(eval.analytic_hits(), 1u) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(eval.analytic_fallbacks(), 0u)
        << "mode " << static_cast<int>(mode);
  }
}

// A `levels`-deep call chain: every L_k(x) calls L_{k+1} from both arms of
// a draw, at x and at x + 1, down to a two-outcome leaf. L0(1) reaches
// 2^(levels+1) - 1 call sites but only (levels+1)(levels+2)/2 distinct
// (interface, argument) pairs.
std::string CallChainSource(int levels) {
  std::string source;
  for (int k = 0; k < levels; ++k) {
    const std::string next = "L" + std::to_string(k + 1);
    source += "interface L" + std::to_string(k) + "(x) {\n";
    source += "  ecv e ~ bernoulli(0.5);\n";
    source += "  if (e) { return " + next + "(x); }\n";
    source += "  return " + next + "(x + 1);\n}\n";
  }
  source += "interface L" + std::to_string(levels) + "(x) {\n";
  source += "  ecv e ~ bernoulli(0.5);\n";
  source += "  if (e) { return x * 1mJ; }\n";
  source += "  return x * 2mJ;\n}\n";
  return source;
}

TEST(DifferentialTest, AnalyticSubCallsEvaluateOncePerArgument) {
  // Within one certified call, each distinct (interface, argument) pair is
  // evaluated analytically once and reused at every other call site: 91
  // evaluations for 8,191 call sites.
  const Program p = MustParse(CallChainSource(12));
  EvalOptions options;
  options.dist_mode = DistMode::kAnalyticBounded;
  Evaluator bounded(p, options);
  const std::vector<Value> args = {Value::Number(1.0)};
  const auto cd = bounded.EvalCertified("L0", args, {});
  ASSERT_TRUE(cd.ok()) << cd.status().ToString();
  EXPECT_EQ(bounded.analytic_hits(), 91u);
  EXPECT_EQ(bounded.analytic_fallbacks(), 0u);

  const auto exact = Evaluator(p).ExpectedEnergy("L0", args, {});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_LE(std::abs(exact->joules() - cd->mean), cd->mean_error_bound);
}

// `depth` Bernoulli draws, each read by a compound guard: no draw pairs
// with an increment, so the bounded engine expands every draw as a mixture
// (2^(depth+1) - 2 expansions in all).
std::string MixtureChainSource(int depth) {
  std::string source = "interface deep(n) {\n  let mut acc = 0J;\n";
  for (int i = 0; i < depth; ++i) {
    const std::string e = "e" + std::to_string(i);
    source += "  ecv " + e + " ~ bernoulli(0.5);\n";
    source += "  if (" + e + " && " + e + ") { acc = acc + n * 1uJ; }\n";
  }
  source += "  return acc;\n}\n";
  return source;
}

TEST(DifferentialTest, MaxPathsBudgetParity) {
  // A query over the path budget that the bounded engine declines (its
  // mixture expansions also exceed max_paths) is enumerated, and must raise
  // the enumeration budget error (same code, same message) instead of
  // answering silently.
  const Program p = MustParse(MixtureChainSource(12));
  EvalOptions tight;
  tight.max_paths = 64;
  Evaluator reference(p, tight);
  const auto ref = reference.EvalCertified("deep", {Value::Number(2.0)}, {});
  ASSERT_FALSE(ref.ok());
  EvalOptions bounded_tight = tight;
  bounded_tight.dist_mode = DistMode::kAnalyticBounded;
  Evaluator bounded(p, bounded_tight);
  const auto got = bounded.EvalCertified("deep", {Value::Number(2.0)}, {});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), ref.status().code());
  EXPECT_EQ(got.status().message(), ref.status().message());
  EXPECT_EQ(bounded.analytic_fallbacks(), 1u);
}

class DeepDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DeepDifferentialTest, RandomDeepPrograms) {
  Rng rng(0xd1ff + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 6; ++trial) {
    const int depth = 4 + static_cast<int>(rng.UniformInt(0, 8));
    const bool friendly = rng.Bernoulli(0.5);
    const std::string source = deepgen::DeepProgram(rng, depth, friendly);
    SCOPED_TRACE("depth=" + std::to_string(depth) +
                 (friendly ? " friendly\n" : " mixed\n") + source);
    const Program p = MustParse(source);
    ExpectDifferentialAgreement(p, "deep", {Value::Number(3.0)});
  }
}

TEST_P(DeepDifferentialTest, Depth14FriendlyPrograms) {
  // The deepest tier the issue calls out: ~2^14+ assignments, where the
  // analytic engines do the collapsing and enumeration is the slow referee.
  Rng rng(0x14d1 + static_cast<uint64_t>(GetParam()));
  const std::string source = deepgen::DeepProgram(rng, 14, /*friendly=*/true,
                                                  /*binary_only=*/true);
  SCOPED_TRACE(source);
  const Program p = MustParse(source);
  ExpectDifferentialAgreement(p, "deep", {Value::Number(2.0)});
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepDifferentialTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace eclarity
