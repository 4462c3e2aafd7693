// Robustness tests: the lexer/parser/evaluator must return error Statuses —
// never crash, hang, or accept garbage — on hostile inputs: random byte
// soup, random token soup, and mutations of valid programs.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/eval/interp.h"
#include "src/lang/lexer.h"
#include "src/lang/parser.h"
#include "src/util/rng.h"
#include "tests/deep_program_gen.h"

namespace eclarity {
namespace {

constexpr char kValidProgram[] = R"(
const base = 2mJ;
extern interface E_hw(n);
interface E_cache_lookup(response_len) {
  ecv local_cache_hit ~ bernoulli(0.8);
  if (local_cache_hit) {
    return 5mJ * response_len + base;
  } else {
    return 100mJ * response_len + E_hw(response_len);
  }
}
interface f(n) {
  let mut total = 0J;
  for i in 0..n {
    total = total + E_cache_lookup(i + 1);
  }
  return total;
}
)";

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomBytesNeverCrash) {
  Rng rng(0xf022 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    const size_t length = rng.UniformUint64(200) + 1;
    std::string input;
    input.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      // Printable-biased byte soup (parsers see mostly text).
      if (rng.Bernoulli(0.9)) {
        input.push_back(static_cast<char>(rng.UniformInt(32, 126)));
      } else {
        input.push_back(static_cast<char>(rng.UniformInt(0, 255)));
      }
    }
    // Must terminate and return a Status (usually an error) — no crash.
    auto program = ParseProgram(input);
    (void)program.ok();
  }
}

TEST_P(FuzzTest, RandomTokenSoupNeverCrashes) {
  static const char* kTokens[] = {
      "interface", "extern",  "const", "let",  "mut",   "ecv",   "if",
      "else",      "for",     "in",    "return", "true", "false", "f",
      "x",         "0",       "1.5",   "2mJ",  "(",     ")",     "{",
      "}",         ",",       ";",     ":",    "?",     "~",     "..",
      "=",         "+",       "-",     "*",    "/",     "%",     "!",
      "==",        "!=",      "<",     "<=",   ">",     ">=",    "&&",
      "||",        "\"s\"",   "bernoulli", "au", "min",
  };
  Rng rng(0x70c5 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    const int count = static_cast<int>(rng.UniformInt(1, 60));
    for (int i = 0; i < count; ++i) {
      input += kTokens[rng.UniformUint64(std::size(kTokens))];
      input += ' ';
    }
    auto program = ParseProgram(input);
    (void)program.ok();
  }
}

TEST_P(FuzzTest, MutatedValidProgramsNeverCrash) {
  Rng rng(0x3141 + static_cast<uint64_t>(GetParam()));
  const std::string base = kValidProgram;
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = base;
    const int edits = static_cast<int>(rng.UniformInt(1, 6));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.UniformUint64(mutated.size());
      switch (rng.UniformInt(0, 2)) {
        case 0:  // flip a character
          mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:  // delete a character
          mutated.erase(pos, 1);
          break;
        default:  // duplicate a slice
          mutated.insert(pos, mutated.substr(
              pos, rng.UniformUint64(8) + 1));
          break;
      }
      if (mutated.empty()) {
        mutated = "x";
      }
    }
    auto program = ParseProgram(mutated);
    if (program.ok()) {
      // If a mutant still parses, evaluation must also fail safely or
      // terminate within budget.
      EvalOptions options;
      options.max_steps = 10000;
      options.max_call_depth = 8;
      options.max_paths = 512;
      Evaluator evaluator(*program, options);
      for (const InterfaceDecl& decl : program->interfaces()) {
        std::vector<Value> args(decl.params.size(), Value::Number(2.0));
        (void)evaluator.Enumerate(decl.name, args, {});
      }
    }
  }
}

TEST_P(FuzzTest, LexerHandlesPathologicalNumbers) {
  Rng rng(0x1e11 + static_cast<uint64_t>(GetParam()));
  const char* kShapes[] = {
      "1e", "1e+", "1e-", "1.", ".5", "1..2", "1.2.3", "1e999", "0x10",
      "1_000", "1mJx", "9999999999999999999999", "1e-999", "..", "...",
  };
  for (const char* shape : kShapes) {
    (void)Tokenize(shape);
    (void)ParseExpression(shape);
  }
  // Random digit/dot/e strings.
  for (int trial = 0; trial < 200; ++trial) {
    std::string s;
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    const char alphabet[] = "0123456789.eE+-J m";
    for (int i = 0; i < n; ++i) {
      s += alphabet[rng.UniformUint64(sizeof(alphabet) - 1)];
    }
    (void)Tokenize(s);
  }
}

TEST_P(FuzzTest, DeepEcvProgramsAnalyticAgreement) {
  // Randomized deep ECV programs (depth <= 14) through the analytic
  // distribution algebra: the bounded mode's certified envelope must
  // contain the exact mean, pruned or not, and an unpruned answer that
  // claims exactness (the enumeration fallback) must be bit-identical to
  // the enumeration fold. (differential_test.cc is the exhaustive harness;
  // this keeps a fast sweep in the fuzz tier.)
  const auto bits = [](double v) {
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  Rng rng(0xdeeb + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 3; ++trial) {
    const int depth = 4 + static_cast<int>(rng.UniformInt(0, 10));
    const bool friendly = rng.Bernoulli(0.5);
    const std::string source =
        deepgen::DeepProgram(rng, depth, friendly, /*binary_only=*/true);
    SCOPED_TRACE(source);
    auto program = ParseProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    const std::vector<Value> args = {Value::Number(3.0)};

    Evaluator reference(*program);  // dist_mode defaults to kEnumerate
    auto ref = reference.EvalCertified("deep", args, {});
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    EvalOptions unpruned_options;
    unpruned_options.dist_mode = DistMode::kAnalyticBounded;
    Evaluator unpruned(*program, unpruned_options);
    auto got = unpruned.EvalCertified("deep", args, {});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_LE(std::abs(ref->mean - got->mean), got->mean_error_bound);
    if (got->exact) {
      EXPECT_EQ(got->mean_error_bound, 0.0);
      EXPECT_EQ(bits(got->mean), bits(ref->mean));
      const auto& ra = ref->distribution.atoms();
      const auto& ga = got->distribution.atoms();
      ASSERT_EQ(ga.size(), ra.size());
      for (size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(bits(ga[i].value), bits(ra[i].value)) << "atom " << i;
        EXPECT_EQ(bits(ga[i].probability), bits(ra[i].probability))
            << "atom " << i;
      }
    }

    EvalOptions bounded_options;
    bounded_options.dist_mode = DistMode::kAnalyticBounded;
    bounded_options.prune_threshold = 1e-3;
    Evaluator bounded(*program, bounded_options);
    auto approx = bounded.EvalCertified("deep", args, {});
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    EXPECT_TRUE(std::isfinite(approx->mean));
    EXPECT_LE(std::abs(ref->mean - approx->mean), approx->mean_error_bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace eclarity
