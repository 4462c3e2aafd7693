// Tests for the EIL front end: lexer, parser, printer, checker, values.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/lang/checker.h"
#include "src/lang/lexer.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/lang/value.h"

namespace eclarity {
namespace {

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, TokenisesBasics) {
  auto tokens = Tokenize("interface f(x) { return 1mJ; }");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // incl. EOF
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kInterface);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "f");
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kEnergy);
  EXPECT_DOUBLE_EQ((*tokens)[7].number, 1e-3);  // stored in Joules
  EXPECT_EQ(tokens->back().kind, TokenKind::kEndOfFile);
}

TEST(LexerTest, EnergyUnitSuffixes) {
  auto tokens = Tokenize("1J 2kJ 3mJ 4uJ 5nJ 6pJ");
  ASSERT_TRUE(tokens.ok());
  const double expected[] = {1.0, 2e3, 3e-3, 4e-6, 5e-9, 6e-12};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ((*tokens)[i].kind, TokenKind::kEnergy);
    EXPECT_DOUBLE_EQ((*tokens)[i].number, expected[i]) << i;
  }
}

TEST(LexerTest, RejectsUnknownUnitSuffix) {
  auto tokens = Tokenize("3parsecs");
  EXPECT_FALSE(tokens.ok());
}

TEST(LexerTest, ScientificNotationAndRangeAmbiguity) {
  auto tokens = Tokenize("1e3 2.5e-2 0..10");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ((*tokens)[0].number, 1000.0);
  EXPECT_DOUBLE_EQ((*tokens)[1].number, 0.025);
  // `0..10` must lex as number, dotdot, number — not a float "0." .
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kNumber);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kDotDot);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kNumber);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("# a comment\n42 # trailing\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kNumber);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kEndOfFile);
}

TEST(LexerTest, StringsAndOperators) {
  auto tokens = Tokenize("au(\"relu\") >= <= == != && ||");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[2].text, "relu");
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kGe);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kLe);
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kEq);
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kNe);
  EXPECT_EQ((*tokens)[8].kind, TokenKind::kAndAnd);
  EXPECT_EQ((*tokens)[9].kind, TokenKind::kOrOr);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("\"oops").ok());
  EXPECT_FALSE(Tokenize("\"multi\nline\"").ok());
}

TEST(LexerTest, LoneAmpersandFails) {
  EXPECT_FALSE(Tokenize("a & b").ok());
  EXPECT_FALSE(Tokenize("a | b").ok());
}

TEST(LexerTest, TracksLineNumbers) {
  auto tokens = Tokenize("a\nb\n  c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[1].line, 2);
  EXPECT_EQ((*tokens)[2].line, 3);
  EXPECT_EQ((*tokens)[2].column, 3);
}

// --- Parser ------------------------------------------------------------------

constexpr char kFig1Source[] = R"(
# The paper's Fig. 1, in EIL.
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
    return 5mJ * response_len;
  } else {
    return 100mJ * response_len;
  }
}

interface E_cnn_forward(image_size, n_zeros) {
  let n_embedding = 256;
  return 8 * E_conv2d(image_size - n_zeros) +
         8 * E_relu(n_embedding) +
         16 * E_mlp(n_embedding);
}

interface E_conv2d(n) { return au("conv2d", n); }
interface E_relu(n) { return au("relu", n); }
interface E_mlp(n) { return au("mlp", n); }
)";

TEST(ParserTest, ParsesFig1) {
  auto program = ParseProgram(kFig1Source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->interfaces().size(), 6u);
  EXPECT_EQ(program->consts().size(), 1u);
  ASSERT_NE(program->FindInterface("E_cache_lookup"), nullptr);
  EXPECT_EQ(program->FindInterface("E_cache_lookup")->params.size(), 2u);
  EXPECT_TRUE(program->UnresolvedCallees().empty());
}

TEST(ParserTest, ElseIfChains) {
  auto program = ParseProgram(R"(
interface f(x) {
  if (x < 1) { return 1J; }
  else if (x < 2) { return 2J; }
  else { return 3J; }
}
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(CheckProgramOk(*program).ok());
}

TEST(ParserTest, ForLoopAndMutation) {
  auto program = ParseProgram(R"(
interface f(n) {
  let mut total = 0J;
  for i in 0..n {
    total = total + 2mJ;
  }
  return total;
}
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(CheckProgramOk(*program).ok());
}

TEST(ParserTest, TernaryAndPrecedence) {
  auto expr = ParseExpression("a + b * c < d ? x : y + 1");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, ExprKind::kConditional);
  // a + b * c parses as a + (b * c).
  auto sum = ParseExpression("a + b * c");
  ASSERT_TRUE(sum.ok());
  const auto& bin = static_cast<const BinaryExpr&>(**sum);
  EXPECT_EQ(bin.op, BinaryOp::kAdd);
  EXPECT_EQ(bin.rhs->kind, ExprKind::kBinary);
}

TEST(ParserTest, EcvDistributions) {
  auto program = ParseProgram(R"(
interface f(x) {
  ecv a ~ bernoulli(0.5);
  ecv b ~ uniform_int(1, 4);
  ecv c ~ categorical(1: 0.2, 2: 0.3, 3: 0.5);
  return (a ? 1.0 : 2.0) * b * c * 1mJ;
}
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
}

TEST(ParserTest, ReportsErrorsWithPosition) {
  auto program = ParseProgram("interface f( { return 1J; }");
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("parse error"), std::string::npos);
}

TEST(ParserTest, DuplicateDeclarationRejected) {
  auto program = ParseProgram(
      "interface f(x) { return 1J; } interface f(y) { return 2J; }");
  EXPECT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kAlreadyExists);
}

TEST(ParserTest, MissingSemicolonRejected) {
  EXPECT_FALSE(ParseProgram("interface f(x) { return 1J }").ok());
}

TEST(ParserTest, TrailingTokensAfterExpressionRejected) {
  EXPECT_FALSE(ParseExpression("1 + 2 3").ok());
}

TEST(ParserTest, ExternDeclarations) {
  auto program = ParseProgram(R"(
extern interface E_hw(a, b);
interface f(x) { return E_hw(x, x + 1) + 1mJ; }
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_NE(program->FindExtern("E_hw"), nullptr);
  EXPECT_EQ(program->FindExtern("E_hw")->params.size(), 2u);
  // Calls to externs are arity-checked; no allow_unresolved needed.
  EXPECT_TRUE(CheckProgram(*program).empty());
  // The extern still counts as an unresolved import until linked.
  const auto imports = program->UnresolvedCallees();
  ASSERT_EQ(imports.size(), 1u);
  EXPECT_EQ(imports[0], "E_hw");
}

TEST(ParserTest, ExternArityMismatchCaught) {
  auto program = ParseProgram(R"(
extern interface E_hw(a, b);
interface f(x) { return E_hw(x) + 1mJ; }
)");
  ASSERT_TRUE(program.ok());
  const auto problems = CheckProgram(*program);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].message().find("declared with 2"), std::string::npos);
}

TEST(ParserTest, ExternSatisfiedByMerge) {
  auto program = ParseProgram(R"(
extern interface E_hw(n);
interface f(x) { return E_hw(x); }
)");
  auto layer = ParseProgram("interface E_hw(n) { return n * 2mJ; }");
  ASSERT_TRUE(program.ok() && layer.ok());
  ASSERT_TRUE(program->Merge(*layer).ok());
  EXPECT_EQ(program->FindExtern("E_hw"), nullptr);  // consumed
  ASSERT_NE(program->FindInterface("E_hw"), nullptr);
  EXPECT_TRUE(program->UnresolvedCallees().empty());
}

TEST(ParserTest, ExternCollidesWithDefinition) {
  EXPECT_FALSE(ParseProgram(R"(
interface E_hw(n) { return 1J; }
extern interface E_hw(n);
)").ok());
  EXPECT_FALSE(ParseProgram(R"(
extern interface E_hw(n);
interface E_hw(n) { return 1J; }
)").ok());
  // Identical re-declaration is tolerated; conflicting arity is not.
  EXPECT_TRUE(ParseProgram(R"(
extern interface E_hw(n);
extern interface E_hw(n);
)").ok());
  EXPECT_FALSE(ParseProgram(R"(
extern interface E_hw(n);
extern interface E_hw(n, m);
)").ok());
}

// --- Nesting limit -----------------------------------------------------------

// The parser's nesting limit, in levels. Each construct below nests one
// level per repetition.
constexpr int kNestLimit = 256;

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += piece;
  }
  return out;
}

std::string Pos(int line, int column) {
  return std::to_string(line) + ":" + std::to_string(column);
}

// A nest of `levels` parses; one level more fails with kResourceExhausted
// at `where`, the line:column of the token that opens the extra level.
void ExpectNestingLimit(const std::function<Status(int)>& parse, int levels,
                        const std::string& where) {
  const Status at_limit = parse(levels);
  EXPECT_TRUE(at_limit.ok()) << at_limit.ToString();
  const Status over = parse(levels + 1);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("parse error at " + where +
                                ": nesting deeper than " +
                                std::to_string(kNestLimit) + " levels"),
            std::string::npos)
      << over.ToString();
}

TEST(ParserTest, NestingLimitCoversEveryConstruct) {
  auto expr = [](const std::string& source) {
    return ParseExpression(source).status();
  };
  // Expressions parsed alone start at level 0; the extra level opens at
  // column kNestLimit + 1 of a one-character-per-level prefix.
  ExpectNestingLimit(
      [&](int n) { return expr(Repeat("(", n) + "1" + Repeat(")", n)); },
      kNestLimit, Pos(1, kNestLimit + 1));
  ExpectNestingLimit([&](int n) { return expr(Repeat("-", n) + "1"); },
                     kNestLimit, Pos(1, kNestLimit + 1));
  ExpectNestingLimit([&](int n) { return expr(Repeat("!", n) + "true"); },
                     kNestLimit, Pos(1, kNestLimit + 1));
  // A chain of n binary operators is n levels; the extra operator fails.
  ExpectNestingLimit([&](int n) { return expr("1" + Repeat(" + 1", n)); },
                     kNestLimit, Pos(1, 3 + 4 * kNestLimit));
  ExpectNestingLimit([&](int n) { return expr("2" + Repeat(" * 2", n)); },
                     kNestLimit, Pos(1, 3 + 4 * kNestLimit));
  ExpectNestingLimit(
      [&](int n) { return expr("true" + Repeat(" && true", n)); },
      kNestLimit, Pos(1, 6 + 8 * kNestLimit));
  ExpectNestingLimit(
      [&](int n) { return expr(Repeat("true ? 1 : ", n) + "1"); },
      kNestLimit, Pos(1, 6 + 11 * kNestLimit));
  ExpectNestingLimit(
      [&](int n) { return expr(Repeat("abs(", n) + "1" + Repeat(")", n)); },
      kNestLimit, Pos(1, 4 * (kNestLimit + 1)));
  // A chain adds its operators to the height of its deepest operand.
  constexpr int kHalf = kNestLimit / 2;
  ExpectNestingLimit(
      [&](int n) {
        return expr(Repeat("-", kHalf) + "1" + Repeat(" + 1", n - kHalf));
      },
      kNestLimit, Pos(1, kHalf + 3 + 4 * kHalf));
  // An interface body is a block, one level; each nested `if` block adds
  // one more.
  auto program = [](const std::string& source) {
    return ParseProgram(source).status();
  };
  ExpectNestingLimit(
      [&](int n) {
        return program("interface f(x) {\n" + Repeat("if (true) {\n", n) +
                       "return 1J;\n" + Repeat("}\n", n) +
                       "return 2J;\n}\n");
      },
      kNestLimit - 1, Pos(kNestLimit + 1, 11));
  // Each `else if` nests its `if` in one more block.
  ExpectNestingLimit(
      [&](int n) {
        return program("interface f(x) {\nif (true) { return 1J; }" +
                       Repeat("\nelse if (true) { return 1J; }", n) +
                       "\nreturn 2J;\n}\n");
      },
      kNestLimit - 2, Pos(kNestLimit + 1, 16));
}

TEST(PrinterTest, ExternsRoundTrip) {
  auto program = ParseProgram(R"(
extern interface E_hw(a, b);
interface f(x) { return E_hw(x, 1) + 1mJ; }
)");
  ASSERT_TRUE(program.ok());
  const std::string once = PrintProgram(*program);
  EXPECT_NE(once.find("extern interface E_hw(a, b);"), std::string::npos);
  auto reparsed = ParseProgram(once);
  ASSERT_TRUE(reparsed.ok()) << once;
  EXPECT_EQ(PrintProgram(*reparsed), once);
}

// --- Printer round trip --------------------------------------------------------

TEST(PrinterTest, RoundTripIsStable) {
  auto program = ParseProgram(kFig1Source);
  ASSERT_TRUE(program.ok());
  const std::string once = PrintProgram(*program);
  auto reparsed = ParseProgram(once);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << once;
  const std::string twice = PrintProgram(*reparsed);
  EXPECT_EQ(once, twice);
}

TEST(PrinterTest, PreservesEnergyUnits) {
  auto program = ParseProgram("interface f(n) { return 5mJ * n; }");
  ASSERT_TRUE(program.ok());
  const std::string text = PrintProgram(*program);
  EXPECT_NE(text.find("5mJ"), std::string::npos);
}

TEST(PrinterTest, ParenthesisationPreservesSemantics) {
  // (a + b) * c must keep its parens; a + (b * c) must not gain any.
  auto e1 = ParseExpression("(a + b) * c");
  auto e2 = ParseExpression("a + b * c");
  ASSERT_TRUE(e1.ok() && e2.ok());
  EXPECT_EQ(PrintExpr(**e1), "(a + b) * c");
  EXPECT_EQ(PrintExpr(**e2), "a + b * c");
}

TEST(PrinterTest, ElseIfRendering) {
  auto program = ParseProgram(R"(
interface f(x) {
  if (x < 1) { return 1J; } else if (x < 2) { return 2J; } else { return 3J; }
}
)");
  ASSERT_TRUE(program.ok());
  const std::string text = PrintProgram(*program);
  EXPECT_NE(text.find("else if"), std::string::npos);
  auto reparsed = ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << text;
}

// --- Checker -----------------------------------------------------------------

TEST(CheckerTest, AcceptsWellFormedProgram) {
  auto program = ParseProgram(kFig1Source);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(CheckProgram(*program).empty());
}

TEST(CheckerTest, UndefinedVariable) {
  auto program = ParseProgram("interface f(x) { return y * 1J; }");
  ASSERT_TRUE(program.ok());
  const auto problems = CheckProgram(*program);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].message().find("undefined name 'y'"),
            std::string::npos);
}

TEST(CheckerTest, AssignmentToImmutable) {
  auto program = ParseProgram(
      "interface f(x) { let a = 1; a = 2; return 1J; }");
  ASSERT_TRUE(program.ok());
  const auto problems = CheckProgram(*program);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].message().find("immutable"), std::string::npos);
}

TEST(CheckerTest, MissingReturnOnSomePath) {
  auto program = ParseProgram(
      "interface f(x) { if (x > 0) { return 1J; } }");
  ASSERT_TRUE(program.ok());
  const auto problems = CheckProgram(*program);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].message().find("not all paths"), std::string::npos);
}

TEST(CheckerTest, ReturnInsideLoopDoesNotGuaranteeReturn) {
  auto program = ParseProgram(
      "interface f(n) { for i in 0..n { return 1J; } }");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(CheckProgram(*program).empty());
}

TEST(CheckerTest, UnreachableAfterReturn) {
  auto program = ParseProgram(
      "interface f(x) { return 1J; let a = 2; return 2J; }");
  ASSERT_TRUE(program.ok());
  const auto problems = CheckProgram(*program);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].message().find("unreachable"), std::string::npos);
}

TEST(CheckerTest, CallArityMismatch) {
  auto program = ParseProgram(R"(
interface g(a, b) { return 1J; }
interface f(x) { return g(x); }
)");
  ASSERT_TRUE(program.ok());
  const auto problems = CheckProgram(*program);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].message().find("passes 1 arguments"),
            std::string::npos);
}

TEST(CheckerTest, UndefinedCalleeUnlessAllowed) {
  auto program = ParseProgram("interface f(x) { return E_hw(x); }");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(CheckProgram(*program).empty());
  CheckOptions options;
  options.allow_unresolved.insert("E_hw");
  EXPECT_TRUE(CheckProgram(*program, options).empty());
  CheckOptions any;
  any.allow_any_unresolved = true;
  EXPECT_TRUE(CheckProgram(*program, any).empty());
}

TEST(CheckerTest, DuplicateEcv) {
  auto program = ParseProgram(R"(
interface f(x) {
  ecv hit ~ bernoulli(0.5);
  if (x > 0) { let y = 1; }
  ecv hit ~ bernoulli(0.5);
  return 1J;
}
)");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(CheckProgram(*program).empty());
}

TEST(CheckerTest, CollectEcvNamesFindsNested) {
  auto program = ParseProgram(R"(
interface f(x) {
  ecv a ~ bernoulli(0.5);
  if (a) {
    ecv b ~ bernoulli(0.1);
    return b ? 1J : 2J;
  }
  for i in 0..3 {
    ecv c ~ bernoulli(0.2);
  }
  return 3J;
}
)");
  ASSERT_TRUE(program.ok());
  const auto names = CollectEcvNames(*program->FindInterface("f"));
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[2], "c");
}

TEST(CheckerTest, TransitiveCallees) {
  auto program = ParseProgram(kFig1Source);
  ASSERT_TRUE(program.ok());
  const auto callees = TransitiveCallees(*program, "E_ml_webservice_handle");
  EXPECT_EQ(callees.size(), 6u);
  EXPECT_TRUE(callees.count("E_relu") > 0);
  EXPECT_TRUE(callees.count("E_cache_lookup") > 0);
}

// --- Values -------------------------------------------------------------------

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Number(1.0).is_number());
  EXPECT_TRUE(Value::Bool(true).is_bool());
  EXPECT_TRUE(Value::Joules(1.0).is_energy());
  EXPECT_FALSE(Value::Number(1.0).AsBool().ok());
  EXPECT_FALSE(Value::Bool(true).AsEnergy().ok());
}

TEST(ValueTest, EnergyArithmetic) {
  const Value a = Value::Joules(2.0);
  const Value b = Value::Joules(0.5);
  auto sum = ApplyBinary(BinaryOp::kAdd, a, b, "t");
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum->energy().concrete().joules(), 2.5);
  auto scaled = ApplyBinary(BinaryOp::kMul, a, Value::Number(3.0), "t");
  ASSERT_TRUE(scaled.ok());
  EXPECT_DOUBLE_EQ(scaled->energy().concrete().joules(), 6.0);
  auto ratio = ApplyBinary(BinaryOp::kDiv, a, b, "t");
  ASSERT_TRUE(ratio.ok());
  EXPECT_DOUBLE_EQ(ratio->number(), 4.0);
}

TEST(ValueTest, DimensionErrorsRejected) {
  const Value e = Value::Joules(1.0);
  const Value n = Value::Number(2.0);
  EXPECT_FALSE(ApplyBinary(BinaryOp::kAdd, e, n, "t").ok());
  EXPECT_FALSE(ApplyBinary(BinaryOp::kMul, e, e, "t").ok());
  EXPECT_FALSE(ApplyBinary(BinaryOp::kLt, e, n, "t").ok());
  EXPECT_FALSE(ApplyBinary(BinaryOp::kAnd, n, n, "t").ok());
}

TEST(ValueTest, DivisionByZero) {
  EXPECT_FALSE(
      ApplyBinary(BinaryOp::kDiv, Value::Number(1.0), Value::Number(0.0), "t")
          .ok());
  EXPECT_FALSE(
      ApplyBinary(BinaryOp::kMod, Value::Number(1.0), Value::Number(0.0), "t")
          .ok());
}

TEST(ValueTest, AbstractEnergyComparisonRejected) {
  const Value relu = Value::EnergyValue(AbstractEnergy::Unit("relu", 2.0));
  EXPECT_FALSE(ApplyBinary(BinaryOp::kLt, relu, relu, "t").ok());
  // Equality on identical abstract terms is fine.
  auto eq = ApplyBinary(BinaryOp::kEq, relu, relu, "t");
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(eq->boolean());
}

TEST(ValueTest, UnaryOps) {
  auto neg = ApplyUnary(UnaryOp::kNeg, Value::Joules(2.0), "t");
  ASSERT_TRUE(neg.ok());
  EXPECT_DOUBLE_EQ(neg->energy().concrete().joules(), -2.0);
  auto not_v = ApplyUnary(UnaryOp::kNot, Value::Bool(false), "t");
  ASSERT_TRUE(not_v.ok());
  EXPECT_TRUE(not_v->boolean());
  EXPECT_FALSE(ApplyUnary(UnaryOp::kNeg, Value::Bool(true), "t").ok());
  EXPECT_FALSE(ApplyUnary(UnaryOp::kNot, Value::Number(1.0), "t").ok());
}

TEST(ValueTest, SixteenBytesSharingTerms) {
  static_assert(sizeof(Value) == 16);
  const Value relu = Value::EnergyValue(AbstractEnergy::Unit("relu", 2.0));
  std::vector<Value> copies(64, relu);  // copies share the one term vector
  for (const Value& copy : copies) {
    EXPECT_TRUE(copy == relu);
    EXPECT_EQ(copy.energy().ToString(), "2 relu");
  }
  Value moved = std::move(copies.back());
  EXPECT_EQ(moved.energy().Units(), std::vector<std::string>{"relu"});
  copies.clear();
  EXPECT_EQ(relu.energy().Coefficient("relu"), 2.0);
  EXPECT_TRUE(Value::Joules(3.0).is_concrete_energy());
  EXPECT_FALSE(relu.is_concrete_energy());
  EXPECT_FALSE(Value::Number(3.0).is_concrete_energy());
}

// SameBits is fingerprint equality without building the fingerprints.
TEST(ValueTest, SameBitsMatchesFingerprints) {
  const double nan = std::nan("");
  const std::vector<Value> values = {
      Value::Number(0.0),
      Value::Number(-0.0),
      Value::Number(1.0),
      Value::Number(nan),
      Value::Bool(true),
      Value::Bool(false),
      Value::Joules(0.0),
      Value::Joules(-0.0),
      Value::Joules(1.0),
      Value::Joules(nan),
      Value::EnergyValue(AbstractEnergy::Unit("relu", 2.0)),
      Value::EnergyValue(AbstractEnergy::Unit("relu", 2.0)),
      Value::EnergyValue(AbstractEnergy::Unit("relu", -0.0 + 2.0) +
                         AbstractEnergy::FromConcrete(Energy::Joules(1.0))),
      Value::EnergyValue(AbstractEnergy::Unit("relu", nan)),
      Value::EnergyValue(AbstractEnergy::Unit("conv2d", 2.0)),
      Value::EnergyValue(AbstractEnergy::Unit("relu", 2.0) +
                         AbstractEnergy::Unit("conv2d", 2.0)),
  };
  for (const Value& a : values) {
    for (const Value& b : values) {
      std::string fa;
      std::string fb;
      a.AppendFingerprint(fa);
      b.AppendFingerprint(fb);
      EXPECT_EQ(a.SameBits(b), fa == fb) << a.ToString() << " vs "
                                          << b.ToString();
    }
  }
}

}  // namespace
}  // namespace eclarity
