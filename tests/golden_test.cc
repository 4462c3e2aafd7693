// Golden bit pins for the value representation and Monte Carlo.
//
// Every other representation and Monte Carlo test compares one engine or
// one dispatch path with another, so a change that moved
// both sides alike would pass them all. The literals below were recorded
// once and are checked in: fingerprint bytes (cache keys and replay
// fingerprints are built from them), rendering, unit lists, ratio and
// calibration results, equality on signed zeros and NaN, and the exact
// double bits of MonteCarloMean for fixed seeds on both engines.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/eval/interp.h"
#include "src/lang/parser.h"
#include "src/lang/value.h"
#include "src/units/abstract_energy.h"
#include "src/util/rng.h"
#include "tests/parity_programs.h"

namespace eclarity {
namespace {

std::string Hex(const std::string& bytes) {
  std::string out;
  char buf[3];
  for (const char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(c));
    out += buf;
  }
  return out;
}

std::string FingerprintHex(const Value& v) {
  std::string out;
  v.AppendFingerprint(out);
  return Hex(out);
}

std::string BitsHex(double v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(v)));
  return buf;
}

std::string Join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    out += out.empty() ? "" : ",";
    out += name;
  }
  return out;
}

AbstractEnergy Mixed() {
  return AbstractEnergy::Unit("relu", 2.0) +
         AbstractEnergy::Unit("conv2d", 0.5) +
         AbstractEnergy::FromConcrete(Energy::Millijoules(2.5));
}

AbstractEnergy MultiUnit() {
  return AbstractEnergy::Unit("relu", 16.0) +
         AbstractEnergy::Unit("conv2d", 3.0) +
         AbstractEnergy::Unit("attn", 0.25);
}

// (relu + 3 J) - relu: the relu terms cancel and prune back to concrete.
AbstractEnergy PrunedToConcrete() {
  return (AbstractEnergy::Unit("relu", 1.0) +
          AbstractEnergy::FromConcrete(Energy::Joules(3.0))) -
         AbstractEnergy::Unit("relu", 1.0);
}

TEST(ValueGoldenTest, FingerprintBytes) {
  EXPECT_EQ(FingerprintHex(Value::Number(0.0)), "4e0000000000000000");
  EXPECT_EQ(FingerprintHex(Value::Number(-0.0)), "4e0000000000000080");
  EXPECT_EQ(FingerprintHex(Value::Number(
                std::bit_cast<double>(uint64_t{0x7ff80000deadbeefULL}))),
            "4eefbeadde0000f87f");
  // For-loop counters bit-store int64s in a number's payload; a negative
  // counter is a NaN bit pattern and must still round-trip exactly.
  EXPECT_EQ(FingerprintHex(Value::Number(std::bit_cast<double>(int64_t{42}))),
            "4e2a00000000000000");
  EXPECT_EQ(FingerprintHex(Value::Number(std::bit_cast<double>(int64_t{-3}))),
            "4efdffffffffffffff");
  EXPECT_EQ(FingerprintHex(Value::Bool(true)), "54");
  EXPECT_EQ(FingerprintHex(Value::Bool(false)), "46");
  EXPECT_EQ(FingerprintHex(Value::Joules(1.5e-3)), "45fa7e6abc7493583f");
  EXPECT_EQ(FingerprintHex(Value::Joules(-0.0)), "450000000000000080");
  EXPECT_EQ(
      FingerprintHex(Value::EnergyValue(AbstractEnergy::Unit("relu", 2.0))),
      "45000000000000000072656c753d00000000000000402c");
  EXPECT_EQ(FingerprintHex(Value::EnergyValue(MultiUnit())),
            "450000000000000000"
            "6174746e3d000000000000d03f2c"
            "636f6e7632643d00000000000008402c"
            "72656c753d00000000000030402c");
  EXPECT_EQ(FingerprintHex(Value::EnergyValue(Mixed())),
            "457b14ae47e17a643f"
            "636f6e7632643d000000000000e03f2c"
            "72656c753d00000000000000402c");
  EXPECT_EQ(FingerprintHex(Value::EnergyValue(PrunedToConcrete())),
            "450000000000000840");
  // Pruning drops |coefficient| < 1e-15 and keeps the boundary itself.
  EXPECT_EQ(
      FingerprintHex(Value::EnergyValue(AbstractEnergy::Unit("x", 1e-16))),
      "450000000000000000");
  EXPECT_EQ(
      FingerprintHex(Value::EnergyValue(AbstractEnergy::Unit("x", 1e-15))),
      "450000000000000000783d1656e79eaf03d23c2c");
}

TEST(ValueGoldenTest, Rendering) {
  EXPECT_EQ(Value::Number(0.1).ToString(), "0.1");
  EXPECT_EQ(Value::Number(-0.0).ToString(), "-0");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Joules(1.5e-3).ToString(), "1.5 mJ");
  EXPECT_EQ(Value::Joules(0.0).ToString(), "0 J");
  EXPECT_EQ(AbstractEnergy::Unit("relu", 2.0).ToString(), "2 relu");
  EXPECT_EQ(MultiUnit().ToString(), "0.25 attn + 3 conv2d + 16 relu");
  EXPECT_EQ(Mixed().ToString(), "0.5 conv2d + 2 relu + 2.5 mJ");
  EXPECT_EQ((Mixed() * -1.0).ToString(), "-0.5 conv2d + -2 relu + -2.5 mJ");
  EXPECT_EQ(PrunedToConcrete().ToString(), "3 J");
  EXPECT_EQ(Join(MultiUnit().Units()), "attn,conv2d,relu");
  EXPECT_EQ(Join(Mixed().Units()), "conv2d,relu");
  EXPECT_EQ(Join(PrunedToConcrete().Units()), "");
  EXPECT_EQ(BitsHex(Mixed().Coefficient("conv2d")), "3fe0000000000000");
  EXPECT_EQ(BitsHex(Mixed().Coefficient("absent")), "0000000000000000");
  EXPECT_EQ(BitsHex(Mixed().concrete().joules()), "3f647ae147ae147b");
}

TEST(ValueGoldenTest, RatioAndResolve) {
  const auto ratio = [](const AbstractEnergy& a, const AbstractEnergy& b) {
    const Result<double> r = a.RatioTo(b);
    return r.ok() ? BitsHex(r.value()) : r.status().ToString();
  };
  EXPECT_EQ(ratio(AbstractEnergy::Unit("relu", 4.0),
                  AbstractEnergy::Unit("relu", 3.0)),
            "3ff5555555555555");
  EXPECT_EQ(ratio(AbstractEnergy::FromConcrete(Energy::Joules(1.0)),
                  AbstractEnergy::FromConcrete(Energy::Joules(3.0))),
            "3fd5555555555555");
  EXPECT_EQ(ratio(AbstractEnergy::Unit("relu", 4.0),
                  AbstractEnergy::Unit("conv2d", 2.0)),
            "FailedPrecondition: RatioTo: incomparable abstract units "
            "'relu' vs 'conv2d'");
  EXPECT_EQ(ratio(Mixed(), AbstractEnergy::Unit("relu", 1.0)),
            "FailedPrecondition: RatioTo: quantities are not multiples of a "
            "single common unit");
  EXPECT_EQ(ratio(AbstractEnergy::FromConcrete(Energy::Joules(1.0)),
                  AbstractEnergy::FromConcrete(Energy::Joules(-0.0))),
            "FailedPrecondition: RatioTo: division by zero energy");
  EXPECT_EQ(ratio(AbstractEnergy::Unit("relu", 4.0),
                  AbstractEnergy::FromConcrete(Energy::Joules(1.0))),
            "FailedPrecondition: RatioTo: quantities are not multiples of a "
            "single common unit");

  EnergyCalibration calibration;
  calibration.Bind("relu", Energy::Microjoules(0.8));
  calibration.Bind("conv2d", Energy::Microjoules(30.0));
  calibration.Bind("attn", Energy::Microjoules(7.0));
  const auto resolve = [&](const AbstractEnergy& e,
                           const EnergyCalibration& c) {
    const Result<Energy> r = e.Resolve(c);
    return r.ok() ? BitsHex(r.value().joules()) : r.status().ToString();
  };
  EXPECT_EQ(resolve(Mixed(), calibration), "3f649db1564ec12e");
  EXPECT_EQ(resolve(MultiUnit(), calibration), "3f1b683b52bc6576");
  EXPECT_EQ(resolve(PrunedToConcrete(), EnergyCalibration()),
            "4008000000000000");
  EXPECT_EQ(resolve(MultiUnit(), EnergyCalibration()),
            "NotFound: no calibration for abstract unit 'attn'");
}

TEST(ValueGoldenTest, Equality) {
  const double nan = std::nan("");
  EXPECT_TRUE(Value::Number(0.0) == Value::Number(-0.0));
  EXPECT_FALSE(Value::Number(nan) == Value::Number(nan));
  EXPECT_TRUE(Value::Joules(0.0) == Value::Joules(-0.0));
  EXPECT_FALSE(Value::Joules(nan) == Value::Joules(nan));
  EXPECT_TRUE(Value::EnergyValue(Mixed()) == Value::EnergyValue(Mixed()));
  EXPECT_FALSE(Value::EnergyValue(Mixed()) ==
               Value::EnergyValue(Mixed() * 2.0));
  EXPECT_TRUE(Value::EnergyValue(PrunedToConcrete()) == Value::Joules(3.0));
  EXPECT_FALSE(Value::Joules(1.0) == Value::Number(1.0));
  EXPECT_FALSE(Value::Bool(true) == Value::Number(1.0));
  EXPECT_FALSE(Value::Bool(false) == Value::Number(0.0));
  EXPECT_TRUE(Value::Bool(false) == Value::Bool(false));
}

TEST(ValueGoldenTest, ErrorTexts) {
  const auto apply = [](BinaryOp op, const Value& a, const Value& b) {
    const Result<Value> r = ApplyBinary(op, a, b, "ctx");
    return r.ok() ? r.value().ToString() : r.status().ToString();
  };
  const Value relu = Value::EnergyValue(AbstractEnergy::Unit("relu", 2.0));
  EXPECT_EQ(apply(BinaryOp::kAdd, Value::Joules(1.0), Value::Number(1.0)),
            "InvalidArgument: ctx: cannot apply '+' to energy and number");
  EXPECT_EQ(apply(BinaryOp::kMul, Value::Joules(1.0), Value::Joules(1.0)),
            "InvalidArgument: ctx: cannot multiply energy by energy");
  EXPECT_EQ(apply(BinaryOp::kLt, relu, Value::Joules(1.0)),
            "InvalidArgument: ctx: cannot compare abstract energy '2 relu' "
            "without calibration");
  EXPECT_EQ(apply(BinaryOp::kDiv, relu, Value::Joules(1.0)),
            "InvalidArgument: ctx: RatioTo: quantities are not multiples of "
            "a single common unit");
  EXPECT_EQ(apply(BinaryOp::kDiv, Value::Joules(1.0), Value::Number(0.0)),
            "InvalidArgument: ctx: division by zero");
  EXPECT_EQ(Value::Joules(1.0).AsNumber().status().ToString(),
            "InvalidArgument: expected number, got energy");
  EXPECT_EQ(Value::Number(1.0).AsEnergy().status().ToString(),
            "InvalidArgument: expected energy, got number");
}

Program MustParse(const std::string& source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

// BatchMonteCarloTest's program (tests/engine_parity_test.cc): returns its
// draws as values.
constexpr char kDrawsSource[] = R"(
interface g(n) {
  ecv tier ~ categorical(0: 0.5, 1: 0.3, 2: 0.2);
  ecv extra ~ uniform_int(0, 3);
  return (n + tier * 2 + extra) * 1mJ;
}
)";

// Abstract units resolved through a calibration on every sample.
constexpr char kAbstractSource[] = R"(
interface h(n) {
  ecv big ~ bernoulli(0.25);
  let base = au("relu", n) + 2mJ;
  if (big) {
    return base + au("conv2d", 2);
  }
  return base * 0.5;
}
)";

// MonteCarloMean's bits for seeds 1 and 42 at 256 and 1000 samples, in
// that order, on each engine.
void ExpectMcBits(const std::string& source, const std::string& entry,
                  const std::vector<Value>& args,
                  const EnergyCalibration* calibration,
                  const std::vector<std::string>& want) {
  const Program program = MustParse(source);
  for (const EvalEngine engine :
       {EvalEngine::kTreeWalk, EvalEngine::kBytecode}) {
    EvalOptions options;
    options.engine = engine;
    const Evaluator eval(program, options);
    std::vector<std::string> got;
    for (const uint64_t seed : {1ull, 42ull}) {
      for (const size_t samples : {256u, 1000u}) {
        Rng rng(seed);
        const Result<Energy> mean =
            eval.MonteCarloMean(entry, args, {}, rng, samples, calibration);
        got.push_back(mean.ok() ? BitsHex(mean.value().joules())
                                : mean.status().ToString());
      }
    }
    EXPECT_EQ(got, want) << "engine " << static_cast<int>(engine);
  }
}

TEST(McGoldenTest, Fig1) {
  ExpectMcBits(parity::kFig1Source, "E_ml_webservice_handle",
               {Value::Number(50176.0), Value::Number(10000.0)}, nullptr,
               {"3f85543709b882b9", "3f88f2f9a79a616a", "3f869ace28eba73e",
                "3f85a796bf8cbad8"});
}

TEST(McGoldenTest, DrawsAsValues) {
  ExpectMcBits(kDrawsSource, "g", {Value::Number(5.0)}, nullptr,
               {"3f804bc6a7ef9da6", "3f8074213a0c6b3c", "3f7ffbe76c8b437a",
                "3f7fd7a13c254a23"});
}

TEST(McGoldenTest, AbstractUnitsWithCalibration) {
  EnergyCalibration calibration;
  calibration.Bind("relu", Energy::Microjoules(0.8));
  calibration.Bind("conv2d", Energy::Microjoules(30.0));
  ExpectMcBits(kAbstractSource, "h", {Value::Number(96.0)}, &calibration,
               {"3f55a71d0fdb3f44", "3f54eb16e15950e1", "3f55711ffdcc4908",
                "3f553968a58798bc"});
  // Without the calibration, the first abstract sample fails every run.
  const std::string error =
      "FailedPrecondition: interface returned abstract energy '48 relu + "
      "1 mJ' but no calibration was provided";
  ExpectMcBits(kAbstractSource, "h", {Value::Number(96.0)}, nullptr,
               {error, error, error, error});
}

}  // namespace
}  // namespace eclarity
