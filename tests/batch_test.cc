// Differential & property harness for the SoA batch evaluator
// (src/eval/batch.*) and its service/scheduler routing:
//
//   * BATCH BIT-IDENTITY — BatchPlan::EnumerateFold's per-lane folds
//     (distribution atoms, probability bits, mean) must equal the scalar
//     enumeration fold bit for bit, per lane, against every engine (tree
//     walk, bytecode), at widths {1, 2, 7, 64, 513}, across the
//     shared parity corpus and randomized deep-ECV programs — including
//     error codes and messages when individual lanes fail or exceed
//     budgets.
//   * SERVICE PROPERTIES — EvaluateBatch(batch) equals per-item Dispatch
//     under lane permutation; mixed-profile batches split by effective
//     fingerprint (computed once per distinct override, asserted via
//     MetricsRegistry); divergent-lane scalar fallback is bit-identical;
//     zero-length and single-lane batches are legal.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/eval/batch.h"
#include "src/eval/interp.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/svc/query_service.h"
#include "src/util/rng.h"
#include "tests/deep_program_gen.h"
#include "tests/parity_programs.h"

namespace eclarity {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

Program MustParse(const std::string& source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

std::unique_ptr<QueryService> MustCreate(const std::string& source,
                                         QueryService::Options options = {},
                                         EcvProfile profile = {}) {
  auto service = QueryService::Create(MustParse(source), options,
                                      std::move(profile));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

Counter& BatchLanesCounter() {
  return MetricsRegistry::Global().GetCounter("eclarity_eval_batch_lanes_total");
}
Counter& BatchPassesCounter() {
  return MetricsRegistry::Global().GetCounter(
      "eclarity_eval_batch_passes_total");
}
Counter& BatchFallbacksCounter() {
  return MetricsRegistry::Global().GetCounter(
      "eclarity_eval_batch_scalar_fallbacks_total");
}
Counter& ProfileFingerprintsCounter() {
  return MetricsRegistry::Global().GetCounter(
      "eclarity_svc_profile_fingerprints_total");
}

constexpr int kWidths[] = {1, 2, 7, 64, 513};

// Per-lane argument vectors: the corpus args with arg[0] shifted by the
// lane index (wrapped small so loop bounds and path counts stay bounded),
// or identical lanes when the entry takes no arguments.
std::vector<std::vector<Value>> LaneArgs(const std::vector<double>& base,
                                         int width) {
  std::vector<std::vector<Value>> lanes;
  lanes.reserve(static_cast<size_t>(width));
  for (int l = 0; l < width; ++l) {
    std::vector<Value> args;
    args.reserve(base.size());
    for (size_t j = 0; j < base.size(); ++j) {
      const double shift = j == 0 ? static_cast<double>(l % 5) : 0.0;
      args.push_back(Value::Number(base[j] + shift));
    }
    lanes.push_back(std::move(args));
  }
  return lanes;
}

std::vector<const std::vector<Value>*> LanePtrs(
    const std::vector<std::vector<Value>>& lanes) {
  std::vector<const std::vector<Value>*> ptrs;
  ptrs.reserve(lanes.size());
  for (const auto& lane : lanes) {
    ptrs.push_back(&lane);
  }
  return ptrs;
}

// Asserts one batch lane against the scalar reference fold for the same
// evaluator: same error (code and message) or bit-identical distribution
// atoms and mean.
void ExpectLaneMatchesScalar(const Evaluator& evaluator,
                             const std::string& entry,
                             const std::vector<Value>& args,
                             const EcvProfile& profile,
                             const Result<ExactFold>& lane,
                             const std::string& label) {
  const Result<Distribution> want_dist =
      evaluator.EvalDistribution(entry, args, profile);
  const Result<Energy> want_mean =
      evaluator.ExpectedEnergy(entry, args, profile);
  if (!want_dist.ok()) {
    ASSERT_FALSE(lane.ok()) << label << ": batch lane unexpectedly succeeded";
    EXPECT_EQ(lane.status().code(), want_dist.status().code()) << label;
    EXPECT_EQ(lane.status().message(), want_dist.status().message()) << label;
    return;
  }
  ASSERT_TRUE(lane.ok()) << label << ": " << lane.status().ToString();
  EXPECT_EQ(Bits(lane->mean), Bits(want_mean->joules())) << label;
  const auto& got_atoms = lane->distribution.atoms();
  const auto& want_atoms = want_dist->atoms();
  ASSERT_EQ(got_atoms.size(), want_atoms.size()) << label;
  for (size_t a = 0; a < got_atoms.size(); ++a) {
    EXPECT_EQ(Bits(got_atoms[a].value), Bits(want_atoms[a].value))
        << label << " atom " << a;
    EXPECT_EQ(Bits(got_atoms[a].probability), Bits(want_atoms[a].probability))
        << label << " atom " << a;
  }
}

struct EngineCase {
  const char* name;
  EvalEngine engine;
};
constexpr EngineCase kEngines[] = {
    {"tree_walk", EvalEngine::kTreeWalk},
    {"bytecode", EvalEngine::kBytecode},
};

// --- Differential harness: parity corpus ---------------------------------

TEST(BatchDifferentialTest, ParityCorpusAllEnginesAllWidths) {
  for (const parity::ParityCase& c : parity::kParityCorpus) {
    const Program program = MustParse(c.source);
    for (const EngineCase& engine : kEngines) {
      EvalOptions options;
      options.engine = engine.engine;
      const Evaluator evaluator(program, options);
      const BatchPlan plan(evaluator, c.entry);
      for (const int width : kWidths) {
        const auto lanes = LaneArgs(c.args, width);
        const auto folds = plan.EnumerateFold(LanePtrs(lanes), {}, nullptr);
        ASSERT_EQ(folds.size(), lanes.size());
        for (size_t l = 0; l < lanes.size(); ++l) {
          ExpectLaneMatchesScalar(
              evaluator, c.entry, lanes[l], {}, folds[l],
              std::string(c.name) + "/" + engine.name + "/w" +
                  std::to_string(width) + "/lane" + std::to_string(l));
        }
      }
    }
  }
}

TEST(BatchDifferentialTest, ParityCorpusWithProfileOverride) {
  // A profile override shared by all lanes: the vector engine must resolve
  // draws from the override (shared uniform columns), bit-identically.
  const Program program = MustParse(parity::kFig1Source);
  EcvProfile profile;
  profile.SetBernoulli("request_hit", 0.9);
  profile.SetBernoulli("local_cache_hit", 0.25);
  const Evaluator evaluator(program, {});
  const BatchPlan plan(evaluator, "E_ml_webservice_handle");
  const auto lanes = LaneArgs({50176.0, 10000.0}, 64);
  const auto folds = plan.EnumerateFold(LanePtrs(lanes), profile, nullptr);
  ASSERT_EQ(folds.size(), lanes.size());
  for (size_t l = 0; l < lanes.size(); ++l) {
    ExpectLaneMatchesScalar(evaluator, "E_ml_webservice_handle", lanes[l],
                            profile, folds[l],
                            "fig1_profile/lane" + std::to_string(l));
  }
}

TEST(BatchDifferentialTest, ErrorCorpusPerLaneParity) {
  for (const parity::ParityCase& c : parity::kErrorCorpus) {
    const Program program = MustParse(c.source);
    const Evaluator evaluator(program, {});
    const BatchPlan plan(evaluator, c.entry);
    const auto lanes = LaneArgs(c.args, 7);
    const auto folds = plan.EnumerateFold(LanePtrs(lanes), {}, nullptr);
    ASSERT_EQ(folds.size(), lanes.size());
    for (size_t l = 0; l < lanes.size(); ++l) {
      ExpectLaneMatchesScalar(evaluator, c.entry, lanes[l], {}, folds[l],
                              std::string(c.name) + "/lane" +
                                  std::to_string(l));
    }
  }
}

TEST(BatchDifferentialTest, PerLaneBudgetErrors) {
  // Lanes with n in {2..10} under max_paths = 64: lanes with 2^n <= 64
  // succeed, the rest fail with the enumeration budget error. The per-lane
  // loop bound diverges, so the whole tile must retreat to the scalar
  // engine — which reports each lane's own success or budget error.
  constexpr char kSource[] = R"(
interface f(n) {
  let mut acc = 0J;
  for i in 0..n {
    ecv b ~ bernoulli(0.5);
    if (b) { acc = acc + 2mJ; } else { acc = acc + 1mJ; }
  }
  return acc;
}
)";
  const Program program = MustParse(kSource);
  EvalOptions options;
  options.max_paths = 64;
  options.enum_cache_capacity = 0;
  const Evaluator evaluator(program, options);
  const BatchPlan plan(evaluator, "f");
  std::vector<std::vector<Value>> lanes;
  for (int n = 2; n <= 10; ++n) {
    lanes.push_back({Value::Number(static_cast<double>(n))});
  }
  const uint64_t fallbacks_before = BatchFallbacksCounter().value();
  const auto folds = plan.EnumerateFold(LanePtrs(lanes), {}, nullptr);
  ASSERT_EQ(folds.size(), lanes.size());
  EXPECT_EQ(BatchFallbacksCounter().value() - fallbacks_before, lanes.size());
  for (size_t l = 0; l < lanes.size(); ++l) {
    const int n = 2 + static_cast<int>(l);
    if (n <= 6) {  // 2^6 == 64 paths fits exactly
      EXPECT_TRUE(folds[l].ok()) << "n=" << n;
    } else {
      ASSERT_FALSE(folds[l].ok()) << "n=" << n;
      EXPECT_EQ(folds[l].status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(folds[l].status().message(),
                "ECV assignment enumeration exceeded max_paths");
    }
    ExpectLaneMatchesScalar(evaluator, "f", lanes[l], {}, folds[l],
                            "budget/lane" + std::to_string(l));
  }
}

TEST(BatchDifferentialTest, UniformLaneBatchVectorizes) {
  // Identical-argument lanes over Fig. 1 (all branching on shared draws)
  // must complete as vector passes, not scalar fallbacks.
  const Program program = MustParse(parity::kFig1Source);
  const Evaluator evaluator(program, {});
  const BatchPlan plan(evaluator, "E_ml_webservice_handle");
  std::vector<std::vector<Value>> lanes(
      64, {Value::Number(50176.0), Value::Number(10000.0)});
  const uint64_t lanes_before = BatchLanesCounter().value();
  const uint64_t passes_before = BatchPassesCounter().value();
  const uint64_t fallbacks_before = BatchFallbacksCounter().value();
  const auto folds = plan.EnumerateFold(LanePtrs(lanes), {}, nullptr);
  ASSERT_EQ(folds.size(), lanes.size());
  for (const auto& fold : folds) {
    ASSERT_TRUE(fold.ok()) << fold.status().ToString();
  }
  EXPECT_EQ(BatchLanesCounter().value() - lanes_before, 64u);
  EXPECT_EQ(BatchPassesCounter().value() - passes_before, 1u);
  EXPECT_EQ(BatchFallbacksCounter().value() - fallbacks_before, 0u);
}

// --- Differential harness: randomized deep-ECV programs ------------------

TEST(BatchDifferentialTest, RandomDeepPrograms) {
  Rng rng(0xBA7C4E5Eu);
  for (const int depth : {6, 7, 8}) {
    for (const bool friendly : {true, false}) {
      const std::string source = deepgen::DeepProgram(rng, depth, friendly);
      const Program program = MustParse(source);
      for (const EngineCase& engine : kEngines) {
        EvalOptions options;
        options.engine = engine.engine;
        const Evaluator evaluator(program, options);
        const BatchPlan plan(evaluator, "deep");
        for (const int width : {1, 2, 7, 64}) {
          const auto lanes = LaneArgs({3.0}, width);
          const auto folds = plan.EnumerateFold(LanePtrs(lanes), {}, nullptr);
          ASSERT_EQ(folds.size(), lanes.size());
          for (size_t l = 0; l < lanes.size(); ++l) {
            ExpectLaneMatchesScalar(
                evaluator, "deep", lanes[l], {}, folds[l],
                "deep_d" + std::to_string(depth) +
                    (friendly ? "_friendly/" : "_unfriendly/") + engine.name +
                    "/w" + std::to_string(width) + "/lane" +
                    std::to_string(l));
          }
        }
      }
    }
  }
}

TEST(BatchDifferentialTest, RandomDeepProgramWidth513) {
  Rng rng(0x513BA7C4u);
  const std::string source =
      deepgen::DeepProgram(rng, 6, /*friendly=*/true, /*binary_only=*/true);
  const Program program = MustParse(source);
  const Evaluator evaluator(program, {});
  const BatchPlan plan(evaluator, "deep");
  const auto lanes = LaneArgs({2.0}, 513);
  const auto folds = plan.EnumerateFold(LanePtrs(lanes), {}, nullptr);
  ASSERT_EQ(folds.size(), lanes.size());
  for (size_t l = 0; l < lanes.size(); ++l) {
    ExpectLaneMatchesScalar(evaluator, "deep", lanes[l], {}, folds[l],
                            "deep513/lane" + std::to_string(l));
  }
}

// --- Service-level properties --------------------------------------------

std::vector<Query> MixedBatch(size_t n) {
  std::vector<Query> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Query query;
    query.interface = "E_ml_webservice_handle";
    const double image = 1024.0 + static_cast<double>(i % 8) * 64.0;
    query.args = {Value::Number(image), Value::Number(image / 4.0)};
    query.kind =
        i % 3 == 0 ? QueryKind::kDistribution : QueryKind::kExpected;
    batch.push_back(std::move(query));
  }
  return batch;
}

TEST(BatchPropertyTest, BatchEqualsSinglesUnderLanePermutation) {
  auto service = MustCreate(parity::kFig1Source);
  auto singles = MustCreate(parity::kFig1Source);
  std::vector<Query> batch = MixedBatch(37);
  // A fixed permutation: results must follow their lanes positionally.
  std::vector<size_t> perm(batch.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  Rng rng(99);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.UniformInt(0, static_cast<int64_t>(i) - 1)]);
  }
  std::vector<Query> permuted;
  permuted.reserve(batch.size());
  for (const size_t p : perm) {
    permuted.push_back(batch[p]);
  }
  const auto results = service->EvaluateBatch(permuted);
  ASSERT_EQ(results.size(), permuted.size());
  for (size_t j = 0; j < permuted.size(); ++j) {
    const auto single = singles->Dispatch(batch[perm[j]]);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(results[j].ok()) << results[j].status().ToString();
    EXPECT_EQ(results[j]->Fingerprint(), single->Fingerprint())
        << "lane " << j;
  }
}

TEST(BatchPropertyTest, MixedProfileBatchSplitsByFingerprintGroup) {
  auto service = MustCreate(parity::kFig1Source);
  auto singles = MustCreate(parity::kFig1Source);
  EcvProfile hot;
  hot.SetBernoulli("request_hit", 0.9);
  EcvProfile cold;
  cold.SetBernoulli("request_hit", 0.1);
  std::vector<Query> batch;
  for (size_t i = 0; i < 24; ++i) {
    Query query;
    query.interface = "E_ml_webservice_handle";
    query.args = {Value::Number(1024.0 + static_cast<double>(i % 4) * 64.0),
                  Value::Number(256.0)};
    if (i % 3 == 1) {
      query.profile = hot;
    } else if (i % 3 == 2) {
      query.profile = cold;
    }
    batch.push_back(std::move(query));
  }
  const uint64_t fp_before = ProfileFingerprintsCounter().value();
  const auto results = service->EvaluateBatch(batch);
  // The hoisted grouping merges once per distinct override (hot, cold),
  // not once per override-carrying item.
  EXPECT_EQ(ProfileFingerprintsCounter().value() - fp_before, 2u);
  // One fold-cache lookup per base-profile item (8 of 24, all cold
  // misses); what-if items never ask the store.
  const QueryService::CacheStats stats = service->TotalCacheStats();
  EXPECT_EQ(stats.lookups(), 8u);
  EXPECT_EQ(stats.misses, 8u);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto single = singles->Dispatch(batch[i]);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i]->Fingerprint(), single->Fingerprint())
        << "item " << i;
  }
}

TEST(BatchPropertyTest, FingerprintHoistingRegression) {
  // The pre-SoA EvaluateBatch re-merged and re-fingerprinted the effective
  // profile for every item. One batch of 16 identical overrides must cost
  // exactly one merge+fingerprint; 16 single dispatches cost 16.
  auto service = MustCreate(parity::kFig1Source);
  EcvProfile hot;
  hot.SetBernoulli("request_hit", 0.9);
  Query query;
  query.interface = "E_ml_webservice_handle";
  query.args = {Value::Number(1024.0), Value::Number(256.0)};
  query.profile = hot;
  const std::vector<Query> batch(16, query);

  const uint64_t batch_before = ProfileFingerprintsCounter().value();
  const auto results = service->EvaluateBatch(batch);
  const uint64_t batch_delta =
      ProfileFingerprintsCounter().value() - batch_before;
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(batch_delta, 1u);

  const uint64_t single_before = ProfileFingerprintsCounter().value();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(service->Dispatch(query).ok());
  }
  EXPECT_EQ(ProfileFingerprintsCounter().value() - single_before, 16u);
}

TEST(BatchPropertyTest, DivergentLanesFallBackBitIdentically) {
  // Per-lane arguments steer control flow differently (arg-dependent
  // branch), so the vector pass must abort and the per-lane scalar rerun
  // must produce the bits single dispatch produces.
  constexpr char kSource[] = R"(
interface f(n) {
  ecv retry ~ bernoulli(0.25);
  if (n < 3) {
    return retry ? 3mJ : 1mJ;
  }
  return (retry ? 2 : 1) * n * 1mJ;
}
)";
  auto service = MustCreate(kSource);
  auto singles = MustCreate(kSource);
  std::vector<Query> batch;
  for (size_t i = 0; i < 8; ++i) {
    Query query;
    query.interface = "f";
    query.args = {Value::Number(static_cast<double>(i))};
    batch.push_back(std::move(query));
  }
  const uint64_t fallbacks_before = BatchFallbacksCounter().value();
  const auto results = service->EvaluateBatch(batch);
  // All 8 distinct lanes retreat to the scalar engine, and are counted.
  EXPECT_EQ(BatchFallbacksCounter().value() - fallbacks_before, 8u);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto single = singles->Dispatch(batch[i]);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i]->Fingerprint(), single->Fingerprint())
        << "item " << i;
  }
}

TEST(BatchPropertyTest, ZeroLengthAndSingleLaneBatchesAreLegal) {
  auto service = MustCreate(parity::kFig1Source);
  EXPECT_TRUE(service->EvaluateBatch({}).empty());

  Query query;
  query.interface = "E_ml_webservice_handle";
  query.args = {Value::Number(1024.0), Value::Number(256.0)};
  const auto batch = service->EvaluateBatch({query});
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_TRUE(batch[0].ok());
  const auto single = service->Dispatch(query);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(batch[0]->Fingerprint(), single->Fingerprint());

  // BatchPlan itself must accept zero lanes.
  const Program program = MustParse(parity::kFig1Source);
  const Evaluator evaluator(program, {});
  const BatchPlan plan(evaluator, "E_ml_webservice_handle");
  EXPECT_TRUE(plan.EnumerateFold({}, {}, nullptr).empty());
}

TEST(BatchPropertyTest, SignedZeroLanesKeepTheirBits) {
  // +0.0 and -0.0 compare equal but are different arguments: a batch must
  // not collapse them into one uniform lane value. The distribution's atom
  // keeps the argument's sign, so a collapsed lane answers other bits.
  constexpr char kSource[] = R"(
interface f(x) {
  return 1mJ * x;
}
)";
  auto service = MustCreate(kSource);
  auto singles = MustCreate(kSource);
  std::vector<Query> batch;
  for (const double x : {0.0, -0.0, -0.0, 0.0}) {
    Query query;
    query.interface = "f";
    query.args = {Value::Number(x)};
    query.kind = QueryKind::kDistribution;
    batch.push_back(std::move(query));
  }
  const auto results = service->EvaluateBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto single = singles->Dispatch(batch[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i]->Fingerprint(), single->Fingerprint())
        << "item " << i;
  }
}

TEST(BatchPropertyTest, BatchErrorLanesMatchSingleDispatch) {
  // A batch mixing healthy lanes with failing lanes (unknown interface,
  // over-budget lanes) must report per-lane statuses identical to singles.
  constexpr char kSource[] = R"(
interface f(n) {
  let mut acc = 0J;
  for i in 0..n {
    ecv b ~ bernoulli(0.5);
    if (b) { acc = acc + 1mJ; }
  }
  return acc;
}
)";
  QueryService::Options options;
  options.eval.max_paths = 64;
  auto service = MustCreate(kSource, options);
  auto singles = MustCreate(kSource, options);
  std::vector<Query> batch;
  for (const double n : {2.0, 8.0, 4.0, 9.0}) {  // 2^8, 2^9 exceed 64 paths
    Query query;
    query.interface = "f";
    query.args = {Value::Number(n)};
    batch.push_back(std::move(query));
  }
  Query missing;
  missing.interface = "nope";
  batch.push_back(missing);
  const auto results = service->EvaluateBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto single = singles->Dispatch(batch[i]);
    ASSERT_EQ(results[i].ok(), single.ok()) << "item " << i;
    if (!single.ok()) {
      EXPECT_EQ(results[i].status().code(), single.status().code())
          << "item " << i;
      EXPECT_EQ(results[i].status().message(), single.status().message())
          << "item " << i;
    } else {
      EXPECT_EQ(results[i]->Fingerprint(), single->Fingerprint())
          << "item " << i;
    }
  }
}

}  // namespace
}  // namespace eclarity
