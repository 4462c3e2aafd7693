// Stress and determinism tests for the concurrent query layer (src/svc):
// the snapshot-swapping QueryService and its thread-local fold front. The load tests run real threads and are meant to be
// exercised under ThreadSanitizer (the CI sanitize-thread job does); the
// determinism tests enforce the service contract that a concurrent run is
// bit-identical to a single-threaded replay of the same request log.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/eval/interp.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/svc/query_service.h"
#include "src/util/rng.h"
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

// The Fig. 1 interface — the same corpus the engine-parity tests use.
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

// --- QueryService: determinism under concurrency ----------------------------

// The serve-loop request mix: a pure function of the global query index, so
// concurrent clients and the single-threaded replay generate the same log.
Query MixedQueryAt(size_t global) {
  Query query;
  query.interface = "E_ml_webservice_handle";
  query.args = {Value::Number(50176.0), Value::Number(10000.0)};
  if (global % 64 == 0) {
    query.kind = QueryKind::kMonteCarlo;
    query.seed = global;
    query.samples = 128;
  } else if (global % 16 == 0) {
    query.kind = QueryKind::kDistribution;
  } else if (global % 16 == 8) {
    query.kind = QueryKind::kSample;
    query.seed = global * 2 + 1;
  } else {
    query.kind = QueryKind::kExpected;
  }
  return query;
}

TEST(QueryServiceConcurrencyTest, MixedLoadBitIdenticalToSingleThreadedReplay) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 96;
  auto service = MustCreate(kFig1Source);

  std::vector<std::vector<std::string>> fingerprints(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &fingerprints, t] {
      std::vector<std::string>& out = fingerprints[t];
      out.reserve(kPerThread);
      for (size_t i = 0; i < kPerThread; ++i) {
        auto result = service->Dispatch(MixedQueryAt(t * kPerThread + i));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        out.push_back(result->Fingerprint());
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  // Replay the identical request log on ONE thread through a fresh service.
  auto replay = MustCreate(kFig1Source);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      auto result = replay->Dispatch(MixedQueryAt(t * kPerThread + i));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->Fingerprint(), fingerprints[t][i])
          << "thread " << t << " query " << i;
    }
  }

  // Quiescent cache accounting: every lookup is a hit or a miss.
  const QueryService::CacheStats total = service->TotalCacheStats();
  EXPECT_EQ(total.hits + total.misses, total.lookups());
  EXPECT_GT(total.hits, 0u);  // one arg vector: the cache must be doing work
}

TEST(QueryServiceConcurrencyTest, EightThreadParityCorpusMatchesEvaluator) {
  // Every entry in the engine-parity corpus, answered concurrently by the
  // service, must carry the exact bits the single-threaded engine produces.
  struct Case {
    const char* source;
    const char* entry;
    std::vector<Value> args;
  };
  const std::vector<Case> corpus = {
      {kFig1Source, "E_ml_webservice_handle",
       {Value::Number(50176.0), Value::Number(10000.0)}},
      {R"(
const k_iters = 4;
const k_unit = 2mJ;
interface f(x) {
  let mut total = 0J;
  for i in 0..k_iters {
    ecv spike ~ bernoulli(0.25);
    let step = spike ? k_unit * (i + 1) : k_unit;
    total = total + step;
  }
  return total + min(x, k_iters) * 1mJ;
}
)",
       "f",
       {Value::Number(7.0)}},
      {R"(
interface outer(n) {
  ecv tier ~ categorical(0: 0.5, 1: 0.3, 2: 0.2);
  return inner(tier) * n;
}
interface inner(tier) {
  ecv burst ~ uniform_int(1, 3);
  return (tier + 1) * burst * 1uJ;
}
)",
       "outer",
       {Value::Number(2.0)}},
  };

  for (const Case& c : corpus) {
    SCOPED_TRACE(c.entry);
    const Program program = MustParse(c.source);
    Evaluator evaluator(program);
    auto reference = evaluator.ExpectedEnergy(c.entry, c.args, {});
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const uint64_t want = Bits(reference->joules());

    auto service = MustCreate(c.source);
    std::vector<std::thread> workers;
    workers.reserve(8);
    for (int t = 0; t < 8; ++t) {
      workers.emplace_back([&service, &c, want] {
        for (int i = 0; i < 50; ++i) {
          Query query;
          query.interface = c.entry;
          query.args = c.args;
          auto energy = service->Expected(query);
          ASSERT_TRUE(energy.ok()) << energy.status().ToString();
          EXPECT_EQ(Bits(energy->joules()), want);
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
}

TEST(QueryServiceConcurrencyTest, PerQueryProfileOverrideMatchesEvaluator) {
  const char* source = R"(
interface f() {
  ecv mode ~ bernoulli(0.5);
  return mode ? 1mJ : 2mJ;
}
)";
  EcvProfile profile;
  ASSERT_TRUE(profile
                  .Set("mode", {{Value::Bool(true), 0.2},
                                {Value::Bool(false), 0.8}})
                  .ok());
  const Program program = MustParse(source);
  Evaluator evaluator(program);
  auto reference = evaluator.ExpectedEnergy("f", {}, profile);
  ASSERT_TRUE(reference.ok());

  auto service = MustCreate(source);
  Query query;
  query.interface = "f";
  query.profile = profile;
  auto overridden = service->Expected(query);
  ASSERT_TRUE(overridden.ok());
  EXPECT_EQ(Bits(overridden->joules()), Bits(reference->joules()));

  // The what-if made no front probe; only the base query probes the front.
  Query base;
  base.interface = "f";
  auto plain = service->Expected(base);
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(Bits(plain->joules()), Bits(overridden->joules()));
  EXPECT_EQ(service->TotalCacheStats().lookups(), 1u);
}

TEST(QueryServiceConcurrencyTest, MonteCarloDeterministicAcrossCallers) {
  auto service = MustCreate(kFig1Source);
  Query query = MixedQueryAt(0);
  ASSERT_EQ(query.kind, QueryKind::kMonteCarlo);
  query.samples = 1000;
  query.seed = 42;

  // The reference stream: the engine itself, fed the same seed.
  const Program program = MustParse(kFig1Source);
  Evaluator evaluator(program);
  Rng rng(42);
  auto reference = evaluator.MonteCarloMean(query.interface, query.args, {},
                                            rng, query.samples);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Concurrent submitters with the same seed must all reproduce it.
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&service, &query, &reference] {
      for (int i = 0; i < 8; ++i) {
        auto mc = service->MonteCarlo(query);
        ASSERT_TRUE(mc.ok()) << mc.status().ToString();
        EXPECT_EQ(Bits(mc->joules()), Bits(reference->joules()));
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

// The `Threads:` count of /proc/self/status, or -1 if it cannot be read.
int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

TEST(QueryServiceConcurrencyTest, AbstractEnergyArgumentSharedAcrossThreads) {
  // One abstract-energy argument is copied into every thread's queries,
  // the thread-local fronts and the store's entries, and abstract samples
  // come back out: its term vector's reference count moves on every copy
  // and release from several threads at once (the TSan job runs this), and
  // each answer must still match a single-threaded replay bit for bit.
  constexpr char kSource[] = R"(
interface f(e, n) {
  ecv big ~ bernoulli(0.25);
  if (big) {
    return e * n + au("conv2d", 2);
  }
  return e * n;
}
)";
  EnergyCalibration calibration;
  calibration.Bind("relu", Energy::Microjoules(0.8));
  calibration.Bind("conv2d", Energy::Microjoules(30.0));
  QueryService::Options options;
  options.calibration = &calibration;
  const Value shared =
      Value::EnergyValue(AbstractEnergy::Unit("relu", 3.0) +
                         AbstractEnergy::FromConcrete(Energy::Millijoules(1)));
  const QueryKind kinds[] = {QueryKind::kExpected, QueryKind::kDistribution,
                             QueryKind::kMonteCarlo, QueryKind::kSample};
  const auto query_at = [&](int i) {
    Query query;
    query.interface = "f";
    query.args = {shared, Value::Number(1.0 + i % 8)};
    query.kind = kinds[i % 4];
    query.seed = static_cast<uint64_t>(i);
    query.samples = 64;
    return query;
  };
  constexpr int kQueries = 256;
  std::vector<std::string> want;
  {
    auto replay = MustCreate(kSource, options);
    for (int i = 0; i < kQueries; ++i) {
      auto outcome = replay->Dispatch(query_at(i));
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      want.push_back(outcome->Fingerprint());
    }
  }

  auto service = MustCreate(kSource, options);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kQueries; ++i) {
        const int index = (i + 37 * t) % kQueries;
        auto outcome = service->Dispatch(query_at(index));
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        EXPECT_EQ(outcome->Fingerprint(), want[index]) << "query " << index;
      }
      std::vector<Query> batch;
      for (int i = 0; i < kQueries; i += 4) {  // the kExpected queries
        batch.push_back(query_at(i));
      }
      const auto answers = service->EvaluateBatch(batch);
      for (size_t i = 0; i < answers.size(); ++i) {
        ASSERT_TRUE(answers[i].ok()) << answers[i].status().ToString();
        EXPECT_EQ(answers[i]->Fingerprint(), want[4 * i]) << "item " << i;
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

TEST(QueryServiceConcurrencyTest, CreateStartsNoThreads) {
  // Monte Carlo samples on the calling thread: neither constructing the
  // service nor answering an MC query may start a thread.
  const int before = ProcessThreadCount();
  ASSERT_GT(before, 0);
  auto service = MustCreate(kFig1Source);
  const Query query = MixedQueryAt(0);
  ASSERT_EQ(query.kind, QueryKind::kMonteCarlo);
  auto mc = service->MonteCarlo(query);
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  EXPECT_EQ(ProcessThreadCount(), before);
}

TEST(QueryServiceConcurrencyTest, BatchBitIdenticalToSinglesAndDeduped) {
  auto service = MustCreate(kFig1Source);
  std::vector<Query> batch;
  for (size_t i = 0; i < 48; ++i) {
    batch.push_back(MixedQueryAt(i));
  }
  auto batched = service->EvaluateBatch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  // One arg vector and one profile: the first batch fronted its answer, so
  // every exact item of a second identical batch is a front hit.
  uint64_t exact_items = 0;
  for (const Query& query : batch) {
    exact_items += query.kind == QueryKind::kExpected ||
                   query.kind == QueryKind::kDistribution;
  }
  const QueryService::CacheStats first = service->TotalCacheStats();
  auto again = service->EvaluateBatch(batch);
  ASSERT_EQ(again.size(), batch.size());
  const QueryService::CacheStats second = service->TotalCacheStats();
  EXPECT_EQ(second.hits - first.hits, exact_items);
  EXPECT_EQ(second.misses, first.misses);

  auto singles = MustCreate(kFig1Source);
  for (size_t i = 0; i < batch.size(); ++i) {
    auto one = singles->Dispatch(batch[i]);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    EXPECT_EQ(batched[i]->Fingerprint(), one->Fingerprint()) << "query " << i;
    ASSERT_TRUE(again[i].ok()) << again[i].status().ToString();
    EXPECT_EQ(again[i]->Fingerprint(), one->Fingerprint()) << "query " << i;
  }
}

// The batch request log: a pure function of (thread, round, lane), so the
// concurrent run and the single-threaded replay see identical batches.
std::vector<Query> BatchLogAt(size_t thread, size_t round) {
  std::vector<Query> batch;
  batch.reserve(16);
  for (size_t lane = 0; lane < 16; ++lane) {
    const size_t global = (thread * 97 + round) * 16 + lane;
    Query query;
    query.interface = "E_ml_webservice_handle";
    query.args = {Value::Number(50176.0 + static_cast<double>(global % 6) * 64.0),
                  Value::Number(10000.0)};
    query.kind =
        global % 5 == 0 ? QueryKind::kDistribution : QueryKind::kExpected;
    batch.push_back(std::move(query));
  }
  return batch;
}

TEST(QueryServiceConcurrencyTest, BatchDispatchBitIdenticalToReplay) {
  // 8 threads each push rounds of 16-lane batches through the SoA batch
  // path; every fingerprint must match a single-threaded replay of the
  // identical batch log on a fresh service.
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 24;
  auto service = MustCreate(kFig1Source);

  std::vector<std::vector<std::string>> fingerprints(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &fingerprints, t] {
      std::vector<std::string>& out = fingerprints[t];
      out.reserve(kRounds * 16);
      for (size_t r = 0; r < kRounds; ++r) {
        const auto results = service->EvaluateBatch(BatchLogAt(t, r));
        for (const auto& result : results) {
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          out.push_back(result->Fingerprint());
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  auto replay = MustCreate(kFig1Source);
  for (size_t t = 0; t < kThreads; ++t) {
    size_t cursor = 0;
    for (size_t r = 0; r < kRounds; ++r) {
      const auto results = replay->EvaluateBatch(BatchLogAt(t, r));
      for (const auto& result : results) {
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->Fingerprint(), fingerprints[t][cursor])
            << "thread " << t << " round " << r;
        ++cursor;
      }
    }
  }
}

TEST(QueryServiceConcurrencyTest, BatchDispatchIsSnapshotAtomicUnderSwaps) {
  // EvaluateBatch pins ONE snapshot for the whole batch, so while a writer
  // flips the profile every answer in a batch must come from the same
  // world: the per-lane fingerprints are uniformly the base world's or
  // uniformly the hot world's, never a mix.
  EcvProfile hot;
  hot.SetBernoulli("request_hit", 0.9);
  const std::vector<Query> batch = BatchLogAt(0, 0);

  // Oracle fingerprints for both legal worlds, from fresh services.
  std::vector<std::string> world_a;
  std::vector<std::string> world_b;
  {
    auto base_service = MustCreate(kFig1Source);
    auto hot_service = MustCreate(kFig1Source, {}, hot);
    for (const Query& query : batch) {
      auto a = base_service->Dispatch(query);
      auto b = hot_service->Dispatch(query);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_NE(a->Fingerprint(), b->Fingerprint());
      world_a.push_back(a->Fingerprint());
      world_b.push_back(b->Fingerprint());
    }
  }

  auto service = MustCreate(kFig1Source);
  std::atomic<bool> stop{false};
  std::thread writer([&service, &hot, &stop] {
    EcvProfile base;  // empty profile: the seed world
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      service->UpdateProfile(i % 2 == 0 ? hot : base);
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&service, &batch, &world_a, &world_b] {
      for (int round = 0; round < 50; ++round) {
        const auto results = service->EvaluateBatch(batch);
        ASSERT_EQ(results.size(), batch.size());
        ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
        const std::vector<std::string>* want =
            results[0]->Fingerprint() == world_a[0] ? &world_a : &world_b;
        for (size_t i = 0; i < results.size(); ++i) {
          ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
          EXPECT_EQ(results[i]->Fingerprint(), (*want)[i])
              << "round " << round << " lane " << i << ": mixed snapshots";
        }
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(QueryServiceConcurrencyTest, ErrorsPropagateAndAreNeverCached) {
  auto service = MustCreate(kFig1Source);
  Query query;
  query.interface = "E_no_such_interface";
  for (int i = 0; i < 3; ++i) {
    auto result = service->Expected(query);
    ASSERT_FALSE(result.ok());
  }
  const QueryService::CacheStats stats = service->TotalCacheStats();
  EXPECT_EQ(stats.misses, 3u);  // never satisfied from cache
  EXPECT_EQ(stats.hits, 0u);
}

TEST(QueryServiceConcurrencyTest, RejectsOpenPrograms) {
  auto program = ParseProgram(
      "interface f(x) { return E_imported(x); }");
  ASSERT_TRUE(program.ok());
  auto service = QueryService::Create(std::move(*program));
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition);
}

// --- QueryService: snapshot publication -------------------------------------

TEST(QueryServiceSnapshotTest, PinnedSnapshotSurvivesProfileSwap) {
  auto service = MustCreate(kFig1Source);
  Query query = MixedQueryAt(1);  // kExpected

  auto before = service->Expected(query);
  ASSERT_TRUE(before.ok());
  auto pinned = service->AcquireSnapshot();

  EcvProfile always_hit;
  always_hit.SetBernoulli("request_hit", 1.0);
  service->UpdateProfile(always_hit);

  // New queries see the new profile; the pinned snapshot still answers with
  // the old world, bit for bit.
  auto after = service->Expected(query);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(Bits(after->joules()), Bits(before->joules()));
  auto on_pinned = service->ExpectedOn(*pinned, query);
  ASSERT_TRUE(on_pinned.ok());
  EXPECT_EQ(Bits(on_pinned->joules()), Bits(before->joules()));
}

TEST(QueryServiceSnapshotTest, ProfileSwapsRacingQueriesYieldOnlyLegalAnswers) {
  auto service = MustCreate(kFig1Source);
  Query query = MixedQueryAt(1);  // kExpected

  // The two legal worlds, computed up front.
  EcvProfile hot;
  hot.SetBernoulli("request_hit", 0.9);
  auto base_answer = service->Expected(query);
  ASSERT_TRUE(base_answer.ok());
  Query hot_query = query;
  hot_query.profile = hot;
  auto hot_answer = service->Expected(hot_query);
  ASSERT_TRUE(hot_answer.ok());
  const uint64_t legal_a = Bits(base_answer->joules());
  const uint64_t legal_b = Bits(hot_answer->joules());

  std::atomic<bool> stop{false};
  std::thread writer([&service, &hot, &stop] {
    EcvProfile base;  // empty profile: the seed world
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      service->UpdateProfile(i % 2 == 0 ? hot : base);
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&service, &query, legal_a, legal_b] {
      for (int i = 0; i < 400; ++i) {
        auto energy = service->Expected(query);
        ASSERT_TRUE(energy.ok()) << energy.status().ToString();
        const uint64_t got = Bits(energy->joules());
        EXPECT_TRUE(got == legal_a || got == legal_b) << got;
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(QueryServiceSnapshotTest, ProgramSwapBumpsGenerationAndRekeysCache) {
  auto service = MustCreate("interface f() { return 1J; }");
  Query query;
  query.interface = "f";
  auto v1 = service->Expected(query);
  ASSERT_TRUE(v1.ok());
  EXPECT_DOUBLE_EQ(v1->joules(), 1.0);
  EXPECT_EQ(service->snapshot_generation(), 0u);

  ASSERT_TRUE(service->UpdateProgram(
                         MustParse("interface f() { return 2J; }"))
                  .ok());
  EXPECT_EQ(service->snapshot_generation(), 1u);
  auto v2 = service->Expected(query);
  ASSERT_TRUE(v2.ok());
  // A program swap publishes a new snapshot, so the old program's fronted
  // fold cannot leak into the new world.
  EXPECT_DOUBLE_EQ(v2->joules(), 2.0);
}

// --- QueryService: analytic certified modes ---------------------------------

// A request mix cycling the per-query dist_mode override — a pure function
// of the global index, so the concurrent run and the replay share a log.
Query AnalyticQueryAt(size_t global) {
  Query query;
  query.interface = "acc_chain";
  query.args = {Value::Number(6.0)};
  query.kind = QueryKind::kExpected;
  switch (global % 4) {
    case 0:  // service default (enumeration) baseline
      break;
    case 1:  // explicit per-query enumeration override
      query.dist_mode = DistMode::kEnumerate;
      break;
    case 2:
      query.kind = QueryKind::kDistribution;
      query.dist_mode = DistMode::kAnalyticBounded;
      break;
    default:
      query.dist_mode = DistMode::kAnalyticMoments;
      break;
  }
  return query;
}

TEST(QueryServiceConcurrencyTest,
     AnalyticModesBitIdenticalToSingleThreadedReplay) {
  // 8 threads hammer the snapshot evaluator's memoized sub-distribution
  // cache with mixed certified/enumeration queries; the outcome
  // fingerprints (which include the certified bound and pruned-mass bits)
  // must match a single-threaded replay of the same log exactly.
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 64;
  auto service = MustCreate(parity::kAccumulatorChainSource);

  std::vector<std::vector<std::string>> fingerprints(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &fingerprints, t] {
      std::vector<std::string>& out = fingerprints[t];
      out.reserve(kPerThread);
      for (size_t i = 0; i < kPerThread; ++i) {
        auto result = service->Dispatch(AnalyticQueryAt(t * kPerThread + i));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        out.push_back(result->Fingerprint());
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  auto replay = MustCreate(parity::kAccumulatorChainSource);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      auto result = replay->Dispatch(AnalyticQueryAt(t * kPerThread + i));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->Fingerprint(), fingerprints[t][i])
          << "thread " << t << " query " << i;
    }
  }
}

TEST(QueryServiceConcurrencyTest, AnalyticOutcomesMatchEvaluatorAndCertify) {
  // The concurrent service's answers carry the single-threaded engine's
  // exact bits (explicit kEnumerate override) and a bound containing the
  // exact mean (bounded/moments modes).
  const Program program = MustParse(parity::kAccumulatorChainSource);
  Evaluator evaluator(program);
  auto exact = evaluator.ExpectedEnergy("acc_chain", {Value::Number(6.0)}, {});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  const double want = exact->joules();

  auto service = MustCreate(parity::kAccumulatorChainSource);
  std::vector<std::thread> workers;
  workers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&service, want] {
      for (size_t i = 1; i < 32; ++i) {  // skip the enumerate slot
        const Query query = AnalyticQueryAt(i % 4 == 0 ? i + 1 : i);
        auto outcome = service->Dispatch(query);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        if (query.dist_mode == DistMode::kEnumerate) {
          EXPECT_FALSE(outcome->analytic);
          EXPECT_EQ(Bits(outcome->joules), Bits(want));
          EXPECT_EQ(outcome->error_bound, 0.0);
        } else {
          EXPECT_TRUE(outcome->analytic);
          EXPECT_LE(std::abs(outcome->joules - want), outcome->error_bound);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

TEST(QueryServiceSnapshotTest, ProgramSwapRekeysAnalyticCache) {
  // The sub-distribution cache lives in the snapshot's evaluator, which is
  // rebuilt on UpdateProgram — so a new generation can never be answered
  // from the old program's cached analytic results.
  auto service = MustCreate(R"(
interface f() {
  let mut acc = 0J;
  ecv hit ~ bernoulli(0.5);
  if (hit) { acc = acc + 2mJ; }
  return acc;
}
)");
  Query query;
  query.interface = "f";
  query.dist_mode = DistMode::kAnalyticBounded;
  auto v1 = service->Dispatch(query);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_DOUBLE_EQ(v1->joules, 0.001);
  EXPECT_TRUE(v1->analytic);

  ASSERT_TRUE(service
                  ->UpdateProgram(MustParse(R"(
interface f() {
  let mut acc = 0J;
  ecv hit ~ bernoulli(0.5);
  if (hit) { acc = acc + 4mJ; }
  return acc;
}
)"))
                  .ok());
  auto v2 = service->Dispatch(query);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_DOUBLE_EQ(v2->joules, 0.002);
}

// --- The thread-local fold front ---------------------------------------------

// The front's counters, read as deltas: the registry is process-wide.
struct FrontCounts {
  uint64_t cache_hits;
  uint64_t tl_hits;
  uint64_t tl_misses;

  static FrontCounts Now() {
    MetricsRegistry& m = MetricsRegistry::Global();
    return {m.GetCounter("eclarity_svc_cache_hits_total").value(),
            m.GetCounter("eclarity_svc_tl_fold_hits_total").value(),
            m.GetCounter("eclarity_svc_tl_fold_misses_total").value()};
  }
};

Query Fig1ExpectedQuery(double image_size) {
  Query query;
  query.interface = "E_ml_webservice_handle";
  query.args = {Value::Number(image_size), Value::Number(10000.0)};
  return query;
}

TEST(QueryServiceFrontTest, RepeatedSingleQueryIsAFrontHit) {
  auto service = MustCreate(kFig1Source);
  const Query query = Fig1ExpectedQuery(50176.0);
  const FrontCounts before = FrontCounts::Now();
  auto first = service->Dispatch(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const FrontCounts after_first = FrontCounts::Now();
  EXPECT_EQ(after_first.tl_misses - before.tl_misses, 1u);
  EXPECT_EQ(after_first.tl_hits - before.tl_hits, 0u);
  EXPECT_EQ(service->TotalCacheStats().lookups(), 1u);

  auto repeat = service->Dispatch(query);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(repeat->Fingerprint(), first->Fingerprint());
  const FrontCounts after_repeat = FrontCounts::Now();
  EXPECT_EQ(after_repeat.cache_hits - after_first.cache_hits, 1u);
  EXPECT_EQ(after_repeat.tl_hits - after_first.tl_hits, 1u);
  EXPECT_EQ(after_repeat.tl_misses - after_first.tl_misses, 0u);
  // The front answered the repeat: one miss, then one hit.
  EXPECT_EQ(service->TotalCacheStats().hits, 1u);
  EXPECT_EQ(service->TotalCacheStats().misses, 1u);
}

TEST(QueryServiceFrontTest, BatchAndSingleDispatchShareTheFront) {
  auto service = MustCreate(kFig1Source);
  // A batch fills the front; single dispatch of the same item then hits.
  const Query batched = Fig1ExpectedQuery(50176.0);
  auto results = service->EvaluateBatch({batched});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(service->TotalCacheStats().misses, 1u);
  const FrontCounts before = FrontCounts::Now();
  auto single = service->Dispatch(batched);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->Fingerprint(), results[0]->Fingerprint());
  EXPECT_EQ(FrontCounts::Now().tl_hits - before.tl_hits, 1u);
  EXPECT_EQ(service->TotalCacheStats().hits, 1u);
  EXPECT_EQ(service->TotalCacheStats().misses, 1u);

  // And the reverse: single dispatch fills the front, and a batch item
  // repeating it is a front hit, not a lane.
  const Query dispatched = Fig1ExpectedQuery(40960.0);
  auto first = service->Dispatch(dispatched);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(service->TotalCacheStats().misses, 2u);
  auto again = service->EvaluateBatch({dispatched, batched});
  ASSERT_EQ(again.size(), 2u);
  ASSERT_TRUE(again[0].ok()) << again[0].status().ToString();
  EXPECT_EQ(again[0]->Fingerprint(), first->Fingerprint());
  EXPECT_EQ(service->TotalCacheStats().hits, 3u);
  EXPECT_EQ(service->TotalCacheStats().misses, 2u);
}

TEST(QueryServiceFrontTest, SignedZerosAreSeparateEntriesOnBothPaths) {
  // Front entries compare argument bits, so +0.0 and -0.0 must not share
  // one. The distribution's atom keeps the argument's sign, so
  // a conflated entry would also answer with the wrong bits.
  constexpr char kSource[] = R"(
interface f(x) {
  return 1mJ * x;
}
)";
  auto query_at = [](double x) {
    Query query;
    query.interface = "f";
    query.args = {Value::Number(x)};
    query.kind = QueryKind::kDistribution;
    return query;
  };
  const Query pos = query_at(0.0);
  const Query neg = query_at(-0.0);
  auto atom_bits = [](const Result<QueryOutcome>& outcome) {
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok() || !outcome->distribution.has_value() ||
        outcome->distribution->atoms().size() != 1) {
      ADD_FAILURE() << "expected a one-atom distribution";
      return uint64_t{0};
    }
    return Bits(outcome->distribution->atoms()[0].value);
  };

  auto single = MustCreate(kSource);
  EXPECT_EQ(atom_bits(single->Dispatch(pos)), Bits(0.0));
  EXPECT_EQ(atom_bits(single->Dispatch(neg)), Bits(-0.0));
  EXPECT_EQ(single->TotalCacheStats().misses, 2u);
  const FrontCounts before = FrontCounts::Now();
  EXPECT_EQ(atom_bits(single->Dispatch(pos)), Bits(0.0));
  EXPECT_EQ(atom_bits(single->Dispatch(neg)), Bits(-0.0));
  EXPECT_EQ(FrontCounts::Now().tl_hits - before.tl_hits, 2u);
  EXPECT_EQ(single->TotalCacheStats().hits, 2u);
  EXPECT_EQ(single->TotalCacheStats().misses, 2u);

  auto batch = MustCreate(kSource);
  auto first = batch->EvaluateBatch({pos, neg});
  EXPECT_EQ(atom_bits(first[0]), Bits(0.0));
  EXPECT_EQ(atom_bits(first[1]), Bits(-0.0));
  EXPECT_EQ(batch->TotalCacheStats().misses, 2u);
  auto second = batch->EvaluateBatch({neg, pos});
  EXPECT_EQ(atom_bits(second[0]), Bits(-0.0));
  EXPECT_EQ(atom_bits(second[1]), Bits(0.0));
  EXPECT_EQ(batch->TotalCacheStats().hits, 2u);
  EXPECT_EQ(batch->TotalCacheStats().misses, 2u);
}

// BM_ServiceThroughput's working set: 64 Fig. 1 keys with image = 1024 +
// 64k and n_zeros = image / 4.
Query ThroughputKey(size_t k) {
  const double image = 1024.0 + static_cast<double>(k) * 64.0;
  Query query;
  query.interface = "E_ml_webservice_handle";
  query.args = {Value::Number(image), Value::Number(image / 4.0)};
  return query;
}

TEST(QueryServiceFrontTest, SixtyFourKeysStayResident) {
  // 64 keys in a 512-entry front must not evict one another: a
  // direct-mapped front of the same size lost 10 of these 64 to slot
  // collisions, so their repeats missed.
  auto service = MustCreate(kFig1Source);
  for (size_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(service->Expected(ThroughputKey(k)).ok());
  }
  const QueryService::CacheStats first = service->TotalCacheStats();
  const FrontCounts before = FrontCounts::Now();
  for (size_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(service->Expected(ThroughputKey(k)).ok());
  }
  const FrontCounts after = FrontCounts::Now();
  EXPECT_EQ(after.tl_hits - before.tl_hits, 64u);
  EXPECT_EQ(after.tl_misses - before.tl_misses, 0u);
  const QueryService::CacheStats second = service->TotalCacheStats();
  EXPECT_EQ(second.hits - first.hits, 64u);
  EXPECT_EQ(second.misses - first.misses, 0u);
}

TEST(QueryServiceFrontTest, TotalCacheStatsCountsSingleAndBatchedProbes) {
  // Each base-profile exact query probes the front once, single or
  // batched; a what-if, a Monte Carlo query and a certified query probe
  // nothing.
  auto service = MustCreate(kFig1Source);
  const Query base = Fig1ExpectedQuery(50176.0);
  Query what_if = base;
  what_if.profile.SetBernoulli("request_hit", 0.9);
  const Query mc = MixedQueryAt(0);
  ASSERT_EQ(mc.kind, QueryKind::kMonteCarlo);
  Query bounded = base;
  bounded.dist_mode = DistMode::kAnalyticBounded;
  const FrontCounts before = FrontCounts::Now();
  for (const Query& query : {base, base, what_if, mc, bounded}) {
    auto outcome = service->Dispatch(query);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  QueryService::CacheStats stats = service->TotalCacheStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // A batch: the fronted base item hits, both copies of a new item miss
  // (identical items are separate lanes), and the rest probe nothing.
  Query fresh = Fig1ExpectedQuery(40960.0);
  fresh.kind = QueryKind::kDistribution;
  for (const auto& result :
       service->EvaluateBatch({base, fresh, what_if, fresh, mc, bounded})) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  stats = service->TotalCacheStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 3u);
  // The batch fronted its new item for the next call.
  for (const auto& result : service->EvaluateBatch({fresh, fresh})) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  stats = service->TotalCacheStats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 0u);

  // The process-wide counters saw the same probes; the tl_fold pair counts
  // single dispatch only.
  const FrontCounts after = FrontCounts::Now();
  EXPECT_EQ(after.cache_hits - before.cache_hits, 4u);
  EXPECT_EQ(after.tl_hits - before.tl_hits, 1u);
  EXPECT_EQ(after.tl_misses - before.tl_misses, 1u);
}

TEST(QueryServiceFrontTest, EvictionsCountOnlyEntriesOfTheSameSnapshot) {
  // 2048 distinct keys fill every set of the 512-entry front with this
  // service's entries, and every fill past a set's fourth displaces one of
  // them: an eviction.
  constexpr size_t kKeys = 2048;
  auto service = MustCreate(kFig1Source);
  for (size_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(service->Expected(ThroughputKey(k)).ok());
  }
  const uint64_t evictions = service->TotalCacheStats().evictions;
  EXPECT_EQ(evictions, kKeys - 512);

  // Another service's fills displace those entries: an eviction for
  // neither service.
  auto other = MustCreate(kFig1Source);
  for (size_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(other->Expected(ThroughputKey(k)).ok());
  }
  EXPECT_EQ(other->TotalCacheStats().evictions, 0u);
  EXPECT_EQ(service->TotalCacheStats().evictions, evictions);

  // After a profile swap the old snapshot's entries are stale: refilling
  // over them evicts nothing.
  EcvProfile hot;
  hot.SetBernoulli("request_hit", 0.9);
  service->UpdateProfile(hot);
  for (size_t k = 64; k < 128; ++k) {
    ASSERT_TRUE(service->Expected(ThroughputKey(k)).ok());
  }
  EXPECT_EQ(service->TotalCacheStats().evictions, evictions);
  EXPECT_EQ(service->TotalCacheStats().misses, kKeys + 64);
}

TEST(QueryServiceConcurrencyTest, WhatIfIsNeverCached) {
  // The caching rule: the front holds answers under the snapshot's own
  // profile only. A what-if (a query carrying ECV overrides) is evaluated
  // on every call, single or batched, leaves the front and its counters as
  // they were, and answers with the engine's bits under the merged profile.
  EcvProfile base;
  base.SetBernoulli("local_cache_hit", 0.6);
  auto service = MustCreate(kFig1Source, {}, base);
  EcvProfile hot;
  hot.SetBernoulli("request_hit", 0.9);
  EcvProfile cold;
  cold.SetBernoulli("request_hit", 0.1);
  const Program program = MustParse(kFig1Source);
  const Evaluator evaluator(program);
  auto expect_engine_bits = [&](const Query& query, double joules,
                                const Distribution* distribution) {
    EcvProfile merged = base;
    merged.MergeFrom(query.profile);
    auto mean = evaluator.ExpectedEnergy(query.interface, query.args, merged);
    ASSERT_TRUE(mean.ok()) << mean.status().ToString();
    EXPECT_EQ(Bits(joules), Bits(mean->joules()));
    if (distribution == nullptr) {
      return;
    }
    auto want = evaluator.EvalDistribution(query.interface, query.args, merged);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(distribution->atoms().size(), want->atoms().size());
    for (size_t a = 0; a < want->atoms().size(); ++a) {
      EXPECT_EQ(Bits(distribution->atoms()[a].value),
                Bits(want->atoms()[a].value));
      EXPECT_EQ(Bits(distribution->atoms()[a].probability),
                Bits(want->atoms()[a].probability));
    }
  };

  const QueryService::CacheStats stats = service->TotalCacheStats();
  const FrontCounts before = FrontCounts::Now();
  Query single = Fig1ExpectedQuery(50176.0);
  single.profile = hot;
  for (int round = 0; round < 3; ++round) {  // repeats are computed again
    auto expected = service->Expected(single);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    expect_engine_bits(single, expected->joules(), nullptr);
    auto distribution = service->EvalDistribution(single);
    ASSERT_TRUE(distribution.ok()) << distribution.status().ToString();
    expect_engine_bits(single, distribution->Mean(), &*distribution);
  }

  std::vector<Query> batch;
  for (size_t i = 0; i < 64; ++i) {
    Query query = Fig1ExpectedQuery(40960.0 + static_cast<double>(i % 8) * 64);
    query.profile = i % 3 == 0 ? cold : hot;
    query.kind =
        i % 4 == 0 ? QueryKind::kDistribution : QueryKind::kExpected;
    batch.push_back(std::move(query));
  }
  for (int round = 0; round < 2; ++round) {
    const auto results = service->EvaluateBatch(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      expect_engine_bits(batch[i], results[i]->joules,
                         results[i]->distribution.has_value()
                             ? &*results[i]->distribution
                             : nullptr);
      EXPECT_EQ(results[i]->distribution.has_value(),
                batch[i].kind == QueryKind::kDistribution);
    }
  }

  const QueryService::CacheStats after = service->TotalCacheStats();
  EXPECT_EQ(after.hits, stats.hits);
  EXPECT_EQ(after.misses, stats.misses);
  EXPECT_EQ(after.evictions, stats.evictions);
  const FrontCounts now = FrontCounts::Now();
  EXPECT_EQ(now.cache_hits, before.cache_hits);
  EXPECT_EQ(now.tl_hits, before.tl_hits);
  EXPECT_EQ(now.tl_misses, before.tl_misses);
}

}  // namespace
}  // namespace eclarity
