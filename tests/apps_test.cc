// Tests for the application substrates: the LRU request-cache view, the
// Fig. 1 web service
// (system + interface agreement), and the fuzzing campaign model.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/apps/fuzzing.h"
#include "src/apps/webservice.h"
#include "src/hw/vendor.h"
#include "src/iface/energy_interface.h"
#include "src/util/lru.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace eclarity {
namespace {

// --- LruSet (src/util/lru.h) ------------------------------------------------

TEST(LruSetTest, BasicHitMiss) {
  LruSet<uint64_t> cache(2);
  EXPECT_FALSE(cache.Get(1));
  cache.Put(1);
  EXPECT_TRUE(cache.Get(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(LruSetTest, EvictsLeastRecentlyUsed) {
  LruSet<uint64_t> cache(2);
  cache.Put(1);
  cache.Put(2);
  EXPECT_TRUE(cache.Get(1));  // 1 is now most recent
  cache.Put(3);               // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruSetTest, PutRefreshesExisting) {
  LruSet<uint64_t> cache(2);
  cache.Put(1);
  cache.Put(2);
  cache.Put(1);  // refresh, no eviction
  cache.Put(3);  // evicts 2, not 1
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(LruSetTest, ZeroCapacityNeverStores) {
  LruSet<uint64_t> cache(0);
  cache.Put(1);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.size(), 0u);
}

// A reference LRU set for the agreement test: keys in recency order, most
// recent first, searched linearly.
struct LruModel {
  explicit LruModel(size_t capacity) : capacity(capacity) {}

  bool Get(uint64_t key) {
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      ++misses;
      return false;
    }
    ++hits;
    keys.erase(it);
    keys.insert(keys.begin(), key);
    return true;
  }
  void Put(uint64_t key) {
    if (capacity == 0) {
      return;
    }
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it != keys.end()) {
      keys.erase(it);
    }
    keys.insert(keys.begin(), key);
    if (keys.size() > capacity) {
      keys.pop_back();
      ++evictions;
    }
  }
  bool Contains(uint64_t key) const {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  }

  size_t capacity;
  std::vector<uint64_t> keys;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

// Drives the set and the reference model with the same mixed operation
// sequence and requires identical observable behavior — hits, residency,
// sizes, and statistics.
TEST(LruSetTest, AgreesWithReferenceModel) {
  LruSet<uint64_t> set(3);
  LruModel model(3);
  Rng rng(0xec1a517ull);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = rng.NextUint64() % 8;
    switch (rng.NextUint64() % 3) {
      case 0: {
        EXPECT_EQ(set.Get(key), model.Get(key));
        break;
      }
      case 1:
        set.Put(key);
        model.Put(key);
        break;
      default:
        EXPECT_EQ(set.Contains(key), model.Contains(key));
        break;
    }
  }
  EXPECT_EQ(set.size(), model.keys.size());
  EXPECT_EQ(set.hits(), model.hits);
  EXPECT_EQ(set.misses(), model.misses);
  EXPECT_EQ(set.evictions(), model.evictions);
  ASSERT_GT(model.hits + model.misses, 0u);
  EXPECT_DOUBLE_EQ(set.HitRate(), static_cast<double>(model.hits) /
                                      (model.hits + model.misses));
  for (uint64_t key = 0; key < 8; ++key) {
    EXPECT_EQ(set.Contains(key), model.Contains(key)) << key;
  }
}

// --- WebService ----------------------------------------------------------------

TEST(WebServiceTest, ServesAndCounts) {
  WebServiceConfig config;
  config.corpus_images = 2000;
  WebService service(config, 42);
  auto result = service.Run(3000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->counters.requests, 3000u);
  EXPECT_EQ(result->counters.local_hits + result->counters.remote_hits +
                result->counters.cnn_misses,
            3000u);
  // A Zipf stream over 2k images with a 500-entry local cache hits often.
  EXPECT_GT(result->counters.RequestHitRate(), 0.3);
  EXPECT_GT(result->measured_energy.joules(), 0.0);
  EXPECT_EQ(result->per_request_joules.size(), 3000u);
  // Energy decomposes into the four shares.
  const double parts = result->node_energy.joules() +
                       result->remote_energy.joules() +
                       result->nic_energy.joules() +
                       result->gpu_energy.joules();
  EXPECT_NEAR(parts, result->measured_energy.joules(),
              1e-9 * parts + 1e-12);
}

TEST(WebServiceTest, ZeroFractionDeterministicAndBounded) {
  WebServiceConfig config;
  WebService service(config, 1);
  for (uint64_t id = 0; id < 100; ++id) {
    const double z = service.ZeroFraction(id);
    EXPECT_GE(z, config.zero_fraction_lo);
    EXPECT_LE(z, config.zero_fraction_hi);
    EXPECT_DOUBLE_EQ(z, service.ZeroFraction(id));
  }
}

TEST(WebServiceTest, LargerCacheRaisesHitRate) {
  WebServiceConfig small;
  small.local_cache_entries = 50;
  WebServiceConfig large = small;
  large.local_cache_entries = 3000;
  WebService service_small(small, 9);
  WebService service_large(large, 9);
  auto a = service_small.Run(5000);
  auto b = service_large.Run(5000);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b->counters.local_hits, a->counters.local_hits);
  // More local hits -> less energy per request.
  EXPECT_LT(b->measured_energy.joules(), a->measured_energy.joules());
}

// The Fig. 1 interface, instantiated with the observed hit rates, predicts
// the measured mean per-request energy.
TEST(WebServiceTest, InterfacePredictsMeasuredMean) {
  WebServiceConfig config;
  WebService service(config, 77);
  auto run = service.Run(8000);
  ASSERT_TRUE(run.ok());

  auto program = WebServiceEnergyInterface(config, ServerCpuProfile(1),
                                           CnnModel(CnnConfig::Fig1()));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto open_iface = EnergyInterface::FromProgram(
      std::move(*program), "E_ml_webservice_handle",
      {"E_gpu_kernel", "E_gpu_idle"});
  ASSERT_TRUE(open_iface.ok()) << open_iface.status().ToString();
  auto hw = GpuVendorInterface(Rtx4090LikeProfile());
  ASSERT_TRUE(hw.ok());
  auto iface = open_iface->Link(*hw);
  ASSERT_TRUE(iface.ok());

  // The cache manager's knowledge: observed hit rates as the ECV profile.
  EcvProfile profile;
  profile.SetBernoulli("request_hit", run->counters.RequestHitRate());
  profile.SetBernoulli("local_cache_hit", run->counters.LocalHitRate());

  const double mean_zeros =
      config.image_elements *
      (config.zero_fraction_lo + config.zero_fraction_hi) / 2.0;
  auto predicted = iface->Expected(
      {Value::Number(config.image_elements), Value::Number(mean_zeros)},
      profile);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();

  const double measured_mean = Mean(run->per_request_joules);
  EXPECT_NEAR(predicted->joules() / measured_mean, 1.0, 0.10)
      << "predicted " << predicted->joules() << " measured " << measured_mean;
}

// --- Fuzzing campaign -------------------------------------------------------------

TEST(CampaignTest, CoverageSaturates) {
  FuzzCampaignConfig config;
  Rng rng(3);
  const CampaignResult r = RunCampaign(config, 16, 0.99, rng);
  EXPECT_TRUE(r.met_target);
  EXPECT_GT(r.coverage_reached, 0.99);
  EXPECT_LE(r.coverage_reached, 1.0);
}

TEST(CampaignTest, TooFewMachinesMissDeadline) {
  FuzzCampaignConfig config;
  config.deadline = Duration::Hours(1.0);
  Rng rng(3);
  const CampaignResult r = RunCampaign(config, 1, 0.99, rng);
  EXPECT_FALSE(r.met_target);
  EXPECT_NEAR(r.duration.seconds(), config.deadline.seconds(),
              Duration::Minutes(10.0).seconds() + 1.0);
}

TEST(CampaignTest, InterfaceMatchesSimulatedCampaign) {
  FuzzCampaignConfig config;
  auto program = CampaignEnergyInterface(config);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Evaluator evaluator(*program);
  Rng rng(13);
  for (int machines : {8, 16, 32}) {
    // Average several simulated campaigns (the sim has discovery noise).
    double total = 0.0;
    const int reps = 20;
    for (int i = 0; i < reps; ++i) {
      total += RunCampaign(config, machines, 0.95, rng).energy.joules();
    }
    const double simulated = total / reps;
    auto predicted = evaluator.ExpectedEnergy(
        "E_fuzz_campaign",
        {Value::Number(static_cast<double>(machines)), Value::Number(0.95)},
        {});
    ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
    // The sim advances in 10-minute steps, so allow coarse agreement.
    EXPECT_NEAR(predicted->joules() / simulated, 1.0, 0.15)
        << "machines=" << machines;
  }
}

}  // namespace
}  // namespace eclarity
