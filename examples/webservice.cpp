// The Fig. 1 web service end to end: run the system, read the interface,
// and answer a "what if" question — how much energy would a bigger cache
// save? — without redeploying anything.
//
// The queries go through the concurrent QueryService (src/svc): the linked
// interface becomes an immutable snapshot whose base profile is the cache
// manager's observed hit rates, and the what-if is a per-query profile
// override — the shape a production resource manager would use, where many
// threads ask while the observed rates keep being republished.
//
// Pass --metrics to dump the toolkit metrics registry (Prometheus text) and
// the prediction-accuracy audit trail after the run.

#include <cstdio>
#include <cstring>

#include "src/apps/webservice.h"
#include "src/hw/vendor.h"
#include "src/iface/energy_interface.h"
#include "src/obs/accuracy.h"
#include "src/obs/metrics.h"
#include "src/svc/query_service.h"
#include "src/util/stats.h"

using namespace eclarity;

int main(int argc, char** argv) {
  bool want_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      want_metrics = true;
    }
  }
  WebServiceConfig config;
  WebService service(config, /*seed=*/2026);

  // Serve real traffic and measure.
  auto run = service.Run(10000);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf("served %llu requests: %.1f%% cache hits (%.1f%% of hits local)\n",
              static_cast<unsigned long long>(run->counters.requests),
              100.0 * run->counters.RequestHitRate(),
              100.0 * run->counters.LocalHitRate());
  std::printf("measured energy/request: %.3f mJ  (node %.0f uJ, nic %.0f uJ, "
              "gpu %.3f mJ avg shares)\n",
              1e3 * Mean(run->per_request_joules),
              1e6 * run->node_energy.joules() / run->counters.requests,
              1e6 * run->nic_energy.joules() / run->counters.requests,
              1e3 * run->gpu_energy.joules() / run->counters.requests);

  // Build the service's energy interface and instantiate its ECVs with the
  // cache manager's observed hit rates.
  auto program = WebServiceEnergyInterface(config, ServerCpuProfile(1),
                                           CnnModel(CnnConfig::Fig1()));
  auto hw = GpuVendorInterface(Rtx4090LikeProfile());
  auto open_iface = EnergyInterface::FromProgram(
      std::move(*program), "E_ml_webservice_handle",
      {"E_gpu_kernel", "E_gpu_idle"});
  auto iface = open_iface->Link(*hw);
  if (!iface.ok()) {
    std::fprintf(stderr, "%s\n", iface.status().ToString().c_str());
    return 1;
  }

  EcvProfile observed;
  observed.SetBernoulli("request_hit", run->counters.RequestHitRate());
  observed.SetBernoulli("local_cache_hit", run->counters.LocalHitRate());

  // Publish the linked interface + observed hit rates as a query-service
  // snapshot. Later rate updates would go through UpdateProfile() without
  // blocking in-flight queries.
  auto svc = QueryService::Create(iface->program().Clone(), {}, observed);
  if (!svc.ok()) {
    std::fprintf(stderr, "%s\n", svc.status().ToString().c_str());
    return 1;
  }

  const double mean_zeros = config.image_elements *
                            (config.zero_fraction_lo + config.zero_fraction_hi) /
                            2.0;
  Query query;
  query.interface = "E_ml_webservice_handle";
  query.args = {Value::Number(config.image_elements),
                Value::Number(mean_zeros)};
  auto predicted = (*svc)->Expected(query);
  std::printf("interface predicts:      %.3f mJ/request\n",
              1e3 * predicted->joules());
  // Feed the audit trail: the interface's a-priori prediction against the
  // simulated measurement (paper Table 1, run continuously).
  AccuracyMonitor::Global().Record("webservice", predicted->joules(),
                                   Mean(run->per_request_joules));

  // The "what if": push the request-cache hit rate to 90% (bigger cache /
  // better admission) — evaluated from the interface alone, no deployment.
  // A per-query profile override, merged over the published snapshot.
  Query what_if = query;
  what_if.profile.SetBernoulli("request_hit", 0.90);
  auto improved = (*svc)->Expected(what_if);
  std::printf(
      "\nWhat if the request hit rate were 90%%?  %.3f mJ/request "
      "(-%.0f%%)\n",
      1e3 * improved->joules(),
      100.0 * (1.0 - improved->joules() / predicted->joules()));
  std::printf(
      "-> \"increasing local cache hits may be a more productive way of\n"
      "   reducing energy footprint than optimizing the ML model itself\"\n");

  // And the interface is right there to read:
  std::printf("\n--- E_ml_webservice_handle (excerpt) ---\n");
  const std::string source = iface->ToSource();
  std::printf("%s\n", source.substr(0, source.find("interface E_cnn_forward"))
                          .c_str());

  if (want_metrics) {
    const QueryService::CacheStats stats = (*svc)->TotalCacheStats();
    std::printf(
        "\n--- query-service fold front ---\n"
        "lookups %llu  hits %llu  misses %llu  evictions %llu\n",
        static_cast<unsigned long long>(stats.lookups()),
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.evictions));
    AccuracyMonitor::Global().ExportTo(MetricsRegistry::Global());
    std::printf("\n--- metrics (Prometheus text) ---\n%s",
                MetricsRegistry::Global().ToPrometheusText().c_str());
    std::printf("\n--- prediction accuracy ---\n%s",
                AccuracyMonitor::Global().Report().c_str());
  }
  return 0;
}
