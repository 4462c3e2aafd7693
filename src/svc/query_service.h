// QueryService: a thread-safe, concurrent energy-query front end.
//
// The paper's resource managers consult energy interfaces continuously —
// an OS scheduler or datacenter manager issues thousands of "how much
// energy would this input cost?" queries per second, from many threads.
// This service makes that usage pattern first-class:
//
//   * Immutable snapshots, RCU-style. The checked program (with its
//     lowered and compiled form) and the base ECV profile live in a
//     std::shared_ptr<const Snapshot> that writers publish under
//     snapshot_mu_, bumping publish_seq_ after each publication. Readers
//     keep a thread-local copy of the pointer and revalidate it with one
//     atomic load of publish_seq_, taking the mutex only once per
//     publication per thread. A reader keeps evaluating against its
//     snapshot even while a writer publishes a new profile or program —
//     the old snapshot stays valid until its last reader drops it, so
//     profile updates never block queries.
//
//   * One fold cache, one caching rule. Each querying thread keeps a
//     4-way set-associative fold front (query_service.cc) holding exact
//     answers under the snapshot's own profile; a query carrying ECV
//     overrides (a what-if) is evaluated on every call and never cached. A
//     caller that keeps asking one what-if publishes it with UpdateProfile
//     and gets it cached like any base answer. Exact enumeration results
//     are folded to a canonical (distribution, mean) pair once, when the
//     front is filled, so a repeat, single or batched, answers an Expected
//     or Distribution query from one content hash and one bit-level compare:
//     no key, no lock, no shared write. Errors are never cached.
//
//   * Snapshot-time bytecode specialization. Each publication specializes
//     the bundle's bytecode program against the snapshot's base profile
//     (Evaluator::PrepareSpecialized), so steady-state queries run baked
//     ECV resolution. Specialization compiles outside every lock — readers
//     on the old snapshot fall back to the generic program and never block.
//
//   * Deterministic concurrency. Expected / Distribution queries are exact
//     folds of the enumeration and therefore bit-reproducible regardless
//     of thread interleaving. Monte Carlo and Sample queries derive their
//     RNG stream from the query's seed alone (never from shared mutable
//     state), so a concurrent run is bit-identical to a single-threaded
//     replay of the same request log.
//
//   * Monte Carlo on the caller's thread. An MC request draws its samples
//     inline, on the scalar bytecode chunk loop, so the service starts no
//     threads of its own: its callers bound MC concurrency.
//
// See DESIGN.md, "Concurrent query service".

#ifndef ECLARITY_SRC_SVC_QUERY_SERVICE_H_
#define ECLARITY_SRC_SVC_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/dist/distribution.h"
#include "src/eval/ecv_profile.h"
#include "src/eval/interp.h"
#include "src/lang/ast.h"
#include "src/obs/metrics.h"
#include "src/units/units.h"
#include "src/util/status.h"

namespace eclarity {

enum class QueryKind {
  kExpected,      // exact expectation (Joules)
  kDistribution,  // exact distribution over Joules
  kMonteCarlo,    // sampled mean on the calling thread (seeded by query)
  kSample,        // one sampled outcome (seeded by the query)
};

struct Query {
  std::string interface;    // entry interface to evaluate
  std::vector<Value> args;  // call arguments
  // Per-query ECV overrides (a what-if), merged over the snapshot's base
  // profile (query keys win). Leave empty to use the snapshot profile
  // as-is. Exact answers under overrides are computed on every call and
  // never cached; publish a recurring what-if with UpdateProfile instead.
  EcvProfile profile;
  QueryKind kind = QueryKind::kExpected;
  uint64_t seed = 0;     // RNG seed for kMonteCarlo / kSample
  size_t samples = 1024;  // sample count for kMonteCarlo
  // Distribution-evaluation mode for kExpected / kDistribution. Unset uses
  // the service-wide options.eval.dist_mode; an analytic mode routes the
  // query through the snapshot evaluator's certified engine (with its
  // memoized sub-distribution cache), kEnumerate through the service's
  // thread-local fold front.
  std::optional<DistMode> dist_mode;
};

// One query's answer. `joules` is filled for kExpected / kMonteCarlo (and
// for kDistribution, as the mean); `distribution` only for kDistribution;
// `sample` only for kSample.
struct QueryOutcome {
  QueryKind kind = QueryKind::kExpected;
  double joules = 0.0;
  std::optional<Distribution> distribution;
  std::optional<Value> sample;

  // Certified-evaluation metadata, meaningful only when `analytic` is true
  // (the query ran under an analytic dist_mode): |exact_mean - joules| <=
  // error_bound, and pruned_mass is the certified dropped probability mass.
  bool analytic = false;
  double error_bound = 0.0;
  double pruned_mass = 0.0;

  // Canonical byte encoding (bit-exact doubles); equal outcomes produce
  // equal fingerprints. The concurrency tests compare these. Certified
  // metadata is appended only when `analytic` is set, so fingerprints of
  // legacy (enumeration-mode) outcomes are unchanged.
  std::string Fingerprint() const;
};

// Namespace-scope (not nested) so `Options options = {}` default arguments
// work around GCC bug 88165; spelled QueryService::Options at use sites.
struct QueryServiceOptions {
  // Evaluation budgets / engine. eval.mc_workers is forced to 1: Monte
  // Carlo runs on the calling thread, so a request never spawns threads.
  // eval.enum_cache_capacity has no effect here, because the service folds
  // and caches exact answers itself. Setting eval.vm_profiler threads
  // the bytecode VM profiler through every snapshot evaluator, giving
  // per-interface hot-op attribution for service traffic.
  EvalOptions eval;
  // Calibration for abstract-energy returns (borrowed; may be null).
  const EnergyCalibration* calibration = nullptr;
  // Continuous observability (src/obs): every N-th query of each kind per
  // thread is timed into its kind's latency histogram and journalled as a
  // span (with cache-lookup / snapshot-pin / eval / fold phase spans on the
  // sampled query). Each kind counts down on its own gate, so a periodic
  // mix cannot starve a rare kind of samples. Unsampled queries pay one
  // thread-local countdown.
  // 0 disables sampling. The default does not keep the self-accounted
  // overhead (eclarity_obs_overhead_ratio) under the 1% telemetry budget at
  // front-hit speeds: traced perfbench hot_expected (4 clients, nearly all
  // front hits, ~1.4e7 queries/s on a 4-vCPU host) read 0.0123, because
  // one unsampled tick costs about 1% of a front hit. Traffic that
  // enumerates stays well under it (serve_fig1 0.0022, cold_manager
  // 0.0016). Diagnostic tools can lower the interval.
  uint32_t obs_sample_interval = 256;
};

class QueryService {
 public:
  using Options = QueryServiceOptions;

  // Checks nothing beyond what evaluation will check: the program must be
  // closed (callers resolve imports first, e.g. via EnergyInterface::Link).
  static Result<std::unique_ptr<QueryService>> Create(
      Program program, Options options = {}, EcvProfile base_profile = {});

  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // --- Queries (all thread-safe, any number of concurrent callers) --------

  Result<Energy> Expected(const Query& query) const;
  Result<Distribution> EvalDistribution(const Query& query) const;
  // Draws query.samples samples on the calling thread.
  Result<Energy> MonteCarlo(const Query& query) const;
  Result<Value> Sample(const Query& query) const;

  // Dispatches on query.kind; the mixed-workload entry point.
  Result<QueryOutcome> Dispatch(const Query& query) const;

  // Evaluates a batch against ONE snapshot, amortising the snapshot
  // acquisition: probe or lane. A base-profile exact item is answered by
  // the thread-local fold front; every other exact item (a front miss or a
  // what-if) is one lane of its (interface, effective profile) group's SoA
  // pass, with overrides merged once per distinct override. Identical items
  // are separate lanes. Base-profile lane answers fill the front (one way
  // per distinct item); what-if answers never do. Results are positionally
  // aligned with `batch` and bit-identical to dispatching each query alone.
  std::vector<Result<QueryOutcome>> EvaluateBatch(
      const std::vector<Query>& batch) const;

  // --- Snapshot publication (writers; never blocks readers) ---------------

  // Swaps the base ECV profile. In-flight queries finish on the snapshot
  // they acquired; the fold front needs no flush because its entries are
  // stamped with the snapshot they were filled under, so none of them
  // answers the new one (even a swap back to an equal profile refolds).
  void UpdateProfile(EcvProfile profile);

  // Swaps the whole program, re-lowered under a fresh generation. Like a
  // profile swap it publishes a new snapshot, so no fold of the old program
  // can answer for the new one.
  Status UpdateProgram(Program program);

  // --- Observability -------------------------------------------------------

  // An exact query's fully folded answer, pinned by a front entry: the
  // enumeration folded (FoldOutcomes) once, when the front is filled, so
  // hits answer Expected / Distribution queries directly.
  using SharedFold = std::shared_ptr<const ExactFold>;

  // This service's fold-front probes, summed over every thread. Each
  // base-profile kEnumerate exact query, single or batched, is one hit or
  // one miss (a batch adds its counts once per call); what-ifs probe
  // nothing. An eviction is a fill that displaced an entry of this same
  // service and snapshot.
  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;

    uint64_t lookups() const { return hits + misses; }
  };
  CacheStats TotalCacheStats() const;
  uint64_t snapshot_generation() const;

  // The snapshot type is opaque to callers; tests hold one to pin the old
  // world across a swap.
  class Snapshot;
  std::shared_ptr<const Snapshot> AcquireSnapshot() const;
  // Expected energy evaluated against a pinned snapshot (bypasses the
  // current publication, still uses the calling thread's fold front).
  Result<Energy> ExpectedOn(const Snapshot& snapshot,
                            const Query& query) const;

 private:
  QueryService(std::shared_ptr<const Snapshot> initial, Options options);

  // The calling thread's cached snapshot slot (revalidated against
  // publish_seq_). The returned reference is pinned by the thread-local
  // shared_ptr until this thread's next acquisition on any service.
  const std::shared_ptr<const Snapshot>& SnapshotSlot() const;
  // Borrowed snapshot for the synchronous query paths: no refcount traffic.
  // Valid until the calling thread's next acquisition — callers consume it
  // within the query and never stash it.
  const Snapshot& AcquireSnapshotRef() const { return *SnapshotSlot(); }

  // Front-or-(enumerate+fold) against `snapshot`. A base-profile query
  // probes the thread-local fold front (see query_service.cc) and a miss
  // fills it; a what-if skips it and is enumerated and folded on every
  // call. The returned pointer is pinned by a thread-local slot until the
  // calling thread's next query; callers consume it immediately.
  Result<const ExactFold*> FoldCached(const Snapshot& snapshot,
                                      const Query& query) const;
  // The profile `query` evaluates under: the snapshot's own, or `merged`
  // filled with a copy that has the query's overrides merged in.
  static const EcvProfile& EffectiveProfile(const Snapshot& snapshot,
                                            const Query& query,
                                            EcvProfile& merged);
  // The query's dist_mode, falling back to the service-wide default.
  DistMode EffectiveMode(const Query& query) const;
  // Certified evaluation against `snapshot` under an analytic mode, through
  // the snapshot evaluator's memoized sub-distribution cache.
  Result<CertifiedDistribution> CertifiedOn(const Snapshot& snapshot,
                                            const Query& query,
                                            DistMode mode) const;
  Result<QueryOutcome> DispatchOn(const Snapshot& snapshot,
                                  const Query& query) const;
  Result<Energy> MonteCarloOn(const Snapshot& snapshot,
                              const Query& query) const;
  Result<Value> SampleOn(const Snapshot& snapshot, const Query& query) const;

  Options options_;
  // Distinguishes this service in thread-local caches; allocated from a
  // process-wide counter and never reused, so a service constructed at a
  // freed service's address cannot alias its stale thread-local state.
  const uint64_t svc_id_;
  // Published snapshot, guarded by snapshot_mu_. A plain mutex instead of
  // std::atomic<std::shared_ptr>: libstdc++'s lock-based _Sp_atomic unlocks
  // the reader side with memory_order_relaxed, so a reader's pointer read
  // and a writer's subsequent store have no happens-before edge — a data
  // race under the C++ memory model (ThreadSanitizer reports it). Readers
  // only take the mutex once per publication per thread: the hot path is
  // the publish_seq_-validated thread-local slot below.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;
  // Bumped after every snapshot publication. AcquireSnapshot's per-thread
  // cache revalidates against this with one relaxed-cost atomic load,
  // skipping the mutex entirely while no swap happened.
  std::atomic<uint64_t> publish_seq_;
  std::atomic<uint64_t> next_generation_;
  // TotalCacheStats' counts: per-thread cells, so a front hit writes
  // nothing another thread reads on its own hit path.
  mutable Counter front_hits_;
  mutable Counter front_misses_;
  mutable Counter front_evictions_;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_SVC_QUERY_SERVICE_H_
