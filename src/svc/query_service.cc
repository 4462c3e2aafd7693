#include "src/svc/query_service.h"

#include <bit>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/eval/batch.h"
#include "src/obs/budget.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"

namespace eclarity {
namespace {

// Service instrumentation: resolved once, relaxed increments afterwards.
#define ECLARITY_SVC_COUNTERS(X)                                     \
  X(queries, "eclarity_svc_queries_total",                           \
    "queries dispatched through QueryService")                       \
  X(batches, "eclarity_svc_batches_total", "EvaluateBatch calls")    \
  X(batch_queries, "eclarity_svc_batch_queries_total",               \
    "queries submitted via EvaluateBatch")                           \
  X(cache_hits, "eclarity_svc_cache_hits_total",                     \
    "base-profile exact queries answered by the thread-local fold "  \
    "front (single and batched)")                                    \
  X(cache_misses, "eclarity_svc_cache_misses_total",                 \
    "base-profile exact queries that missed the thread-local fold "  \
    "front (single and batched)")                                    \
  X(cache_evictions, "eclarity_svc_cache_evictions_total",           \
    "fold-front fills that displaced an entry of the same service "  \
    "and snapshot")                                                  \
  X(tl_fold_hits, "eclarity_svc_tl_fold_hits_total",                 \
    "base-profile single queries answered by the thread-local fold " \
    "front")                                                         \
  X(tl_fold_misses, "eclarity_svc_tl_fold_misses_total",             \
    "base-profile single queries that missed the thread-local fold " \
    "front")                                                         \
  X(snapshot_swaps, "eclarity_svc_snapshot_swaps_total",             \
    "profile/program snapshots published")                           \
  X(mc_requests, "eclarity_svc_mc_requests_total",                   \
    "Monte Carlo requests (sampled on the calling thread)")          \
  X(profile_fingerprints, "eclarity_svc_profile_fingerprints_total", \
    "effective-profile merges for override-carrying exact queries")

struct SvcCounters {
  ECLARITY_SVC_COUNTERS(ECLARITY_COUNTER_MEMBER)

  static SvcCounters& Get() {
    static SvcCounters* counters =
        new SvcCounters{ECLARITY_SVC_COUNTERS(ECLARITY_COUNTER_LOOKUP)};
    return *counters;
  }
};

// Per-kind sampled query latency: one (kind, metric name, help) row per
// QueryKind, resolved once like SvcCounters.
struct SvcLatencyRow {
  QueryKind kind;
  const char* name;
  const char* help;
};
constexpr SvcLatencyRow kSvcLatencyRows[] = {
    {QueryKind::kExpected, "eclarity_svc_latency_ns_expected",
     "sampled Expected query latency (ns)"},
    {QueryKind::kDistribution, "eclarity_svc_latency_ns_distribution",
     "sampled Distribution query latency (ns)"},
    {QueryKind::kMonteCarlo, "eclarity_svc_latency_ns_montecarlo",
     "sampled Monte Carlo query latency (ns)"},
    {QueryKind::kSample, "eclarity_svc_latency_ns_sample",
     "sampled Sample query latency (ns)"},
};
static_assert(std::size(kSvcLatencyRows) ==
                  static_cast<size_t>(QueryKind::kSample) + 1,
              "one latency row per QueryKind");

struct SvcLatency {
  LatencyHistogram* by_kind[std::size(kSvcLatencyRows)] = {};

  LatencyHistogram& For(QueryKind kind) {
    return *by_kind[static_cast<size_t>(kind)];
  }

  static SvcLatency& Get() {
    static SvcLatency* latency = [] {
      auto* table = new SvcLatency;
      for (const SvcLatencyRow& row : kSvcLatencyRows) {
        table->by_kind[static_cast<size_t>(row.kind)] =
            &MetricsRegistry::Global().GetLatencyHistogram(row.name,
                                                           row.help);
      }
      return table;
    }();
    return *latency;
  }
};

// Estimated telemetry nanoseconds spent *inside* the current sampled query
// (phase spans and journal records). The QueryTimer subtracts this from the
// sampled duration before crediting work and charges it as observability
// instead, so phase instrumentation cannot launder itself into the work
// side of the overhead ratio.
thread_local double tl_phase_obs_ns = 0.0;

// Batch-scope work accounting. Inside EvaluateBatch the per-item spans only
// cover pass-1 probes — the shared group passes and per-batch setup run
// outside them — so per-item timers must not credit work (the batch-level
// timer owns the whole wall time) and instead accumulate their
// instrumentation cost here for the batch timer to subtract.
thread_local bool tl_batch_active = false;
thread_local double tl_batch_obs_ns = 0.0;

// Records an instantaneous sampled event (the journal stamps the clock).
void JournalInstant(JournalEventKind kind, uint64_t a) {
  Journal::Global().Record(kind, a);
  tl_phase_obs_ns += 2.0 * ObsBudget::Global().clock_read_ns();
}

// Closes a sampled phase span opened at `t0` (costs two clock reads plus
// the record itself, estimated at one more clock-read-equivalent).
void JournalPhase(JournalEventKind kind, uint64_t a, uint64_t t0) {
  Journal::Global().Record(kind, a, 0, t0, ObsNowNs() - t0);
  tl_phase_obs_ns += 3.0 * ObsBudget::Global().clock_read_ns();
}

static_assert(static_cast<size_t>(QueryKind::kSample) < ObsSampler::kGates,
              "each QueryKind needs its own sampling gate");

// One query's observability scope. Construction decides (via its kind's
// per-thread 1-in-N gate) whether this query is sampled; an unsampled query
// pays exactly one thread-local countdown and branch. A sampled query is
// timed into its kind's latency histogram, journalled as a kQuery span, and
// settled against the ObsBudget: the measured duration (minus the phase
// instrumentation recorded inside it) is credited as work scaled by the
// sampling interval, and every instrumentation cost — the timer's own clock
// reads, the phase estimates, and the interval's worth of unsampled ticks —
// is charged as observability.
class QueryTimer {
 public:
  // `credit_work=false` is the EvaluateBatch per-item mode: the span still
  // samples, journals, and feeds the latency histogram, but work crediting
  // belongs to the enclosing BatchWorkTimer (per-item spans cover only the
  // pass-1 probe, not the shared group passes).
  QueryTimer(uint32_t interval, QueryKind kind, bool credit_work = true)
      : kind_(kind), credit_work_(credit_work) {
    if (ObsSampler::Tick(interval, static_cast<size_t>(kind))) {
      interval_ = interval;
      tl_phase_obs_ns = 0.0;
      start_ns_ = ObsNowNs();
    }
  }

  ~QueryTimer() {
    if (interval_ == 0) {
      return;
    }
    const uint64_t end = ObsNowNs();
    const uint64_t dur = end - start_ns_;
    SvcLatency::Get().For(kind_).Record(dur);
    Journal::Global().Record(JournalEventKind::kQuery,
                             static_cast<uint64_t>(kind_), 0, start_ns_, dur);
    ObsSampler::EndSample();
    ObsBudget& budget = ObsBudget::Global();
    const double phase_obs =
        tl_phase_obs_ns < static_cast<double>(dur) ? tl_phase_obs_ns
                                                   : static_cast<double>(dur);
    if (credit_work_) {
      budget.AddWorkNs((static_cast<double>(dur) - phase_obs) * interval_);
    }
    // after - end prices the histogram + journal + EndSample work directly;
    // the remaining clock reads and the unsampled ticks are calibrated.
    const uint64_t after = ObsNowNs();
    const double own_obs = static_cast<double>(after - end) + phase_obs +
                           3.0 * budget.clock_read_ns();
    if (!credit_work_ && tl_batch_active) {
      // Ran inside a sampled batch: this instrumentation sits inside the
      // batch's wall time and must not be credited as batch work.
      tl_batch_obs_ns += own_obs;
    }
    budget.AddObsNs(own_obs +
                    static_cast<double>(interval_) * budget.sampler_tick_ns());
  }

  QueryTimer(const QueryTimer&) = delete;
  QueryTimer& operator=(const QueryTimer&) = delete;

 private:
  const QueryKind kind_;
  const bool credit_work_ = true;
  uint32_t interval_ = 0;  // 0: this query is not sampled
  uint64_t start_ns_ = 0;
};

// Whole-batch work scope for EvaluateBatch. Per-item spans there cover only
// the pass-1 probe (front hits are a few ns), while the per-batch setup and
// the grouped SoA passes run outside them — so crediting work per item both
// undercounts (shared passes vanish) and distorts the ratio (a front hit
// measures ~20 ns of "work" against a fixed per-sample telemetry cost). Instead: 1-in-N *batches* (own gate, so the
// per-item cadence that tests pin down is untouched) measure the whole call
// and credit (duration - inner instrumentation) x interval as work. The
// unsampled-batch cost is one countdown, priced like a sampler tick.
class BatchWorkTimer {
 public:
  BatchWorkTimer(uint32_t interval, size_t items) : items_(items) {
    static thread_local uint32_t countdown = 1;
    if (interval == 0 || --countdown != 0) {
      return;
    }
    countdown = interval;
    interval_ = interval;
    tl_batch_active = true;
    tl_batch_obs_ns = 0.0;
    start_ns_ = ObsNowNs();
  }

  ~BatchWorkTimer() {
    if (interval_ == 0) {
      return;
    }
    const uint64_t end = ObsNowNs();
    tl_batch_active = false;
    ObsBudget& budget = ObsBudget::Global();
    // Every item paid its own per-item sampler tick inside this wall time.
    double inner_obs = tl_batch_obs_ns +
                       static_cast<double>(items_) * budget.sampler_tick_ns();
    const double dur = static_cast<double>(end - start_ns_);
    if (inner_obs > dur) {
      inner_obs = dur;
    }
    budget.AddWorkNs((dur - inner_obs) * interval_);
    budget.AddObsNs(2.0 * budget.clock_read_ns() +
                    static_cast<double>(interval_) * budget.sampler_tick_ns());
  }

  BatchWorkTimer(const BatchWorkTimer&) = delete;
  BatchWorkTimer& operator=(const BatchWorkTimer&) = delete;

 private:
  const size_t items_;
  uint32_t interval_ = 0;  // 0: this batch is not sampled
  uint64_t start_ns_ = 0;
};

void AppendBits(std::string& out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  out.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

}  // namespace

std::string QueryOutcome::Fingerprint() const {
  std::string out;
  out.push_back(static_cast<char>(kind));
  AppendBits(out, joules);
  if (distribution.has_value()) {
    for (const Atom& atom : distribution->atoms()) {
      AppendBits(out, atom.value);
      AppendBits(out, atom.probability);
    }
  }
  if (sample.has_value()) {
    sample->AppendFingerprint(out);
  }
  if (analytic) {
    out.push_back('\x01');
    AppendBits(out, error_bound);
    AppendBits(out, pruned_mass);
  }
  return out;
}

// --- Snapshot ---------------------------------------------------------------

// An immutable (program, profile) world. The evaluator is constructed once
// per program publication — lowering, interface pre-binding, and slot
// tables are paid at publish time, never on the query path — and shared by
// every snapshot that merely changes the profile.
class QueryService::Snapshot {
 public:
  // Program + evaluator bundle, shared across profile updates.
  struct Bundle {
    Bundle(Program p, uint64_t gen, const EvalOptions& eval)
        : program(std::move(p)), generation(gen), evaluator(program, eval) {}
    Program program;
    uint64_t generation;
    Evaluator evaluator;
  };

  Snapshot(std::shared_ptr<const Bundle> bundle, EcvProfile profile)
      : bundle_(std::move(bundle)),
        profile_(std::move(profile)),
        unique_id_([] {
          static std::atomic<uint64_t> next{1};
          return next.fetch_add(1, std::memory_order_relaxed);
        }()) {}

  const Bundle& bundle() const { return *bundle_; }
  std::shared_ptr<const Bundle> bundle_ptr() const { return bundle_; }
  uint64_t generation() const { return bundle_->generation; }
  const EcvProfile& profile() const { return profile_; }
  // Process-unique identity of this exact snapshot object. publish_seq_
  // cannot serve as one: the writer stores the snapshot before bumping the
  // sequence, so two readers observing equal sequences may hold different
  // snapshots. Memoization keyed on this id can never mix worlds.
  uint64_t unique_id() const { return unique_id_; }

 private:
  std::shared_ptr<const Bundle> bundle_;
  EcvProfile profile_;
  const uint64_t unique_id_;
};

// --- QueryService -----------------------------------------------------------

Result<std::unique_ptr<QueryService>> QueryService::Create(
    Program program, Options options, EcvProfile base_profile) {
  const std::vector<std::string> imports = program.UnresolvedCallees();
  if (!imports.empty()) {
    std::string list;
    for (const std::string& name : imports) {
      if (!list.empty()) {
        list += ", ";
      }
      list += name;
    }
    return FailedPreconditionError(
        "QueryService needs a closed program; unresolved imports: " + list);
  }
  // Force the telemetry budget's one-time calibration now: it resets the
  // thread's sampler state, so letting it run lazily inside the first
  // sampled query would clear the in-flight sample and silently drop that
  // query's phase spans from the journal.
  ObsBudget::Global();
  auto bundle = std::make_shared<const Snapshot::Bundle>(
      std::move(program), /*gen=*/0, options.eval);
  auto snapshot =
      std::make_shared<const Snapshot>(std::move(bundle),
                                       std::move(base_profile));
  // Specialize the bytecode program against the snapshot's own profile
  // object so the evaluator's pointer fast path matches on the query path.
  snapshot->bundle().evaluator.PrepareSpecialized(snapshot->profile());
  return std::unique_ptr<QueryService>(
      new QueryService(std::move(snapshot), std::move(options)));
}

QueryService::QueryService(std::shared_ptr<const Snapshot> initial,
                           Options options)
    : options_(options),
      svc_id_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      snapshot_(std::move(initial)),
      publish_seq_(1),
      next_generation_(1) {}

QueryService::~QueryService() = default;

const std::shared_ptr<const QueryService::Snapshot>&
QueryService::SnapshotSlot() const {
  // Per-thread snapshot cache, revalidated against publish_seq_: while no
  // writer publishes, acquisition is one atomic load instead of taking
  // the snapshot mutex. A thread that stops querying keeps
  // its last snapshot pinned until it queries again or exits — standard
  // RCU-reader behaviour, bounded by the thread count.
  struct TlSnapshot {
    uint64_t svc_id = 0;
    uint64_t seq = 0;
    std::shared_ptr<const Snapshot> snapshot;
  };
  thread_local TlSnapshot tl;
  const uint64_t seq = publish_seq_.load(std::memory_order_acquire);
  if (tl.svc_id == svc_id_ && tl.seq == seq) {
    return tl.snapshot;
  }
  // The writer publishes the snapshot (under the mutex) before bumping
  // publish_seq_, so having observed `seq` guarantees this read sees at
  // least that publication — possibly a newer one, which is fine: the
  // freshness contract is monotonic, not exact.
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    tl.snapshot = snapshot_;
  }
  tl.svc_id = svc_id_;
  tl.seq = seq;
  return tl.snapshot;
}

std::shared_ptr<const QueryService::Snapshot> QueryService::AcquireSnapshot()
    const {
  return SnapshotSlot();
}

void QueryService::UpdateProfile(EcvProfile profile) {
  // Readers that already hold the old snapshot keep it alive through their
  // shared_ptr; publication only redirects *future* acquisitions.
  std::shared_ptr<const Snapshot> current;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    current = snapshot_;
  }
  auto next = std::make_shared<const Snapshot>(current->bundle_ptr(),
                                               std::move(profile));
  // Re-specialize from the already-lowered IR before publication. The
  // compile runs outside every snapshot and evaluator lock: readers on the
  // old snapshot keep the generic program (profile fingerprints no longer
  // match) and are never blocked.
  const uint64_t generation = next->generation();
  const uint64_t spec_t0 = ObsNowNs();
  next->bundle().evaluator.PrepareSpecialized(next->profile());
  Journal::Global().Record(JournalEventKind::kRespecialize, generation, 0,
                           spec_t0, ObsNowNs() - spec_t0);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }
  publish_seq_.fetch_add(1, std::memory_order_release);
  SvcCounters::Get().snapshot_swaps.Increment();
  // Writer-path events are rare enough to journal unsampled; their cost is
  // publish-time, not steady-state query work, so the budget skips them.
  Journal::Global().Record(JournalEventKind::kSnapshotSwap, generation,
                           /*b=*/1);
}

Status QueryService::UpdateProgram(Program program) {
  if (!program.UnresolvedCallees().empty()) {
    return FailedPreconditionError(
        "UpdateProgram needs a closed program (unresolved imports remain)");
  }
  const uint64_t generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  auto bundle = std::make_shared<const Snapshot::Bundle>(
      std::move(program), generation, options_.eval);
  std::shared_ptr<const Snapshot> current;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    current = snapshot_;
  }
  auto next =
      std::make_shared<const Snapshot>(std::move(bundle), current->profile());
  const uint64_t spec_t0 = ObsNowNs();
  next->bundle().evaluator.PrepareSpecialized(next->profile());
  Journal::Global().Record(JournalEventKind::kRespecialize, generation, 0,
                           spec_t0, ObsNowNs() - spec_t0);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }
  publish_seq_.fetch_add(1, std::memory_order_release);
  SvcCounters::Get().snapshot_swaps.Increment();
  Journal::Global().Record(JournalEventKind::kSnapshotSwap, generation,
                           /*b=*/2);
  return OkStatus();
}

uint64_t QueryService::snapshot_generation() const {
  return AcquireSnapshot()->generation();
}

const EcvProfile& QueryService::EffectiveProfile(const Snapshot& snapshot,
                                                 const Query& query,
                                                 EcvProfile& merged) {
  if (query.profile.empty()) {
    return snapshot.profile();
  }
  merged = snapshot.profile();
  merged.MergeFrom(query.profile);
  return merged;
}

DistMode QueryService::EffectiveMode(const Query& query) const {
  return query.dist_mode.value_or(options_.eval.dist_mode);
}

Result<CertifiedDistribution> QueryService::CertifiedOn(
    const Snapshot& snapshot, const Query& query, DistMode mode) const {
  EcvProfile merged;
  return snapshot.bundle().evaluator.EvalCertifiedMode(
      query.interface, query.args, EffectiveProfile(snapshot, query, merged),
      options_.calibration, mode);
}

Result<Energy> QueryService::ExpectedOn(const Snapshot& snapshot,
                                        const Query& query) const {
  const DistMode mode = EffectiveMode(query);
  if (mode != DistMode::kEnumerate) {
    ECLARITY_ASSIGN_OR_RETURN(CertifiedDistribution cd,
                              CertifiedOn(snapshot, query, mode));
    return Energy::Joules(cd.mean);
  }
  ECLARITY_ASSIGN_OR_RETURN(const ExactFold* fold,
                            FoldCached(snapshot, query));
  return Energy::Joules(fold->mean);
}

Result<Energy> QueryService::Expected(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, QueryKind::kExpected);
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  return ExpectedOn(snapshot, query);
}

Result<Distribution> QueryService::EvalDistribution(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, QueryKind::kDistribution);
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  Result<QueryOutcome> outcome = DistributionOn(snapshot, query);
  if (!outcome.ok()) {
    return outcome.status();
  }
  return *std::move(outcome->distribution);
}

Result<Energy> QueryService::MonteCarloOn(const Snapshot& snapshot,
                                          const Query& query) const {
  SvcCounters::Get().mc_requests.Increment();
  // The stream is a pure function of the query's seed: concurrent
  // execution and single-threaded replay draw identical samples.
  Rng rng(query.seed);
  EcvProfile merged;
  return snapshot.bundle().evaluator.MonteCarloMean(
      query.interface, query.args, EffectiveProfile(snapshot, query, merged),
      rng, query.samples, options_.calibration);
}

Result<Energy> QueryService::MonteCarlo(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, QueryKind::kMonteCarlo);
  // Sampling runs on this thread, so the borrowed snapshot stays pinned
  // for the whole call.
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  return MonteCarloOn(snapshot, query);
}

Result<Value> QueryService::Sample(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, QueryKind::kSample);
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  return SampleOn(snapshot, query);
}

Result<Value> QueryService::SampleOn(const Snapshot& snapshot,
                                     const Query& query) const {
  // Like Monte Carlo, the stream is a pure function of the query's seed.
  Rng rng(query.seed);
  EcvProfile merged;
  return snapshot.bundle().evaluator.EvalSampled(
      query.interface, query.args, EffectiveProfile(snapshot, query, merged),
      rng);
}

Result<QueryOutcome> QueryService::DistributionOn(
    const Snapshot& snapshot, const Query& query) const {
  QueryOutcome outcome;
  outcome.kind = QueryKind::kDistribution;
  const DistMode mode = EffectiveMode(query);
  if (mode != DistMode::kEnumerate) {
    ECLARITY_ASSIGN_OR_RETURN(CertifiedDistribution cd,
                              CertifiedOn(snapshot, query, mode));
    if (!cd.has_distribution) {
      return FailedPreconditionError(
          "moments-only evaluation materialises no distribution; "
          "use kExpected");
    }
    outcome.joules = cd.mean;
    outcome.distribution = std::move(cd.distribution);
    outcome.analytic = true;
    outcome.error_bound = cd.mean_error_bound;
    outcome.pruned_mass = cd.pruned_mass;
    return outcome;
  }
  ECLARITY_ASSIGN_OR_RETURN(const ExactFold* fold,
                            FoldCached(snapshot, query));
  outcome.joules = fold->mean;
  outcome.distribution = fold->distribution;
  return outcome;
}

Result<QueryOutcome> QueryService::DispatchOn(const Snapshot& snapshot,
                                              const Query& query) const {
  QueryOutcome outcome;
  outcome.kind = query.kind;
  const DistMode mode = EffectiveMode(query);
  switch (query.kind) {
    case QueryKind::kExpected: {
      if (mode != DistMode::kEnumerate) {
        ECLARITY_ASSIGN_OR_RETURN(CertifiedDistribution cd,
                                  CertifiedOn(snapshot, query, mode));
        outcome.joules = cd.mean;
        outcome.analytic = true;
        outcome.error_bound = cd.mean_error_bound;
        outcome.pruned_mass = cd.pruned_mass;
        return outcome;
      }
      ECLARITY_ASSIGN_OR_RETURN(Energy energy, ExpectedOn(snapshot, query));
      outcome.joules = energy.joules();
      return outcome;
    }
    case QueryKind::kDistribution:
      return DistributionOn(snapshot, query);
    case QueryKind::kMonteCarlo: {
      ECLARITY_ASSIGN_OR_RETURN(Energy energy, MonteCarloOn(snapshot, query));
      outcome.joules = energy.joules();
      return outcome;
    }
    case QueryKind::kSample: {
      ECLARITY_ASSIGN_OR_RETURN(Value value, SampleOn(snapshot, query));
      outcome.sample = std::move(value);
      return outcome;
    }
  }
  return InternalError("unknown query kind");
}

Result<QueryOutcome> QueryService::Dispatch(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, query.kind);
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  return DispatchOn(snapshot, query);
}

namespace {

// --- The thread-local fold front ---------------------------------------------
//
// The service's one fold cache, probed by single dispatch and EvaluateBatch
// alike: a per-thread, 4-way set-associative array that answers a repeated
// base-profile exact query from one content hash (interface bytes +
// argument bits) and one bit-level compare — no cache key, no lock, no
// shared write, no refcount traffic. A miss enumerates, folds and fills.
// What-ifs (queries carrying profile overrides) are never cached, so they
// bypass the front.

// Hash quality only costs front misses — every front hit is confirmed by a
// full bit-level content compare — so the mixers favour speed: forced inline
// (the per-item interface hash is the hot loop's largest line item when
// outlined) and two accumulator lanes so consecutive 8-byte chunks multiply
// in parallel instead of serialising on one chain.
#if defined(__GNUC__)
#define ECLARITY_FRONT_INLINE inline __attribute__((always_inline))
#else
#define ECLARITY_FRONT_INLINE inline
#endif

ECLARITY_FRONT_INLINE uint64_t FrontHashMix(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 32);
}

ECLARITY_FRONT_INLINE uint64_t FrontHashBytes(uint64_t h, const char* data,
                                              size_t n) {
  // Tails read a final overlapping 8-byte word instead of a variable-length
  // memcpy (which GCC lowers to a byte loop). Overlap double-mixes a few
  // bytes; harmless, every probe is confirmed by a full compare.
  uint64_t a = h ^ (n * 0x9E3779B97F4A7C15ull);
  uint64_t b = 0x517CC1B727220A95ull;
  if (n >= 8) {
    const char* p = data;
    size_t left = n;
    while (left >= 16) {
      uint64_t v0;
      uint64_t v1;
      std::memcpy(&v0, p, sizeof(v0));
      std::memcpy(&v1, p + 8, sizeof(v1));
      a = (a ^ v0) * 0x9E3779B97F4A7C15ull;
      b = (b ^ v1) * 0xC2B2AE3D27D4EB4Full;
      p += 16;
      left -= 16;
    }
    if (left >= 8) {
      uint64_t v;
      std::memcpy(&v, p, sizeof(v));
      a = (a ^ v) * 0x9E3779B97F4A7C15ull;
      p += 8;
      left -= 8;
    }
    if (left > 0) {
      uint64_t v;
      std::memcpy(&v, data + n - 8, sizeof(v));
      b = (b ^ v) * 0xC2B2AE3D27D4EB4Full;
    }
  } else if (n >= 4) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, data, sizeof(lo));
    std::memcpy(&hi, data + n - 4, sizeof(hi));
    a = (a ^ (static_cast<uint64_t>(hi) << 32 | lo)) * 0x9E3779B97F4A7C15ull;
  } else if (n > 0) {
    uint64_t v = static_cast<unsigned char>(data[0]);
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[n / 2])) << 8;
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[n - 1])) << 16;
    a = (a ^ v) * 0x9E3779B97F4A7C15ull;
  }
  uint64_t x = a ^ b;
  x ^= x >> 32;
  x *= 0x9E3779B97F4A7C15ull;
  return x ^ (x >> 32);
}

ECLARITY_FRONT_INLINE uint64_t FrontHashValue(uint64_t h, const Value& v) {
  // One mix per double, kind-tagged by constant: cross-kind collisions are
  // possible in principle and harmless (Value::SameBits rejects them).
  if (v.is_number()) {
    return FrontHashMix(h, std::bit_cast<uint64_t>(v.number()) ^ 0x4E554Dull);
  }
  if (v.is_bool()) {
    return FrontHashMix(h, v.boolean() ? 'T' : 'F');
  }
  h = FrontHashMix(h, std::bit_cast<uint64_t>(v.joules()) ^ 'E');
  const AbstractEnergy energy = v.energy();
  for (const UnitTerm& term : energy.terms()) {
    h = FrontHashBytes(h, term.unit.data(), term.unit.size());
    h = FrontHashMix(h, std::bit_cast<uint64_t>(term.coefficient));
  }
  return h;
}

// A front entry answers only the exact (service, snapshot, interface,
// argument bits) it was filled for: both ids are process-unique and never
// reused, and the pinned fold is immutable, so a stale entry can only miss,
// never answer wrongly (a publication therefore empties the service's share
// of the front).
struct FrontEntry {
  uint64_t svc = 0;
  uint64_t snap = 0;  // 0: empty, never filled
  std::string interface;
  std::vector<Value> args;
  QueryService::SharedFold fold;
};

// Inline chunked byte compare: interface names are short (tens of bytes),
// so the libc memcmp call overhead would dominate the compare itself.
ECLARITY_FRONT_INLINE bool SameBytes(const char* a, const char* b, size_t n) {
  if (n >= 8) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t x;
      uint64_t y;
      std::memcpy(&x, a + i, sizeof(x));
      std::memcpy(&y, b + i, sizeof(y));
      if (x != y) {
        return false;
      }
    }
    if (i == n) {
      return true;
    }
    // Overlapping final word — no variable-length (byte loop) memcpy.
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a + n - 8, sizeof(x));
    std::memcpy(&y, b + n - 8, sizeof(y));
    return x == y;
  }
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

ECLARITY_FRONT_INLINE bool FrontMatches(const FrontEntry& m, const Query& q) {
  if (m.interface.size() != q.interface.size() ||
      m.args.size() != q.args.size() ||
      !SameBytes(m.interface.data(), q.interface.data(),
                 q.interface.size())) {
    return false;
  }
  for (size_t i = 0; i < m.args.size(); ++i) {
    // Bit-level, like Value::AppendFingerprint: distinct NaN or ±0.0 bit
    // patterns must not share an answer.
    if (!m.args[i].SameBits(q.args[i])) {
      return false;
    }
  }
  return true;
}

// 128 sets x 4 ways = 512 entries: a small hot working set stays resident
// unless five of its keys share a set, where direct mapping loses any two
// that share a slot. A set keeps its ways' content hashes side by side, so
// a probe reads one 32-byte row before it touches an entry.
struct FoldFront {
  static constexpr int kSetBits = 7;
  static constexpr size_t kWays = 4;

  struct alignas(64) Set {
    uint64_t hash[kWays] = {};
    uint8_t next = 0;  // the way a fill into a full set displaces
    FrontEntry ways[kWays];
  };
  std::vector<Set> sets = std::vector<Set>(size_t{1} << kSetBits);

  // The set for `q`, indexed by the hash's top bits: a product's high bits
  // depend on every input bit, so keys that differ only in a double's sign
  // or exponent still spread. `hash` receives the content hash.
  ECLARITY_FRONT_INLINE Set& SetFor(const Query& q, uint64_t& hash) {
    hash = FrontHashBytes(0x9E3779B97F4A7C15ull, q.interface.data(),
                          q.interface.size());
    for (const Value& arg : q.args) {
      hash = FrontHashValue(hash, arg);
    }
    return sets[hash >> (64 - kSetBits)];
  }

  // The way of `set` filled for exactly (service, snapshot, q), or null.
  static ECLARITY_FRONT_INLINE const FrontEntry* Find(const Set& set,
                                                      uint64_t hash,
                                                      uint64_t svc,
                                                      uint64_t snap,
                                                      const Query& q) {
    for (size_t w = 0; w < kWays; ++w) {
      const FrontEntry& m = set.ways[w];
      if (set.hash[w] == hash && m.snap == snap && m.svc == svc &&
          FrontMatches(m, q)) {
        return &m;
      }
    }
    return nullptr;
  }

  // Fills an empty way of `set` with q's answer, else the set's next way in
  // turn (ways fill in index order, so this replaces the oldest entry).
  // Returns true when the fill displaced an entry of this same service and
  // snapshot: an eviction. Displacing a stale entry is not one.
  static bool Fill(Set& set, uint64_t hash, uint64_t svc, uint64_t snap,
                   const Query& q, QueryService::SharedFold fold) {
    size_t way = 0;
    while (way < kWays && set.ways[way].snap != 0) {
      ++way;
    }
    if (way == kWays) {
      way = set.next;
      set.next = static_cast<uint8_t>((way + 1) % kWays);
    }
    FrontEntry& m = set.ways[way];
    const bool evicted = m.snap == snap && m.svc == svc;
    set.hash[way] = hash;
    m.svc = svc;
    m.snap = snap;
    m.interface = q.interface;  // assignment keeps capacity across refills
    m.args = q.args;
    m.fold = std::move(fold);
    return evicted;
  }
};

// The calling thread's front, allocated on the thread's first use.
FoldFront& ThreadFront() {
  thread_local FoldFront front;
  return front;
}

// --- EvaluateBatch scratch ---------------------------------------------------

// An exact item's answer from its fold, written in place: QueryOutcome is
// large enough that the construct-then-move idiom dominates the hit path.
// Fold copies are cheap: the distribution's atoms are shared, not cloned.
ECLARITY_FRONT_INLINE void AnswerFromFold(QueryOutcome& outcome,
                                          QueryKind kind,
                                          const ExactFold& fold) {
  outcome.kind = kind;
  outcome.joules = fold.mean;
  if (kind == QueryKind::kDistribution) {
    outcome.distribution = fold.distribution;
  }
}

// An exact item the front did not answer: one lane of its (interface,
// effective profile) group's SoA pass. Identical items are separate lanes.
struct BatchLane {
  size_t item = 0;                      // index into the batch and results
  const EcvProfile* profile = nullptr;  // the snapshot's, or a merge
  // Base-profile lanes: the front set to fill and the item's content hash.
  FoldFront::Set* front_set = nullptr;
  uint64_t front_hash = 0;
};

// Thread-local and reused, so steady-state batches keep their capacity.
struct BatchScratch {
  std::vector<BatchLane> lanes;
  // One base-profile merge per distinct override in the batch.
  std::deque<EcvProfile> merged;
  std::unordered_map<std::string, const EcvProfile*> override_index;

  void Begin() {
    lanes.clear();
    if (!override_index.empty()) {
      merged.clear();
      override_index.clear();
    }
  }
};

}  // namespace

Result<const ExactFold*> QueryService::FoldCached(const Snapshot& snapshot,
                                                  const Query& query) const {
  // Phase spans (front probe, eval, fold) are recorded only inside a query
  // the QueryTimer already chose to sample, so the unsampled path pays one
  // thread-local bool read here.
  const bool sampled = ObsSampler::Active();
  // A what-if is evaluated on every call and never cached: it neither
  // probes nor fills the front.
  const bool what_if = !query.profile.empty();
  FoldFront::Set* set = nullptr;
  uint64_t hash = 0;
  if (what_if) {
    SvcCounters::Get().profile_fingerprints.Increment();  // merged below
  } else {
    const uint64_t lookup_t0 = sampled ? ObsNowNs() : 0;
    set = &ThreadFront().SetFor(query, hash);
    const FrontEntry* hit =
        FoldFront::Find(*set, hash, svc_id_, snapshot.unique_id(), query);
    SvcCounters& counters = SvcCounters::Get();
    if (hit != nullptr) {
      front_hits_.Increment();
      counters.cache_hits.Increment();
      counters.tl_fold_hits.Increment();
    } else {
      front_misses_.Increment();
      counters.cache_misses.Increment();
      counters.tl_fold_misses.Increment();
    }
    if (sampled) {
      JournalPhase(JournalEventKind::kCacheLookup, hit != nullptr ? 1 : 0,
                   lookup_t0);
    }
    if (hit != nullptr) {
      return hit->fold.get();  // pinned by the entry, consumed at once
    }
  }
  const uint64_t eval_t0 = sampled ? ObsNowNs() : 0;
  EcvProfile merged;
  Result<std::vector<WeightedOutcome>> outcomes =
      snapshot.bundle().evaluator.Enumerate(
          query.interface, query.args,
          EffectiveProfile(snapshot, query, merged));
  if (!outcomes.ok()) {
    return outcomes.status();  // errors are never cached
  }
  if (sampled) {
    JournalPhase(JournalEventKind::kEval, outcomes->size(), eval_t0);
  }
  // The fold Evaluator::ExpectedEnergy takes, so service answers are
  // bit-identical to the single-threaded engine's. Folding once, when the
  // front is filled, means a hit serves Expected and Distribution queries
  // with no per-query fold.
  const uint64_t fold_t0 = sampled ? ObsNowNs() : 0;
  ECLARITY_ASSIGN_OR_RETURN(ExactFold folded,
                            FoldOutcomes(*outcomes, options_.calibration));
  if (sampled) {
    JournalPhase(JournalEventKind::kFold, folded.distribution.atoms().size(),
                 fold_t0);
  }
  SharedFold fold = std::make_shared<const ExactFold>(std::move(folded));
  const ExactFold* answer = fold.get();
  // Pin the answer until the thread's next query: in the front for a
  // base-profile query, else (a what-if) in the thread's last-answer pin.
  if (set != nullptr) {
    if (FoldFront::Fill(*set, hash, svc_id_, snapshot.unique_id(), query,
                        std::move(fold))) {
      front_evictions_.Increment();
      SvcCounters::Get().cache_evictions.Increment();
      // Journaled only inside a sampled query, charged like its phase
      // spans: one record per eviction would push sampled spans out of the
      // ring.
      if (sampled) {
        JournalInstant(JournalEventKind::kFrontEviction, 0);
      }
    }
    return answer;
  }
  thread_local SharedFold pin;
  pin = std::move(fold);
  return answer;
}

std::vector<Result<QueryOutcome>> QueryService::EvaluateBatch(
    const std::vector<Query>& batch) const {
  SvcCounters::Get().batches.Increment();
  SvcCounters::Get().batch_queries.Increment(batch.size());
  if (batch.empty()) {
    return {};
  }
  // Work is credited batch-at-a-time: see BatchWorkTimer. Covers every
  // return path, including the shared group passes below.
  BatchWorkTimer batch_timer(options_.obs_sample_interval, batch.size());
  const Snapshot& snapshot = AcquireSnapshotRef();
  // Fill-construct every slot with a default success outcome up front: one
  // tight inlined loop instead of a per-item emplace_back call (which GCC
  // outlines, growth path and all). Every slot is overwritten before
  // return — front answers in pass 1, lane answers (or errors) in pass 2.
  std::vector<Result<QueryOutcome>> results(
      batch.size(), Result<QueryOutcome>(std::in_place));

  thread_local BatchScratch scratch;
  BatchScratch& sc = scratch;
  sc.Begin();
  FoldFront& front = ThreadFront();
  const uint64_t snap_id = snapshot.unique_id();
  // Front probes, added to the counters once per call.
  uint64_t hits = 0;
  uint64_t misses = 0;

  // Pass 1: probe or lane. A base-profile item is answered by the front;
  // every other exact item becomes a lane.
  for (size_t i = 0; i < batch.size(); ++i) {
    const Query& query = batch[i];
    // Batch items sample through the same per-kind gates as single
    // queries, so a batch of N advances the countdowns N times and its
    // sampled items land in the same histograms and journal. (Group-pass
    // enumeration below runs outside these per-item spans; the enclosing
    // BatchWorkTimer owns work crediting — see DESIGN.md.)
    QueryTimer timer(options_.obs_sample_interval, query.kind,
                     /*credit_work=*/false);
    if ((query.kind != QueryKind::kExpected &&
         query.kind != QueryKind::kDistribution) ||
        EffectiveMode(query) != DistMode::kEnumerate) {
      // Certified queries run on the snapshot evaluator's certified
      // engines; the service's fold front is kEnumerate-only.
      results[i] = DispatchOn(snapshot, query);
      continue;
    }

    BatchLane lane;
    lane.item = i;
    lane.profile = &snapshot.profile();
    if (!query.profile.empty()) {
      // A what-if: one base-profile merge per *distinct* override in the
      // batch, not per item.
      auto [it, fresh] =
          sc.override_index.try_emplace(query.profile.Fingerprint(), nullptr);
      if (fresh) {
        EcvProfile& merged = sc.merged.emplace_back(snapshot.profile());
        merged.MergeFrom(query.profile);
        SvcCounters::Get().profile_fingerprints.Increment();
        it->second = &merged;
      }
      lane.profile = it->second;
    } else {
      FoldFront::Set& set = front.SetFor(query, lane.front_hash);
      if (const FrontEntry* hit = FoldFront::Find(set, lane.front_hash,
                                                  svc_id_, snap_id, query)) {
        ++hits;
        AnswerFromFold(*results[i], query.kind, *hit->fold);
        continue;
      }
      ++misses;
      lane.front_set = &set;
    }
    sc.lanes.push_back(lane);
  }
  SvcCounters& counters = SvcCounters::Get();
  if (hits > 0) {
    front_hits_.Increment(hits);
    counters.cache_hits.Increment(hits);
  }
  if (misses > 0) {
    front_misses_.Increment(misses);
    counters.cache_misses.Increment(misses);
  }

  if (sc.lanes.empty()) {
    return results;
  }

  // Pass 2: one SoA pass per (interface, effective profile) group —
  // pointer identity suffices, every override was merged once above. The
  // batch engine's answers (vector or per-lane scalar fallback) are
  // bit-identical to FoldCached's enumerate+fold, so lanes, front answers
  // and single dispatch all agree bit-for-bit. Each lane's answer or error
  // goes straight into its result slot; base-profile answers fill the front
  // (identical lanes fill one way), errors and what-ifs never. Evictions
  // here are counted, not journaled: the per-item spans have closed.
  std::map<std::pair<std::string_view, const EcvProfile*>,
           std::vector<uint32_t>>
      groups;
  for (size_t l = 0; l < sc.lanes.size(); ++l) {
    const BatchLane& lane = sc.lanes[l];
    groups[{std::string_view(batch[lane.item].interface), lane.profile}]
        .push_back(static_cast<uint32_t>(l));
  }
  uint64_t evictions = 0;
  for (const auto& [group_key, lanes] : groups) {
    BatchPlan plan(snapshot.bundle().evaluator, std::string(group_key.first));
    std::vector<const std::vector<Value>*> lane_args;
    lane_args.reserve(lanes.size());
    for (const uint32_t l : lanes) {
      lane_args.push_back(&batch[sc.lanes[l].item].args);
    }
    std::vector<Result<ExactFold>> folds =
        plan.EnumerateFold(lane_args, *group_key.second, options_.calibration);
    const bool base = group_key.second == &snapshot.profile();
    for (size_t g = 0; g < lanes.size(); ++g) {
      const BatchLane& lane = sc.lanes[lanes[g]];
      const Query& query = batch[lane.item];
      if (!folds[g].ok()) {
        results[lane.item] = folds[g].status();
        continue;
      }
      AnswerFromFold(*results[lane.item], query.kind, *folds[g]);
      if (base && FoldFront::Find(*lane.front_set, lane.front_hash, svc_id_,
                                  snap_id, query) == nullptr) {
        evictions += FoldFront::Fill(
            *lane.front_set, lane.front_hash, svc_id_, snap_id, query,
            std::make_shared<const ExactFold>(*std::move(folds[g])));
      }
    }
  }
  if (evictions > 0) {
    front_evictions_.Increment(evictions);
    counters.cache_evictions.Increment(evictions);
  }
  return results;
}

QueryService::CacheStats QueryService::TotalCacheStats() const {
  CacheStats stats;
  stats.hits = front_hits_.value();
  stats.misses = front_misses_.value();
  stats.evictions = front_evictions_.value();
  return stats;
}

}  // namespace eclarity
