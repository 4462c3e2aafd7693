// Flight recorder: an always-on, lock-free, per-thread ring-buffer journal.
//
// Each recording thread owns a fixed-size ring of binary event slots;
// writers never take a lock and never allocate on the hot path. When a ring
// wraps, the oldest events are silently overwritten (drop-oldest) — the
// journal answers "what happened recently", not "what happened ever".
// Drain() snapshots every ring from any thread without stopping writers:
// each slot carries a per-slot sequence word maintained with a fence-free
// seqlock protocol (all payload fields are atomics, stored with release
// and loaded with acquire, so concurrent drain-while-record is
// data-race-free under TSan), and a torn slot is simply skipped.
//
// Events are deliberately tiny: a kind tag plus two integer payload words
// and an optional duration. Everything stringy (interface names, reasons)
// stays out of the journal; the payload words carry enum codes and counts
// that the formatter renders symbolically. This keeps Record() at a handful
// of atomic stores (plain moves on x86) — cheap enough to leave enabled in
// production, which is the point: the paper argues energy behaviour must be
// clear continuously, and a recorder you turn off under load explains
// nothing.

#ifndef ECLARITY_SRC_OBS_JOURNAL_H_
#define ECLARITY_SRC_OBS_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace eclarity {

enum class JournalEventKind : uint16_t {
  kNone = 0,         // never recorded; marks an empty slot after Clear()
  kQuery,            // span: one sampled service query. a = QueryKind
  kCacheLookup,      // span: fold-front probe. a = 0 miss / 1 hit
  kSnapshotPin,      // instant: snapshot acquired. a = program generation
  kEval,             // span: shared enumeration on miss. a = outcome count
  kFold,             // span: distribution fold on miss. a = atom count
  kSnapshotSwap,     // instant: a = generation, b = 1 profile / 2 program
  kRespecialize,     // span: PrepareSpecialized. a = generation
  kFrontEviction,    // instant: a front fill displaced its snapshot's entry
  kFaultInjected,    // instant: a = fault code, b = source (0 nvml, 1 rapl)
  kGuardTransition,  // instant: a = new BreakerState, b = old BreakerState
  kMark,             // free-form test/tooling marker. a, b caller-defined
};

const char* JournalEventKindName(JournalEventKind kind);

// One drained event. `thread` is a stable small id for the recording ring
// (not an OS tid); `index` is the event's position in that ring's history,
// monotonically increasing even across wraps, so `index` gaps reveal
// exactly how many events were dropped.
struct JournalEvent {
  uint32_t thread = 0;
  uint64_t index = 0;
  uint64_t t_ns = 0;    // steady-clock timestamp of the record call
  uint64_t dur_ns = 0;  // span duration; 0 for instantaneous events
  JournalEventKind kind = JournalEventKind::kNone;
  uint64_t a = 0;
  uint64_t b = 0;
};

class Journal {
 public:
  // Slots per thread ring. Power of two; 2048 slots * 48 bytes = 96 KiB per
  // recording thread, sized to hold several seconds of sampled service
  // events at the default 1-in-256 sampling rate.
  static constexpr size_t kRingCapacity = 2048;

  // The process-wide journal. Leaked singleton: rings must outlive every
  // recording thread, including detached threads at shutdown.
  static Journal& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Records one event into the calling thread's ring. `t_ns` == 0 means
  // "stamp with the current steady clock"; span recorders pass the start
  // timestamp they already hold so no extra clock read happens here.
  void Record(JournalEventKind kind, uint64_t a = 0, uint64_t b = 0,
              uint64_t t_ns = 0, uint64_t dur_ns = 0);

  // Snapshots every ring (live and retired threads), skipping slots torn by
  // concurrent writers, ordered by (thread, index). Never blocks writers.
  std::vector<JournalEvent> Drain() const;

  // Invalidates every currently visible slot. Concurrent writers are
  // tolerated (their in-flight event may survive), but tests that want a
  // deterministic journal should quiesce first.
  void Clear();

  // Lifetime totals across all rings: events recorded, and events lost to
  // ring wraps (recorded - still resident, floored per ring).
  uint64_t TotalRecorded() const;
  uint64_t TotalDropped() const;

 private:
  struct Slot {
    // 0 = empty/in-flight; otherwise 1 + the event's ring-history index.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> t_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> tag{0};  // kind | a << 16 (a truncated to 48 bits)
    std::atomic<uint64_t> b{0};
  };
  struct Ring {
    explicit Ring(uint32_t id) : thread_id(id) {}
    const uint32_t thread_id;
    std::atomic<uint64_t> head{0};  // next history index; writer-owned
    std::unique_ptr<Slot[]> slots{new Slot[kRingCapacity]};
    std::atomic<bool> in_use{false};
  };
  class Handle;  // thread_local ring ownership; returns the ring on exit

  Journal() = default;
  Ring& LocalRing();
  Ring* AcquireRing();
  void ReleaseRing(Ring* ring);

  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;  // guards rings_ growth only, never Record()
  std::vector<std::unique_ptr<Ring>> rings_;
};

// Human-readable rendering, one line per event, relative timestamps.
std::string FormatJournal(const std::vector<JournalEvent>& events);

// Chrome trace_event JSON (chrome://tracing, Perfetto): spans as complete
// "X" events, instantaneous records as "i". All strings pass through
// JsonEscape.
void WriteJournalChromeTrace(const std::vector<JournalEvent>& events,
                             std::ostream& out);

// Fingerprint over the deterministic event fields only (kind, a, b, per
// ring in history order) — timestamps, durations, and thread ids are
// excluded, so two runs of the same single-threaded workload match bit for
// bit. The replay-determinism tests hold this line.
std::string JournalFingerprint(const std::vector<JournalEvent>& events);

}  // namespace eclarity

#endif  // ECLARITY_SRC_OBS_JOURNAL_H_
