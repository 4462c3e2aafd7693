#include "src/obs/journal.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "src/util/json.h"

namespace eclarity {
namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr uint64_t kTagKindMask = 0xffff;

uint64_t PackTag(JournalEventKind kind, uint64_t a) {
  return static_cast<uint64_t>(kind) | (a << 16);
}

}  // namespace

const char* JournalEventKindName(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kNone:
      return "none";
    case JournalEventKind::kQuery:
      return "query";
    case JournalEventKind::kCacheLookup:
      return "cache_lookup";
    case JournalEventKind::kSnapshotPin:
      return "snapshot_pin";
    case JournalEventKind::kEval:
      return "eval";
    case JournalEventKind::kFold:
      return "fold";
    case JournalEventKind::kSnapshotSwap:
      return "snapshot_swap";
    case JournalEventKind::kRespecialize:
      return "respecialize";
    case JournalEventKind::kShardEviction:
      return "shard_eviction";
    case JournalEventKind::kFaultInjected:
      return "fault_injected";
    case JournalEventKind::kGuardTransition:
      return "guard_transition";
    case JournalEventKind::kMark:
      return "mark";
  }
  return "unknown";
}

// Thread-local ring ownership. The handle checks a ring out of the global
// free pool on the thread's first Record() and returns it at thread exit;
// the ring (and the drained history in it) survives in the journal. Reuse
// keeps the ring count bounded by peak thread concurrency rather than by
// the number of threads ever started.
class Journal::Handle {
 public:
  ~Handle() {
    if (ring_ != nullptr) {
      Journal::Global().ReleaseRing(ring_);
    }
  }
  Ring* ring_ = nullptr;
};

Journal& Journal::Global() {
  static Journal* journal = new Journal();
  return *journal;
}

Journal::Ring* Journal::AcquireRing() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) {
    if (!ring->in_use.load(std::memory_order_relaxed)) {
      ring->in_use.store(true, std::memory_order_relaxed);
      return ring.get();
    }
  }
  rings_.push_back(std::make_unique<Ring>(static_cast<uint32_t>(rings_.size())));
  rings_.back()->in_use.store(true, std::memory_order_relaxed);
  return rings_.back().get();
}

void Journal::ReleaseRing(Ring* ring) {
  ring->in_use.store(false, std::memory_order_relaxed);
}

Journal::Ring& Journal::LocalRing() {
  thread_local Handle handle;
  if (handle.ring_ == nullptr) {
    handle.ring_ = AcquireRing();
  }
  return *handle.ring_;
}

void Journal::Record(JournalEventKind kind, uint64_t a, uint64_t b,
                     uint64_t t_ns, uint64_t dur_ns) {
  if (!enabled()) {
    return;
  }
  Ring& ring = LocalRing();
  const uint64_t h = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[h & (kRingCapacity - 1)];
  // Seqlock write without fences (Boehm, MSPC 2012): invalidate, fill with
  // release stores, then publish with the new sequence. A reader that
  // acquires any payload field of this write also sees the invalidation
  // that precedes it, so a racing Drain() either sees seq unchanged twice
  // (consistent payload) or a mismatch (slot skipped).
  slot.seq.store(0, std::memory_order_relaxed);
  slot.t_ns.store(t_ns != 0 ? t_ns : SteadyNowNs(), std::memory_order_release);
  slot.dur_ns.store(dur_ns, std::memory_order_release);
  slot.tag.store(PackTag(kind, a), std::memory_order_release);
  slot.b.store(b, std::memory_order_release);
  slot.seq.store(h + 1, std::memory_order_release);
  ring.head.store(h + 1, std::memory_order_release);
}

std::vector<JournalEvent> Journal::Drain() const {
  std::vector<JournalEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    for (size_t i = 0; i < kRingCapacity; ++i) {
      const Slot& slot = ring->slots[i];
      const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0) {
        continue;  // never written, or invalidated / mid-write
      }
      // Acquire loads order the payload before the re-check: if the writer
      // started a new event, its seq invalidation is visible here and
      // s2 != s1.
      JournalEvent ev;
      ev.t_ns = slot.t_ns.load(std::memory_order_acquire);
      ev.dur_ns = slot.dur_ns.load(std::memory_order_acquire);
      const uint64_t tag = slot.tag.load(std::memory_order_acquire);
      ev.b = slot.b.load(std::memory_order_acquire);
      const uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
      if (s1 != s2) {
        continue;
      }
      ev.thread = ring->thread_id;
      ev.index = s1 - 1;
      ev.kind = static_cast<JournalEventKind>(tag & kTagKindMask);
      ev.a = tag >> 16;
      out.push_back(ev);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JournalEvent& x, const JournalEvent& y) {
              return x.thread != y.thread ? x.thread < y.thread
                                          : x.index < y.index;
            });
  return out;
}

void Journal::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) {
    for (size_t i = 0; i < kRingCapacity; ++i) {
      ring->slots[i].seq.store(0, std::memory_order_release);
    }
  }
}

uint64_t Journal::TotalRecorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Journal::TotalDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    if (head > kRingCapacity) {
      total += head - kRingCapacity;
    }
  }
  return total;
}

std::string FormatJournal(const std::vector<JournalEvent>& events) {
  std::string out;
  uint64_t t0 = 0;
  for (const JournalEvent& ev : events) {
    if (t0 == 0 || (ev.t_ns != 0 && ev.t_ns < t0)) {
      t0 = ev.t_ns;
    }
  }
  char line[160];
  for (const JournalEvent& ev : events) {
    std::snprintf(line, sizeof(line),
                  "[t%-2u #%-6" PRIu64 " +%10.3fus] %-16s a=%-8" PRIu64
                  " b=%-8" PRIu64,
                  ev.thread, ev.index, (ev.t_ns - t0) / 1e3,
                  JournalEventKindName(ev.kind), ev.a, ev.b);
    out += line;
    if (ev.dur_ns != 0) {
      std::snprintf(line, sizeof(line), " dur=%.3fus", ev.dur_ns / 1e3);
      out += line;
    }
    out += '\n';
  }
  return out;
}

void WriteJournalChromeTrace(const std::vector<JournalEvent>& events,
                             std::ostream& out) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const JournalEvent& ev : events) {
    if (!first) {
      out << ",";
    }
    first = false;
    const bool span = ev.dur_ns != 0;
    out << "{\"name\":\"" << JsonEscape(JournalEventKindName(ev.kind))
        << "\",\"cat\":\"journal\",\"ph\":\"" << (span ? 'X' : 'i')
        << "\",\"pid\":1,\"tid\":" << ev.thread
        << ",\"ts\":" << ev.t_ns / 1000.0;
    if (span) {
      out << ",\"dur\":" << ev.dur_ns / 1000.0;
    } else {
      out << ",\"s\":\"t\"";
    }
    out << ",\"args\":{\"index\":" << ev.index << ",\"a\":" << ev.a
        << ",\"b\":" << ev.b << "}}";
  }
  out << "]}\n";
}

std::string JournalFingerprint(const std::vector<JournalEvent>& events) {
  // FNV-1a over the deterministic fields, in (thread, index) order — which
  // is exactly the order Drain() already returns.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const JournalEvent& ev : events) {
    mix(static_cast<uint64_t>(ev.kind));
    mix(ev.a);
    mix(ev.b);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

}  // namespace eclarity
