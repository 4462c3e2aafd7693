// Structured evaluation tracing.
//
// An energy interface's value is its legibility: an operator should be able
// to see *why* a prediction is what it is, not just the final scalar. A
// TraceSink attached to EvalOptions receives one structured event per
// observable evaluation step — interface enter/exit, ECV draw (with the
// distribution and the chosen outcome), branch decision, and every energy
// term that contributes joules — with source locations, so a prediction can
// be replayed back onto the EIL text that produced it.
//
// One engine emits the events: the tree-walk reference. An evaluator with a
// sink attached runs the tree walk whatever its engine setting
// (src/eval/interp.h), so the stream does not depend on that setting
// (tests/obs_test.cc) and a traced answer equals the untraced one bit for
// bit (tests/engine_parity_test.cc).
//
// Cost model: tracing is off by default (EvalOptions::trace == nullptr).
// The bytecode VM that serves untraced evaluation carries no event code;
// the tree walk pays an untaken branch per candidate event when it is off.
// A traced evaluation gives up the VM; see DESIGN.md for measured cost.

#ifndef ECLARITY_SRC_OBS_TRACE_H_
#define ECLARITY_SRC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/lang/value.h"

namespace eclarity {

enum class TraceEventKind {
  kPathStart,       // enumeration begins path `path_index`
  kInterfaceEnter,  // name = interface, depth = call depth after entry
  kInterfaceExit,   // name = interface, value = returned value
  kEcvDraw,         // name = ECV, detail = distribution, value = outcome,
                    // probability = that outcome's probability
  kBranch,          // branch_taken = chosen arm of an if-statement
  kEnergyTerm,      // name = term text, value = the term's value
  kPathEnd,         // probability = the finished path's total probability
};

const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kPathStart;
  std::string name;          // interface / ECV qualified name / term text
  std::string detail;        // distribution text for draws
  int line = 0;              // 0 when no source location applies
  int column = 0;
  int depth = 0;             // call depth at emission (entry interface = 1)
  Value value;               // exit return, ECV outcome, or term energy
  double probability = 1.0;  // see kind comments above
  bool branch_taken = false;
  size_t path_index = 0;     // enumeration path; 0 for single-sample traces
};

// Canonical byte encoding of an event (kind tag, strings, bit-exact doubles,
// value fingerprint). Equal events produce equal encodings — this is what
// the trace tests compare.
std::string TraceEventFingerprint(const TraceEvent& event);

// One human-readable line, indented by call depth.
std::string FormatTraceEvent(const TraceEvent& event);

// Receives events during evaluation. Implementations are called from
// whichever thread evaluates — several at once when evaluators on different
// threads share a sink — so sinks must be internally synchronized.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

// Appends every event to an in-memory vector (mutex-protected).
class RecordingTraceSink : public TraceSink {
 public:
  void OnEvent(const TraceEvent& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
  }

  // Moves out everything recorded so far: the one reader, under the lock.
  std::vector<TraceEvent> TakeEvents() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(events_);
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }

 private:
  std::mutex mu_;
  std::vector<TraceEvent> events_;
};

// Renders the full event stream as indented text, one event per line.
std::string FormatTrace(const std::vector<TraceEvent>& events);

// Writes the events as a Chrome trace_event JSON document (the JSON-array
// format; loadable in Perfetto / chrome://tracing). Interface enter/exit
// become duration (B/E) events; draws, branches, and energy terms become
// instants. Each enumeration path maps to its own tid so alternative
// executions render as parallel tracks. Timestamps are synthetic (event
// index in microseconds): evaluation is a semantic process, not a timed one.
void WriteChromeTrace(const std::vector<TraceEvent>& events,
                      const std::string& process_name, std::ostream& os);

}  // namespace eclarity

#endif  // ECLARITY_SRC_OBS_TRACE_H_
