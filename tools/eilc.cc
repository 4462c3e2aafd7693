// eilc — command-line driver for EIL energy interfaces.
//
//   eilc check  FILE                     parse + static checks + summary
//   eilc print  FILE                     canonical pretty-printed source
//   eilc eval   FILE ENTRY ARGS... [--ecv NAME=VALUE|NAME~P]
//               [--mode=enumerate|bounded|moments] [--prune=T]
//               [--engine=tree|bytecode]
//                                        expectation + exact distribution;
//                                        --mode selects the analytic
//                                        distribution algebra (answers carry
//                                        a certified +/- bound; programs it
//                                        cannot analyze are enumerated
//                                        exactly), --prune a
//                                        mass-pruning threshold for bounded
//                                        mode, --engine the execution engine
//                                        (default bytecode; both are
//                                        bit-identical)
//   eilc paths  FILE ENTRY ARGS...       enumerate ECV draw sequences
//   eilc bounds FILE ENTRY LO:HI...      guaranteed worst-case interval
//   eilc trace  FILE ENTRY ARGS... [--chrome-trace OUT.json]
//                                        energy provenance tree; optionally
//                                        a Chrome trace_event JSON dump
//   eilc chaos  FILE ENTRY ARGS... [--plan=PLAN.json] [--reads=N]
//                                        audit the entry's prediction against
//                                        a fault-injected telemetry counter
//   eilc profile FILE ENTRY ARGS... [--repeat=N] [--sample=N]
//                                        run the entry N times on the
//                                        bytecode VM with the sampling
//                                        profiler attached and print hot
//                                        opcodes, hot instruction sites, and
//                                        per-interface attribution
//   eilc serve  FILE ENTRY ARGS... [--threads=N] [--requests=M] [--batch=K]
//               [--engine=tree|bytecode] [--journal[=OUT.json]]
//                                        drive the concurrent query service
//                                        with N client threads x M mixed
//                                        queries, verify the run is
//                                        bit-identical to a single-threaded
//                                        replay, and report throughput,
//                                        sampled latency percentiles, the
//                                        self-accounted telemetry overhead
//                                        ratio, and fold-front statistics;
//                                        --journal drains the flight
//                                        recorder (text to stdout, Chrome
//                                        trace JSON to OUT.json)
//
// Numeric ARGS are numbers; `true`/`false` are booleans. --ecv NAME=VALUE
// pins an ECV (VALUE in {true,false} or a number); --ecv NAME~P sets a
// Bernoulli probability (P in [0, 1]). `bounds` takes LO:HI intervals or
// single numbers, never NaN. Every number must parse whole.
//
// Exit codes: 0 success, 1 error, 2 usage, 3 resource limit exhausted (an
// evaluation budget: max_steps / max_call_depth / max_paths, or the
// parser's nesting limit), 4 telemetry unavailable (the
// chaos run ended with the counter's circuit breaker open), 5 determinism
// violation (a concurrent serve run diverged from its single-threaded
// replay).

#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/eval/interp.h"
#include "src/eval/interval.h"
#include "src/eval/vm_profile.h"
#include "src/fault/guard.h"
#include "src/fault/inject.h"
#include "src/fault/plan.h"
#include "src/hw/counters.h"
#include "src/hw/gpu.h"
#include "src/lang/checker.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/obs/accuracy.h"
#include "src/obs/budget.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/provenance.h"
#include "src/obs/trace.h"
#include "src/svc/query_service.h"

namespace eclarity {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: eilc check|print FILE\n"
               "       eilc eval  FILE ENTRY ARGS... [--ecv NAME=V|NAME~P]"
               " [--mode=enumerate|bounded|moments] [--prune=T]"
               " [--engine=tree|bytecode]\n"
               "       eilc paths FILE ENTRY ARGS... [--ecv NAME=V|NAME~P]\n"
               "       eilc bounds FILE ENTRY LO:HI...\n"
               "       eilc trace FILE ENTRY ARGS... [--ecv NAME=V|NAME~P]"
               " [--chrome-trace OUT.json]\n"
               "       eilc chaos FILE ENTRY ARGS... [--ecv NAME=V|NAME~P]"
               " [--plan=PLAN.json] [--reads=N]\n"
               "       eilc profile FILE ENTRY ARGS... [--ecv NAME=V|NAME~P]"
               " [--repeat=N] [--sample=N]\n"
               "       eilc serve FILE ENTRY ARGS... [--ecv NAME=V|NAME~P]"
               " [--threads=N] [--requests=M] [--batch=K]"
               " [--engine=tree|bytecode] [--journal[=OUT.json]]\n"
               "exit codes:\n"
               "  0  success\n"
               "  1  error (I/O, parse, static check, evaluation)\n"
               "  2  usage\n"
               "  3  resource limit exhausted (max_steps / max_call_depth"
               " / max_paths, or source nested deeper than 256 levels)\n"
               "  4  telemetry unavailable (chaos ended with the counter's"
               " circuit open)\n"
               "  5  determinism violation (concurrent serve diverged from"
               " its single-threaded replay)\n");
  return 2;
}

// Exhausting a resource limit — an evaluation budget (max_steps,
// max_call_depth, max_paths) or the parser's nesting limit — is a distinct
// failure mode: the program may be fine but too big to analyse with the
// current limits, so it gets its own exit code.
int FailWith(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  if (status.code() == StatusCode::kResourceExhausted) {
    std::fprintf(stderr,
                 "resource limit exhausted (exit 3); raise the relevant "
                 "budget, simplify the entry call, or flatten the source's "
                 "nesting\n");
    return 3;
  }
  return 1;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open '" + path + "'");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

// A whole argument as a number: strtod must consume all of it, and there
// must be something to consume.
Result<double> ParseNumberArg(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0') {
    return InvalidArgumentError("cannot parse argument '" + text + "'");
  }
  return v;
}

Result<Value> ParseValueArg(const std::string& text) {
  if (text == "true") {
    return Value::Bool(true);
  }
  if (text == "false") {
    return Value::Bool(false);
  }
  ECLARITY_ASSIGN_OR_RETURN(const double v, ParseNumberArg(text));
  return Value::Number(v);
}

// One `bounds` argument: LO:HI, or a single number for a point. NaN is
// rejected: no interval contains it, and the interval engine would
// propagate it into the printed bounds.
Result<IntervalValue> ParseIntervalArg(const std::string& text) {
  const size_t colon = text.find(':');
  const Result<double> lo = ParseNumberArg(text.substr(0, colon));
  const Result<double> hi = colon == std::string::npos
                                ? lo
                                : ParseNumberArg(text.substr(colon + 1));
  if (!lo.ok() || !hi.ok() || std::isnan(*lo) || std::isnan(*hi)) {
    return InvalidArgumentError("bad interval argument '" + text +
                                "': expected LO:HI or a number, not NaN");
  }
  return IntervalValue::Number(*lo, *hi);
}

// Parses trailing --ecv options into a profile; removes them from args.
Result<EcvProfile> ExtractProfile(std::vector<std::string>& args) {
  EcvProfile profile;
  std::vector<std::string> kept;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] != "--ecv") {
      kept.push_back(args[i]);
      continue;
    }
    if (i + 1 >= args.size()) {
      return InvalidArgumentError("--ecv needs an argument");
    }
    const std::string spec = args[++i];
    const size_t eq = spec.find('=');
    const size_t tilde = spec.find('~');
    if (eq != std::string::npos) {
      ECLARITY_ASSIGN_OR_RETURN(Value v, ParseValueArg(spec.substr(eq + 1)));
      profile.SetFixed(spec.substr(0, eq), v);
    } else if (tilde != std::string::npos) {
      const Result<double> p = ParseNumberArg(spec.substr(tilde + 1));
      // Written so that NaN fails it too.
      if (!p.ok() || !(*p >= 0.0 && *p <= 1.0)) {
        return InvalidArgumentError("bad probability in '" + spec +
                                    "': expected a number in [0, 1]");
      }
      profile.SetBernoulli(spec.substr(0, tilde), *p);
    } else {
      return InvalidArgumentError("--ecv expects NAME=VALUE or NAME~P");
    }
  }
  args = std::move(kept);
  return profile;
}

int Check(const std::string& path) {
  auto source = ReadFile(path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto program = ParseProgram(*source);
  if (!program.ok()) {
    return FailWith(program.status());
  }
  CheckOptions options;
  options.allow_any_unresolved = true;
  const auto problems = CheckProgram(*program, options);
  for (const Status& p : problems) {
    std::fprintf(stderr, "%s\n", p.ToString().c_str());
  }
  std::printf("%zu interface(s), %zu const(s)\n",
              program->interfaces().size(), program->consts().size());
  for (const InterfaceDecl& decl : program->interfaces()) {
    const auto ecvs = CollectEcvNames(decl);
    std::printf("  %s(%zu args)", decl.name.c_str(), decl.params.size());
    if (!ecvs.empty()) {
      std::printf("  ECVs:");
      for (const std::string& name : ecvs) {
        std::printf(" %s", name.c_str());
      }
    }
    std::printf("\n");
  }
  const auto imports = program->UnresolvedCallees();
  if (!imports.empty()) {
    std::printf("imports:");
    for (const std::string& name : imports) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
  }
  return problems.empty() ? 0 : 1;
}

int Print(const std::string& path) {
  auto source = ReadFile(path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto program = ParseProgram(*source);
  if (!program.ok()) {
    return FailWith(program.status());
  }
  std::printf("%s", PrintProgram(*program).c_str());
  return 0;
}

// Parses and strips a --engine= flag from `rest`, writing the chosen
// execution engine (the bytecode VM stays the default). Returns 0 when the
// flag is absent or valid, 2 on a bad value. Both engines are bit-identical;
// if bytecode compilation is impossible the evaluator transparently falls
// back to the tree walk and counts the fallback in
// eclarity_eval_bytecode_fallback_total.
int ExtractEngine(std::vector<std::string>& rest, EvalEngine* engine) {
  std::vector<std::string> kept;
  int rc = 0;
  for (const std::string& arg : rest) {
    if (arg.rfind("--engine=", 0) == 0) {
      const std::string name = arg.substr(9);
      if (name == "tree") {
        *engine = EvalEngine::kTreeWalk;
      } else if (name == "bytecode") {
        *engine = EvalEngine::kBytecode;
      } else {
        std::fprintf(stderr, "--engine expects tree|bytecode\n");
        rc = 2;
      }
      continue;
    }
    kept.push_back(arg);
  }
  rest = std::move(kept);
  return rc;
}

const char* EngineName(EvalEngine engine) {
  switch (engine) {
    case EvalEngine::kTreeWalk:
      return "tree";
    case EvalEngine::kBytecode:
      return "bytecode";
  }
  return "unknown";
}

int EvalOrPaths(const std::string& mode, const std::string& path,
                const std::string& entry, std::vector<std::string> rest) {
  auto source = ReadFile(path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto program = ParseProgram(*source);
  if (!program.ok()) {
    return FailWith(program.status());
  }
  auto profile = ExtractProfile(rest);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  EvalOptions options;
  if (const int rc = ExtractEngine(rest, &options.engine); rc != 0) {
    return rc;
  }
  bool analytic = false;
  std::vector<std::string> kept;
  for (const std::string& arg : rest) {
    if (arg.rfind("--mode=", 0) == 0) {
      const std::string name = arg.substr(7);
      if (name == "enumerate") {
        options.dist_mode = DistMode::kEnumerate;
      } else if (name == "bounded") {
        options.dist_mode = DistMode::kAnalyticBounded;
      } else if (name == "moments") {
        options.dist_mode = DistMode::kAnalyticMoments;
      } else {
        std::fprintf(stderr,
                     "--mode expects enumerate|bounded|moments\n");
        return 2;
      }
      analytic = options.dist_mode != DistMode::kEnumerate;
    } else if (arg.rfind("--prune=", 0) == 0) {
      char* end = nullptr;
      options.prune_threshold = std::strtod(arg.c_str() + 8, &end);
      if (end == nullptr || *end != '\0' || options.prune_threshold < 0.0 ||
          options.prune_threshold >= 1.0) {
        std::fprintf(stderr, "--prune expects a threshold in [0, 1)\n");
        return 2;
      }
    } else {
      kept.push_back(arg);
    }
  }
  rest = std::move(kept);
  std::vector<Value> args;
  for (const std::string& text : rest) {
    auto v = ParseValueArg(text);
    if (!v.ok()) {
      std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
      return 1;
    }
    args.push_back(*v);
  }
  Evaluator evaluator(*program, options);
  if (mode == "paths") {
    auto outcomes = evaluator.Enumerate(entry, args, *profile);
    if (!outcomes.ok()) {
      return FailWith(outcomes.status());
    }
    for (const WeightedOutcome& o : *outcomes) {
      std::printf("p=%-10.6g %-16s", o.probability,
                  o.value.ToString().c_str());
      for (const auto& [name, value] : o.ecv_assignments) {
        std::printf(" %s=%s", name.c_str(), value.ToString().c_str());
      }
      std::printf("\n");
    }
    return 0;
  }
  if (analytic) {
    auto cd = evaluator.EvalCertified(entry, args, *profile);
    if (!cd.ok()) {
      return FailWith(cd.status());
    }
    std::printf("expected:     %s +/- %.6g J%s\n",
                Energy::Joules(cd->mean).ToString().c_str(),
                cd->mean_error_bound, cd->exact ? " (exact)" : "");
    std::printf("stddev:       %s\n",
                Energy::Joules(std::sqrt(cd->variance)).ToString().c_str());
    std::printf("range:        [%s, %s]\n",
                Energy::Joules(cd->min_joules).ToString().c_str(),
                Energy::Joules(cd->max_joules).ToString().c_str());
    std::printf("pruned mass:  %.6g\n", cd->pruned_mass);
    if (cd->has_distribution) {
      std::printf("distribution: %s\n", cd->distribution.ToString().c_str());
    }
    std::printf("engine:       analytic=%zu fallback=%zu\n",
                evaluator.analytic_hits(), evaluator.analytic_fallbacks());
    return 0;
  }
  auto dist = evaluator.EvalDistribution(entry, args, *profile);
  if (!dist.ok()) {
    return FailWith(dist.status());
  }
  std::printf("expected:     %s\n",
              Energy::Joules(dist->Mean()).ToString().c_str());
  std::printf("stddev:       %s\n",
              Energy::Joules(dist->Stddev()).ToString().c_str());
  std::printf("range:        [%s, %s]\n",
              Energy::Joules(dist->MinValue()).ToString().c_str(),
              Energy::Joules(dist->MaxValue()).ToString().c_str());
  std::printf("p95:          %s\n",
              Energy::Joules(dist->Quantile(0.95)).ToString().c_str());
  std::printf("distribution: %s\n", dist->ToString().c_str());
  return 0;
}

int Trace(const std::string& path, const std::string& entry,
          std::vector<std::string> rest) {
  auto source = ReadFile(path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto program = ParseProgram(*source);
  if (!program.ok()) {
    return FailWith(program.status());
  }
  std::string chrome_out;
  std::vector<std::string> kept;
  for (size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--chrome-trace") {
      if (i + 1 >= rest.size()) {
        std::fprintf(stderr, "--chrome-trace needs an output path\n");
        return 2;
      }
      chrome_out = rest[++i];
    } else {
      kept.push_back(rest[i]);
    }
  }
  rest = std::move(kept);
  auto profile = ExtractProfile(rest);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  std::vector<Value> args;
  for (const std::string& text : rest) {
    auto v = ParseValueArg(text);
    if (!v.ok()) {
      std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
      return 1;
    }
    args.push_back(*v);
  }
  auto tree = ComputeProvenance(*program, entry, args, *profile);
  if (!tree.ok()) {
    return FailWith(tree.status());
  }
  std::printf("%s", RenderProvenanceTree(*tree).c_str());
  if (!chrome_out.empty()) {
    RecordingTraceSink sink;
    EvalOptions options;
    options.trace = &sink;
    Evaluator evaluator(*program, options);
    auto outcomes = evaluator.Enumerate(entry, args, *profile);
    if (!outcomes.ok()) {
      return FailWith(outcomes.status());
    }
    std::ofstream out(chrome_out);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", chrome_out.c_str());
      return 1;
    }
    WriteChromeTrace(sink.TakeEvents(), entry, out);
    std::printf("chrome trace: %s\n", chrome_out.c_str());
  }
  return 0;
}

// Audits the entry's predicted energy against a fault-injected telemetry
// counter: a synthetic GPU runs one kernel sized so its modeled energy is
// the prediction, and an NVML-style counter — armed with the fault plan,
// wrapped in retry and a circuit breaker — measures each span. The run is
// fully deterministic in the plan's seed. Exits 4 when the breaker is open
// at the end (telemetry unavailable).
int Chaos(const std::string& path, const std::string& entry,
          std::vector<std::string> rest) {
  std::string plan_path;
  long reads = 200;
  std::vector<std::string> kept;
  for (const std::string& arg : rest) {
    if (arg.rfind("--plan=", 0) == 0) {
      plan_path = arg.substr(7);
    } else if (arg.rfind("--reads=", 0) == 0) {
      char* end = nullptr;
      reads = std::strtol(arg.c_str() + 8, &end, 10);
      if (end == nullptr || *end != '\0' || reads <= 0) {
        std::fprintf(stderr, "--reads expects a positive integer\n");
        return 2;
      }
    } else {
      kept.push_back(arg);
    }
  }
  rest = std::move(kept);

  auto source = ReadFile(path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto program = ParseProgram(*source);
  if (!program.ok()) {
    return FailWith(program.status());
  }
  auto profile = ExtractProfile(rest);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  std::vector<Value> args;
  for (const std::string& text : rest) {
    auto v = ParseValueArg(text);
    if (!v.ok()) {
      std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
      return 1;
    }
    args.push_back(*v);
  }
  Evaluator evaluator(*program);
  auto dist = evaluator.EvalDistribution(entry, args, *profile);
  if (!dist.ok()) {
    return FailWith(dist.status());
  }
  const double predicted = dist->Mean();
  if (predicted <= 0.0) {
    std::fprintf(stderr, "entry predicts non-positive energy; nothing to "
                         "audit under faults\n");
    return 1;
  }

  FaultPlanSpec plan;  // default: zero faults
  if (!plan_path.empty()) {
    auto loaded = LoadFaultPlan(plan_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    plan = *loaded;
  }

  FaultInjector injector(plan);
  GpuDevice gpu(Rtx4090LikeProfile(), plan.seed ^ 0x6a09e667ULL);
  NvmlCounter nvml(gpu);
  nvml.ArmFaults(&injector);
  TelemetryGuard guard("gpu_nvml");
  AccuracyMonitor monitor;

  // One synthetic kernel whose modeled energy equals the prediction.
  KernelStats kernel;
  kernel.name = "chaos_span";
  kernel.instructions =
      predicted / gpu.profile().energy_per_instruction.joules();

  long measured_spans = 0;
  long rejected_spans = 0;
  long failed_spans = 0;
  Energy last_read;
  bool have_baseline = false;
  for (long i = 0; i < reads; ++i) {
    gpu.ExecuteKernel(kernel);
    if (!guard.AllowRead()) {
      ++rejected_spans;
      have_baseline = false;  // the span is lost; re-baseline when healed
      continue;
    }
    Result<Energy> read = nvml.ReadWithRetry();
    if (!read.ok()) {
      guard.RecordFailure();
      ++failed_spans;
      have_baseline = false;
      continue;
    }
    guard.RecordSuccess();
    if (have_baseline) {
      monitor.Record(entry, predicted, (read.value() - last_read).joules());
      ++measured_spans;
    }
    last_read = read.value();
    have_baseline = true;
  }

  const AccuracyMonitor::SourceStats stats = monitor.Stats(entry);
  std::printf("plan:          %s\n",
              plan.armed() ? (plan_path.empty() ? "(armed)" : plan_path.c_str())
                           : "(zero faults)");
  std::printf("predicted:     %s per span\n",
              Energy::Joules(predicted).ToString().c_str());
  std::printf("spans:         %ld measured, %ld failed, %ld rejected by the "
              "breaker (of %ld)\n",
              measured_spans, failed_spans, rejected_spans, reads);
  std::printf("retries:       %llu (backoff %s)\n",
              static_cast<unsigned long long>(nvml.retries()),
              nvml.backoff_spent().ToString().c_str());
  std::printf("mean |error|:  %.3f%%  (window %.3f%%, max %.3f%%)%s\n",
              stats.mean_abs_rel_error * 100.0,
              stats.windowed_abs_rel_error * 100.0,
              stats.max_abs_rel_error * 100.0,
              stats.drift_alarm ? "  [DRIFT]" : "");
  std::printf("breaker:       %s (%llu transitions)\n",
              TelemetryGuard::StateName(guard.state()),
              static_cast<unsigned long long>(guard.transitions()));
  for (const std::string& line : guard.transition_log()) {
    std::printf("  %s\n", line.c_str());
  }
  if (guard.open()) {
    std::fprintf(stderr, "telemetry unavailable: circuit open at end of run "
                         "(exit 4)\n");
    return 4;
  }
  return 0;
}

// Profiles the bytecode VM: evaluates the entry --repeat times with the
// sampling VmProfiler attached and prints the hot-opcode / hot-site /
// per-interface tables. The evaluator's fold slot is switched off so every
// repeat actually executes the VM (a slot hit would profile nothing),
// and the profiler's own cost is charged to the ObsBudget by the
// merge path, so the run also demonstrates the telemetry overhead story.
int Profile(const std::string& path, const std::string& entry,
            std::vector<std::string> rest) {
  long repeat = 1000;
  long sample = 8;
  std::vector<std::string> kept;
  for (const std::string& arg : rest) {
    auto parse_long = [&arg](const char* flag, long* out) {
      const size_t len = std::strlen(flag);
      if (arg.rfind(flag, 0) != 0) {
        return false;
      }
      char* end = nullptr;
      const long v = std::strtol(arg.c_str() + len, &end, 10);
      *out = (end == nullptr || *end != '\0' || v <= 0) ? 0 : v;
      return true;
    };
    if (parse_long("--repeat=", &repeat) || parse_long("--sample=", &sample)) {
      continue;
    }
    kept.push_back(arg);
  }
  if (repeat == 0 || sample == 0) {
    std::fprintf(stderr, "--repeat/--sample expect positive integers\n");
    return 2;
  }
  rest = std::move(kept);

  auto source = ReadFile(path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto program = ParseProgram(*source);
  if (!program.ok()) {
    return FailWith(program.status());
  }
  auto profile = ExtractProfile(rest);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  std::vector<Value> args;
  for (const std::string& text : rest) {
    auto v = ParseValueArg(text);
    if (!v.ok()) {
      std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
      return 1;
    }
    args.push_back(*v);
  }

  EvalOptions options;
  options.engine = EvalEngine::kBytecode;
  options.enum_cache_capacity = 0;
  VmProfiler profiler(static_cast<uint32_t>(sample));
  options.vm_profiler = &profiler;
  Evaluator evaluator(*program, options);
  double expected = 0.0;
  for (long i = 0; i < repeat; ++i) {
    auto dist = evaluator.EvalDistribution(entry, args, *profile);
    if (!dist.ok()) {
      return FailWith(dist.status());
    }
    expected = dist->Mean();
  }
  const VmProfiler::Snapshot snap = profiler.TakeSnapshot();
  if (snap.dispatches == 0) {
    std::fprintf(stderr,
                 "bytecode VM never ran (compilation fell back to the tree "
                 "walk); nothing to profile\n");
    return 1;
  }
  std::printf("entry:        %s -> %s expected\n", entry.c_str(),
              Energy::Joules(expected).ToString().c_str());
  std::printf("repeats:      %ld (sample interval %ld, timer overhead "
              "%.1f ns)\n",
              repeat, sample, profiler.timer_overhead_ns());
  std::printf("%s", FormatVmProfile(snap).c_str());
  ObsBudget::Global().Publish();
  return 0;
}

// Bounds on `eilc serve`'s counts, checked before anything is allocated or
// a thread starts: the run keeps one fingerprint per query in memory.
constexpr size_t kMaxServeThreads = 256;
constexpr size_t kMaxServeRequests = 65536;  // per thread

// Drives the concurrent QueryService the way a resource manager would: N
// client threads each issue M queries against one published snapshot. The
// mix is mostly exact expectations with an exact distribution every 16th
// query and a Monte Carlo run (seeded by the global query index) every
// 64th. Every outcome is fingerprinted; after the concurrent run, a
// single-threaded replay through a fresh service must reproduce every
// fingerprint bit for bit — the service's determinism contract. Exits 5
// when any fingerprint diverges.
int Serve(const std::string& path, const std::string& entry,
          std::vector<std::string> rest) {
  size_t threads = 4;
  size_t requests = 256;
  size_t batch = 1;
  bool journal = false;
  std::string journal_out;
  QueryService::Options svc_options;
  if (const int rc = ExtractEngine(rest, &svc_options.eval.engine); rc != 0) {
    return rc;
  }
  std::vector<std::string> kept;
  for (const std::string& arg : rest) {
    if (arg == "--journal") {
      journal = true;
      continue;
    }
    if (arg.rfind("--journal=", 0) == 0) {
      journal = true;
      journal_out = arg.substr(10);
      continue;
    }
    // A value outside [1, max], an overflowing one included, leaves 0 for
    // the usage check below.
    auto parse_size = [&arg](const char* flag, size_t max, size_t* out) {
      const size_t len = std::strlen(flag);
      if (arg.rfind(flag, 0) != 0) {
        return false;
      }
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(arg.c_str() + len, &end, 10);
      if (end == nullptr || *end != '\0' || errno == ERANGE || v <= 0 ||
          static_cast<unsigned long long>(v) > max) {
        *out = 0;  // flag matched but value bad; caller reports usage
      } else {
        *out = static_cast<size_t>(v);
      }
      return true;
    };
    if (parse_size("--threads=", kMaxServeThreads, &threads) ||
        parse_size("--requests=", kMaxServeRequests, &requests) ||
        parse_size("--batch=", SIZE_MAX, &batch)) {
      continue;
    }
    kept.push_back(arg);
  }
  if (threads == 0 || requests == 0 || batch == 0) {
    std::fprintf(stderr,
                 "--threads/--requests/--batch expect positive integers "
                 "(--threads at most %zu, --requests at most %zu)\n",
                 kMaxServeThreads, kMaxServeRequests);
    return 2;
  }
  rest = std::move(kept);

  auto source = ReadFile(path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto program = ParseProgram(*source);
  if (!program.ok()) {
    return FailWith(program.status());
  }
  auto profile = ExtractProfile(rest);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  std::vector<Value> args;
  for (const std::string& text : rest) {
    auto v = ParseValueArg(text);
    if (!v.ok()) {
      std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
      return 1;
    }
    args.push_back(*v);
  }

  auto make_service = [&]() {
    return QueryService::Create(program->Clone(), svc_options, *profile);
  };
  // A fallback counted while Create builds the snapshot evaluator means the
  // tree walk serves, whatever --engine asked for.
  const Counter& compile_fallbacks = MetricsRegistry::Global().GetCounter(
      "eclarity_eval_bytecode_fallback_total");
  const uint64_t compile_fallbacks_before = compile_fallbacks.value();
  auto service = make_service();
  if (!service.ok()) {
    return FailWith(service.status());
  }
  const bool compile_fallback =
      compile_fallbacks.value() != compile_fallbacks_before;

  // The request log is a pure function of the global query index, so the
  // replay can regenerate it without any shared state.
  auto query_at = [&](size_t global) {
    Query query;
    query.interface = entry;
    query.args = args;
    if (global % 64 == 0) {
      query.kind = QueryKind::kMonteCarlo;
      query.seed = global;
      query.samples = 256;
    } else if (global % 16 == 0) {
      query.kind = QueryKind::kDistribution;
    } else {
      query.kind = QueryKind::kExpected;
    }
    return query;
  };

  // Concurrent run: per-(thread, request) fingerprints; errors abort the
  // serve (first status wins) rather than feeding the determinism check.
  std::vector<std::vector<std::string>> fingerprints(threads);
  std::vector<Status> failures(threads, OkStatus());
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::vector<std::string>& out = fingerprints[t];
        out.reserve(requests);
        std::vector<Query> pending;
        for (size_t i = 0; i < requests; ++i) {
          pending.push_back(query_at(t * requests + i));
          const bool flush = pending.size() == batch || i + 1 == requests;
          if (!flush) {
            continue;
          }
          for (auto& result : (*service)->EvaluateBatch(pending)) {
            if (!result.ok()) {
              if (failures[t].ok()) {
                failures[t] = result.status();
              }
              return;
            }
            out.push_back(result->Fingerprint());
          }
          pending.clear();
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const Status& status : failures) {
    if (!status.ok()) {
      return FailWith(status);
    }
  }

  // Single-threaded replay through a fresh service; every fingerprint must
  // match the concurrent run.
  auto replay = make_service();
  if (!replay.ok()) {
    return FailWith(replay.status());
  }
  size_t divergences = 0;
  for (size_t t = 0; t < threads; ++t) {
    for (size_t i = 0; i < requests; ++i) {
      auto result = (*replay)->Dispatch(query_at(t * requests + i));
      if (!result.ok()) {
        return FailWith(result.status());
      }
      if (result->Fingerprint() != fingerprints[t][i]) {
        ++divergences;
      }
    }
  }

  const size_t total = threads * requests;
  std::printf("served:       %zu queries (%zu threads x %zu, batch %zu)\n",
              total, threads, requests, batch);
  std::printf("engine:       %s\n",
              compile_fallback ? "tree (bytecode compile fallback)"
                               : EngineName(svc_options.eval.engine));
  std::printf("throughput:   %.0f queries/s over %.3f s\n",
              elapsed > 0.0 ? total / elapsed : 0.0, elapsed);
  const QueryService::CacheStats stats = (*service)->TotalCacheStats();
  std::printf("fold front:   %llu lookups, %llu hits, %llu misses, "
              "%llu evictions\n",
              static_cast<unsigned long long>(stats.lookups()),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions));
  std::printf("determinism:  %zu/%zu fingerprints match the single-threaded "
              "replay\n",
              total - divergences, total);
  // Sampled per-kind latency percentiles (the serve summary line the docs
  // promise). Kinds that never sampled a query print nothing.
  for (const char* kind : {"expected", "distribution", "montecarlo",
                           "sample"}) {
    const LatencyHistogram& hist = MetricsRegistry::Global().GetLatencyHistogram(
        std::string("eclarity_svc_latency_ns_") + kind);
    if (hist.Count() == 0) {
      continue;
    }
    std::printf("latency:      %-12s p50 %llu ns, p90 %llu ns, p99 %llu ns, "
                "p99.9 %llu ns (%llu sampled)\n",
                kind,
                static_cast<unsigned long long>(hist.QuantileNs(0.5)),
                static_cast<unsigned long long>(hist.QuantileNs(0.9)),
                static_cast<unsigned long long>(hist.QuantileNs(0.99)),
                static_cast<unsigned long long>(hist.QuantileNs(0.999)),
                static_cast<unsigned long long>(hist.Count()));
  }
  ObsBudget::Global().Publish();
  std::printf("obs overhead: %.6f of observed work "
              "(eclarity_obs_overhead_ratio; budget < 0.01)\n",
              ObsBudget::Global().OverheadRatio());
  if (journal) {
    const std::vector<JournalEvent> events = Journal::Global().Drain();
    std::printf("journal:      %zu events drained (%llu recorded, %llu "
                "dropped to ring wraps)\n",
                events.size(),
                static_cast<unsigned long long>(
                    Journal::Global().TotalRecorded()),
                static_cast<unsigned long long>(
                    Journal::Global().TotalDropped()));
    if (!journal_out.empty()) {
      std::ofstream out(journal_out);
      if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", journal_out.c_str());
        return 1;
      }
      WriteJournalChromeTrace(events, out);
      std::printf("journal trace: %s\n", journal_out.c_str());
    } else {
      std::printf("%s", FormatJournal(events).c_str());
    }
  }
  std::printf("\n--- metrics (Prometheus text) ---\n%s",
              MetricsRegistry::Global().ToPrometheusText().c_str());
  if (divergences > 0) {
    std::fprintf(stderr,
                 "determinism violation: %zu of %zu outcomes diverged from "
                 "the single-threaded replay (exit 5)\n",
                 divergences, total);
    return 5;
  }
  return 0;
}

int Bounds(const std::string& path, const std::string& entry,
           const std::vector<std::string>& rest) {
  auto source = ReadFile(path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto program = ParseProgram(*source);
  if (!program.ok()) {
    return FailWith(program.status());
  }
  std::vector<IntervalValue> args;
  for (const std::string& text : rest) {
    Result<IntervalValue> arg = ParseIntervalArg(text);
    if (!arg.ok()) {
      std::fprintf(stderr, "%s\n", arg.status().ToString().c_str());
      return 1;
    }
    args.push_back(*std::move(arg));
  }
  IntervalEvaluator evaluator(*program);
  auto bounds = evaluator.EvalInterval(entry, args);
  if (!bounds.ok()) {
    std::fprintf(stderr, "%s\n", bounds.status().ToString().c_str());
    return 1;
  }
  std::printf("guaranteed bounds: [%s, %s]\n",
              Energy::Joules(bounds->lo_joules).ToString().c_str(),
              Energy::Joules(bounds->hi_joules).ToString().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string command = argv[1];
  const std::string path = argv[2];
  if (command == "check") {
    return Check(path);
  }
  if (command == "print") {
    return Print(path);
  }
  if (argc < 4) {
    return Usage();
  }
  const std::string entry = argv[3];
  std::vector<std::string> rest(argv + 4, argv + argc);
  if (command == "eval" || command == "paths") {
    return EvalOrPaths(command, path, entry, std::move(rest));
  }
  if (command == "trace") {
    return Trace(path, entry, std::move(rest));
  }
  if (command == "chaos") {
    return Chaos(path, entry, std::move(rest));
  }
  if (command == "profile") {
    return Profile(path, entry, std::move(rest));
  }
  if (command == "serve") {
    return Serve(path, entry, std::move(rest));
  }
  if (command == "bounds") {
    return Bounds(path, entry, rest);
  }
  return Usage();
}

}  // namespace
}  // namespace eclarity

int main(int argc, char** argv) { return eclarity::Main(argc, argv); }
