#include "src/sched/eas.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "src/hw/vendor.h"
#include "src/lang/parser.h"

namespace eclarity {
namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Keep in sync with CpuDevice's MemoryStallModel defaults.
constexpr double kThroughputFloor = 0.25;
constexpr double kPowerFloor = 0.55;

}  // namespace

int CoreKindOf(const CpuProfile& profile, int core_index) {
  int base = 0;
  for (size_t cluster = 0; cluster < profile.clusters.size(); ++cluster) {
    base += profile.clusters[cluster].core_count;
    if (core_index < base) {
      return static_cast<int>(cluster);
    }
  }
  return static_cast<int>(profile.clusters.size()) - 1;
}

Result<Program> TaskEnergyInterface(const Task& task,
                                    const CpuProfile& profile,
                                    Duration quantum) {
  if (task.pattern.empty()) {
    return InvalidArgumentError("task has an empty demand pattern");
  }
  std::ostringstream os;
  os << "# Energy interface for task '" << task.name
     << "' on CPU '" << profile.name << "'.\n";

  // Per-core-type quantum cost with feasibility penalty.
  for (const CpuCluster& cluster : profile.clusters) {
    const CoreTypeSpec& type = cluster.type;
    os << "interface E_quantum_on_" << type.name << "(ops, mi, opp) {\n"
       << "  let mut rate = "
       << Num(type.opps.back().frequency_hz * type.ops_per_cycle) << ";\n";
    for (size_t i = 0; i < type.opps.size(); ++i) {
      os << "  " << (i == 0 ? "if" : "else if") << " (opp == " << i << ") {\n"
         << "    rate = "
         << Num(type.opps[i].frequency_hz * type.ops_per_cycle) << ";\n"
         << "  }\n";
    }
    os << "  let eff_rate = rate * (1 - mi * " << Num(1.0 - kThroughputFloor)
       << ");\n"
       << "  let capacity = eff_rate * " << Num(quantum.seconds()) << ";\n"
       << "  let run_ops = min(ops, capacity);\n"
       << "  let energy = E_" << type.name << "_run(run_ops, mi, opp) + E_"
       << type.name << "_idle(" << Num(quantum.seconds()) << ");\n"
       << "  return ops <= capacity ? energy : energy + 1kJ;\n"
       << "}\n";
  }

  // The task's demand pattern, cycled by quantum index: one flat `if` per
  // run of equal demand, so the source nests no deeper for a longer
  // pattern (an `else if` chain nests one level per phase).
  const size_t period = task.pattern.size();
  os << "interface E_task_" << task.name << "_quantum(q, core_kind, opp) {\n"
     << "  let phase = q % " << period << ";\n"
     << "  let mut ops = 0;\n"
     << "  let mut mi = 0;\n";
  for (size_t lo = 0; lo < period;) {
    const std::string ops = Num(task.pattern[lo].ops);
    const std::string mi = Num(task.pattern[lo].memory_intensity);
    size_t hi = lo + 1;
    while (hi < period && Num(task.pattern[hi].ops) == ops &&
           Num(task.pattern[hi].memory_intensity) == mi) {
      ++hi;
    }
    os << "  if (phase >= " << lo << " && phase < " << hi << ") {\n"
       << "    ops = " << ops << ";\n"
       << "    mi = " << mi << ";\n"
       << "  }\n";
    lo = hi;
  }
  for (size_t cluster = 0; cluster < profile.clusters.size(); ++cluster) {
    os << "  " << (cluster == 0 ? "if" : "else if") << " (core_kind == "
       << cluster << ") {\n"
       << "    return E_quantum_on_" << profile.clusters[cluster].type.name
       << "(ops, mi, opp);\n"
       << "  }\n";
  }
  // Unknown kind: charge the first cluster's cost (callers never hit this).
  os << "  return E_quantum_on_" << profile.clusters[0].type.name
     << "(ops, mi, opp);\n"
     << "}\n";
  return ParseProgram(os.str());
}

// --- Utilization-proxy baseline ---------------------------------------------

UtilizationEasScheduler::UtilizationEasScheduler(const CpuProfile& profile,
                                                 Duration quantum,
                                                 double ewma_alpha)
    : profile_(profile), quantum_(quantum), alpha_(ewma_alpha) {}

Result<Placement> UtilizationEasScheduler::Place(
    const Task& task, int quantum, double history_utilization,
    const CpuDevice& device, const std::vector<bool>& used_cores) {
  // Update the demand estimate from observed utilisation on the core we
  // placed the task on last time (this is all EAS can see).
  double& ewma = ewma_ops_[task.name];
  const auto last = last_placement_.find(task.name);
  if (quantum == 0 || last == last_placement_.end()) {
    // Cold start: assume the task may need the biggest core flat out.
    double max_rate = 0.0;
    for (const CpuCluster& cluster : profile_.clusters) {
      max_rate = std::max(max_rate, cluster.type.opps.back().frequency_hz *
                                        cluster.type.ops_per_cycle);
    }
    ewma = max_rate * quantum_.seconds();
  } else {
    const CpuCluster& cluster =
        profile_.clusters[static_cast<size_t>(CoreKindOf(
            profile_, last->second.core))];
    const double rate =
        cluster.type.opps[static_cast<size_t>(last->second.opp)].frequency_hz *
        cluster.type.ops_per_cycle;
    const double observed_ops =
        history_utilization * rate * quantum_.seconds();
    ewma = alpha_ * observed_ops + (1.0 - alpha_) * ewma;
  }

  // Cheapest feasible candidate under the estimate (memory intensity is
  // invisible to the proxy; it assumes compute-bound work).
  double best_energy = std::numeric_limits<double>::infinity();
  Placement best{-1, 0};
  int core_base = 0;
  for (size_t cluster_idx = 0; cluster_idx < profile_.clusters.size();
       ++cluster_idx) {
    const CpuCluster& cluster = profile_.clusters[cluster_idx];
    // One representative free core per cluster is enough (cores identical).
    int core = -1;
    for (int c = core_base; c < core_base + cluster.core_count; ++c) {
      if (!used_cores[static_cast<size_t>(c)]) {
        core = c;
        break;
      }
    }
    core_base += cluster.core_count;
    if (core < 0) {
      continue;
    }
    for (size_t opp = 0; opp < cluster.type.opps.size(); ++opp) {
      const OperatingPoint& point = cluster.type.opps[opp];
      const double rate = point.frequency_hz * cluster.type.ops_per_cycle;
      const double capacity = rate * quantum_.seconds();
      const double run_ops = std::min(ewma, capacity);
      const double busy_s = run_ops / rate;
      double energy = point.dynamic_power.watts() * busy_s +
                      cluster.type.idle_power.watts() * quantum_.seconds();
      if (ewma > capacity) {
        energy += 1000.0;  // infeasible under the estimate
      }
      if (energy < best_energy) {
        best_energy = energy;
        best = {core, static_cast<int>(opp), energy};
      }
    }
  }
  if (best.core < 0) {
    return ResourceExhaustedError("no free core for task '" + task.name + "'");
  }
  last_placement_[task.name] = best;
  (void)device;
  return best;
}

// --- Interface-driven scheduler -----------------------------------------------

InterfaceEasScheduler::InterfaceEasScheduler(
    CpuProfile profile, std::unique_ptr<QueryService> service)
    : profile_(std::move(profile)), service_(std::move(service)) {}

Result<std::unique_ptr<InterfaceEasScheduler>> InterfaceEasScheduler::Create(
    const std::vector<Task>& tasks, const CpuProfile& profile,
    Duration quantum) {
  ECLARITY_ASSIGN_OR_RETURN(Program merged, CpuVendorInterface(profile));
  for (const Task& task : tasks) {
    ECLARITY_ASSIGN_OR_RETURN(Program task_program,
                              TaskEnergyInterface(task, profile, quantum));
    // Per-cluster helper interfaces repeat across tasks; overwrite merges
    // the identical definitions.
    ECLARITY_RETURN_IF_ERROR(merged.Merge(task_program, /*overwrite=*/true));
  }
  ECLARITY_ASSIGN_OR_RETURN(std::unique_ptr<QueryService> service,
                            QueryService::Create(std::move(merged)));
  return std::unique_ptr<InterfaceEasScheduler>(
      new InterfaceEasScheduler(profile, std::move(service)));
}

Result<Placement> InterfaceEasScheduler::Place(
    const Task& task, int quantum, double /*history_utilization*/,
    const CpuDevice& device, const std::vector<bool>& used_cores) {
  // Collect every candidate placement (cluster x OPP, first free core per
  // cluster) and score them all in ONE EvaluateBatch — one snapshot
  // acquisition and one grouped SoA pass for the fold-cache misses —
  // instead of a full dispatch per candidate. The service is thread-safe,
  // so concurrent Place() calls need no lock here.
  const int phase = quantum % static_cast<int>(task.pattern.size());
  const std::string interface = "E_task_" + task.name + "_quantum";
  struct Candidate {
    int core;
    int opp;
  };
  std::vector<Candidate> candidates;
  std::vector<Query> queries;
  int core_base = 0;
  for (size_t cluster_idx = 0; cluster_idx < profile_.clusters.size();
       ++cluster_idx) {
    const CpuCluster& cluster = profile_.clusters[cluster_idx];
    int core = -1;
    for (int c = core_base; c < core_base + cluster.core_count; ++c) {
      if (!used_cores[static_cast<size_t>(c)]) {
        core = c;
        break;
      }
    }
    core_base += cluster.core_count;
    if (core < 0) {
      continue;
    }
    for (size_t opp = 0; opp < cluster.type.opps.size(); ++opp) {
      candidates.push_back({core, static_cast<int>(opp)});
      Query query;
      query.interface = interface;
      query.args = {Value::Number(static_cast<double>(phase)),
                    Value::Number(static_cast<double>(cluster_idx)),
                    Value::Number(static_cast<double>(opp))};
      queries.push_back(std::move(query));
    }
  }
  if (candidates.empty()) {
    return ResourceExhaustedError("no free core for task '" + task.name + "'");
  }
  const std::vector<Result<QueryOutcome>> outcomes =
      service_->EvaluateBatch(queries);

  // Candidate order is batch order: the first failing outcome is the error
  // a candidate-at-a-time loop would return, and strict `<` keeps its
  // tie-breaking exactly.
  double best_energy = std::numeric_limits<double>::infinity();
  Placement best{-1, 0};
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!outcomes[i].ok()) {
      return outcomes[i].status();
    }
    const double energy = outcomes[i]->joules;
    if (energy < best_energy) {
      best_energy = energy;
      best = {candidates[i].core, candidates[i].opp, energy};
    }
  }
  best.uncertainty_joules =
      best.predicted_joules *
      (telemetry_degraded_ ? kDegradedUncertainty : kBaseUncertainty);
  (void)device;
  return best;
}

}  // namespace eclarity
