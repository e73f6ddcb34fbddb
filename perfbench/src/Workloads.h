//===- Workloads.h - The benchmark's workloads and references ----*- C++ -*-===//
//
// Builds the three workloads from the seed argument, snapshots every
// function before it is compiled, and computes each function's reference
// result by interpreting its unoptimized IR. Also holds the per-function
// output check shared by the untraced and the traced run.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "AllocCounter.h"

#include "workloads/CompileService.h"

#include <memory>
#include <string>
#include <vector>

namespace dbds {
class Interpreter;
} // namespace dbds

namespace perfbench {

struct WorkloadInfo {
  const char *Name;
  dbds::RunConfig Config;
};

/// The workloads by name; null when \p Name is not one of them.
const WorkloadInfo *findWorkload(const std::string &Name);

/// Seed 0 reproduces the paper suites exactly; any other seed perturbs
/// every benchmark's generator seed.
std::vector<dbds::BenchmarkSpec> workloadSpecs(const WorkloadInfo &WI,
                                               uint64_t Seed);

/// One generated benchmark with its pristine functions and references.
struct Bench {
  std::string Name;
  dbds::GeneratedWorkload W;
  std::vector<std::unique_ptr<dbds::Function>> Pristine;
  /// Result hash of interpreting the unoptimized function on its
  /// evaluation inputs, folded like the compile service folds its own.
  std::vector<uint64_t> RefHash;
  /// Code size at DBDS entry (after the standard pipeline), filled in by
  /// the untraced run's baseline pass; 0 means no growth budget is checked
  /// on the service's outcomes (a baseline workload, or the traced run,
  /// whose direct path checks its own entry size).
  std::vector<uint64_t> EntrySize;

  /// Puts every function back to its pristine, uncompiled IR.
  void restore();
};

/// Generates every benchmark, snapshots it and computes the references.
/// Adds the thread CPU seconds spent in generateWorkload to \p GenCpuS.
std::vector<Bench> prepareBenches(const std::vector<dbds::BenchmarkSpec> &Specs,
                                  double &GenCpuS);

/// Runs \p F on each of \p Inputs the way the compile service evaluates it
/// and returns the folded result hash; adds dynamic cycles to \p Cycles.
/// Clears \p Ok when a run does not terminate.
uint64_t evaluate(dbds::Interpreter &Interp, dbds::Function &F,
                  const std::vector<std::vector<int64_t>> &Inputs,
                  uint64_t &Cycles, bool &Ok);

/// The growth budget of paper §5.4: code size after DBDS stays below
/// 1.5x the size at DBDS entry.
bool withinGrowthBudget(uint64_t Size, uint64_t EntrySize);

/// Why one compile-service outcome is wrong, or "" when it is right.
std::string checkOutcome(const dbds::FunctionCompileOutcome &O,
                         uint64_t RefHash, uint64_t EntrySize);

/// One end-to-end or per-layer metric as the benchmark prints it.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What a run reports: its verdict, its operations and its metrics.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  /// Records one operation; \p Problem is "" when it succeeded.
  void operation(const std::string &Where, const std::string &Problem);
  /// Records a check that is not about one operation; fails the run.
  void inconsistent(const std::string &What);
};

/// One compile-service call over every function of a benchmark, restored
/// to pristine IR first: thread CPU seconds and heap allocations inside
/// the call, and the batch it returned.
struct ServiceCall {
  double CpuS = 0.0;
  AllocTotals Allocs;
  dbds::CompileBatch Batch;
};
ServiceCall callService(dbds::CompileService &Service, Bench &B,
                        dbds::RunConfig Config);

/// Checks every outcome of \p Call against \p B's references and growth
/// budget, one operation per function.
void checkCall(const Bench &B, const ServiceCall &Call, RunResult &R);

/// The median of \p V (which must not be empty).
double medianOf(std::vector<double> V);

/// Seconds of CPU time of the calling thread / of the whole process.
double threadCpuS();
double processCpuS();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
