//===- Traced.h - The traced run: each layer called directly -----*- C++ -*-===//
//
// The traced run compiles every function twice more besides the compile
// service's own path: once by calling each layer's public functions
// directly (interpreter training, applyProfile, the standard pipeline,
// runDBDS, evaluation) with CPU time, allocations and counter deltas read
// around each call, and once more the same way with the program's
// TraceSession attached and the benchmark's own spans recorded, whose
// folded self times split the cost by layer. Both direct paths must give
// the service path's code size, cycles and result hash for every function.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

#include "Workloads.h"

namespace perfbench {

struct TracedOptions {
  unsigned Seconds = 1;
  /// CPU seconds spent generating the workload during set-up.
  double GenerateCpuS = 0.0;
  /// Where the benchmark's spans and the folded program spans are written
  /// ("" = not written).
  std::string SpansPath;
  std::string FoldedPath;
  /// Self-test hook: corrupt one direct-path result hash so the
  /// direct-versus-service check must fail.
  bool PerturbDirect = false;
};

RunResult runTraced(std::vector<Bench> &Benches, const WorkloadInfo &WI,
                    const TracedOptions &Opts);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H
