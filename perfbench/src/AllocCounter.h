//===- AllocCounter.h - Exact heap-allocation counting -----------*- C++ -*-===//
//
// The benchmark replaces the global operator new/delete (AllocCounter.cpp),
// so every heap allocation the program makes while counting is on is seen
// here, from outside the program. Counting is process-wide; the benchmark
// runs the compile service with one job, so only its own thread allocates.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ALLOCCOUNTER_H
#define PERFBENCH_ALLOCCOUNTER_H

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  uint64_t Count = 0;
  uint64_t Bytes = 0;
};

/// Counts every allocation until the returned scope's totals are read.
class AllocScope {
public:
  AllocScope();
  ~AllocScope();
  AllocScope(const AllocScope &) = delete;
  AllocScope &operator=(const AllocScope &) = delete;

  /// Allocations since construction (stops counting on the first call).
  AllocTotals stop();

private:
  AllocTotals Start;
  bool Running = true;
};

} // namespace perfbench

#endif // PERFBENCH_ALLOCCOUNTER_H
