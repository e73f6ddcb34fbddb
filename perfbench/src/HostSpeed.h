//===- HostSpeed.h - A fixed reference workload for host speed ---*- C++ -*-===//
//
// The CPU time of the same compile moves by tens of percent on a shared
// host, over minutes, as other tenants load the caches, memory and branch
// predictors of the cores this one shares. The reference workload is
// fixed, compiler-like work that uses none of the program: it compiles a
// few std::regex patterns and matches them over a fixed text, and builds
// and evaluates small expression trees of virtual nodes over a std::map
// of string-named variables. It slows down with the host much as the
// compile does (README, Noise), while simple loops such as a pointer
// chase or a sort do not. The benchmark runs one chunk of it right before
// each compile-service call, and divides the host's slowdown over a pass,
// the chunks' CPU time over their nominal time, out of the pass's CPU
// time.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

#include <cstdint>
#include <string>

namespace perfbench {

class ReferenceWork {
public:
  /// Thread CPU seconds of one chunk on the host the benchmark's times
  /// are expressed for: about the median chunk on the 4-vCPU VM the
  /// benchmark was built on (README, Noise).
  static constexpr double NominalChunkS = 0.0015;

  ReferenceWork();

  /// Runs one chunk of the fixed work and returns its thread CPU seconds.
  /// Every chunk does the same work; a chunk whose checksum differs from
  /// the first one's sets failed().
  double chunk();
  bool failed() const { return Failed; }

private:
  std::string Text;
  uint64_t FirstSum = 0;
  bool HaveSum = false;
  bool Failed = false;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
