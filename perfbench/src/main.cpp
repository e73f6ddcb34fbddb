//===- main.cpp - The DBDS benchmark ---------------------------------------===//
//
// dbds-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--out-dir DIR] [--perturb reference|growth|direct]
//
// Set-up generates the workload from the seed and interprets every
// function's unoptimized IR for its reference results. With --trace 0 the
// run then compiles the whole workload through the compile service
// (compileFunctionsParallel, one job) in whole passes for S seconds, after
// one untimed warm-up pass, and prints the end-to-end metrics. Chunks of a
// fixed reference workload (HostSpeed.h) run between the service calls, so
// that the host's slowdown can be divided out of the calls' CPU time. With
// --trace 1 it prints the per-layer metrics of the traced run (Traced.h).
// The last line of standard output is one JSON object; the exit code is 0
// only when every operation and every check passed. --perturb breaks one
// check on purpose, for the self-test.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "Traced.h"
#include "Workloads.h"

#include "support/Statistics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/resource.h>

using namespace dbds;
using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  int Trace = -1;
  std::string OutDir;
  std::string Perturb;
};

int usage(const char *Why) {
  fprintf(stderr,
          "perfbench: %s\nusage: dbds-perfbench --workload "
          "suites-baseline|suites-dbds|large-units-dbds --seed N --seconds S "
          "--trace 0|1 [--out-dir DIR] [--perturb reference|growth|direct]\n",
          Why);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  if (!*S || *S == '-')
    return false;
  Out = strtoull(S, &End, 10);
  return *End == '\0';
}

/// The untraced run: entry sizes, warm-up, then timed passes.
RunResult runUntraced(std::vector<Bench> &Benches, const WorkloadInfo &WI,
                      unsigned Seconds, bool PerturbGrowth) {
  RunResult R;
  CompileService Service(1);

  // A baseline compile stops exactly where DBDS starts, so its code sizes
  // are the DBDS-entry sizes the growth budget is measured against.
  if (WI.Config != RunConfig::Baseline)
    for (Bench &B : Benches) {
      ServiceCall Call = callService(Service, B, RunConfig::Baseline);
      for (size_t I = 0; I != Call.Batch.Outcomes.size(); ++I)
        B.EntrySize[I] = Call.Batch.Outcomes[I].CodeSize;
    }
  for (Bench &B : Benches) // warm-up, not timed and not counted
    callService(Service, B, WI.Config);

  // Reference chunks run before every call and once after the last, at
  // least 64 per pass: Ref[B][P] is the CPU time of those before call B of
  // pass P, and Ref[Benches.size()][P] of those after the pass.
  ReferenceWork Work;
  const size_t Chunks = (Benches.size() + 63) / Benches.size();
  auto RunChunks = [&] {
    double S = 0;
    for (size_t C = 0; C != Chunks; ++C)
      S += Work.chunk();
    return S;
  };
  std::vector<std::vector<double>> Cpu(Benches.size());
  std::vector<std::vector<double>> Ref(Benches.size() + 1);
  std::vector<double> PassAllocs, PassBytes;
  uint64_t CodeSize = 0;
  double PeakCycles = 0;
  const auto Start = std::chrono::steady_clock::now();
  do {
    AllocTotals Allocs;
    uint64_t Code = 0;
    std::vector<double> Cycles;
    for (size_t B = 0; B != Benches.size(); ++B) {
      Ref[B].push_back(RunChunks());
      ServiceCall Call = callService(Service, Benches[B], WI.Config);
      if (PerturbGrowth && B == 0)
        Call.Batch.Outcomes[0].CodeSize = Benches[0].EntrySize[0] * 2;
      checkCall(Benches[B], Call, R);
      Cpu[B].push_back(Call.CpuS);
      Allocs.Count += Call.Allocs.Count;
      Allocs.Bytes += Call.Allocs.Bytes;
      uint64_t BenchCycles = 0;
      for (const FunctionCompileOutcome &O : Call.Batch.Outcomes) {
        Code += O.CodeSize;
        BenchCycles += O.DynamicCycles;
      }
      Cycles.push_back(static_cast<double>(BenchCycles));
    }
    Ref[Benches.size()].push_back(RunChunks());
    const double Peak = geometricMean(ArrayRef<double>(Cycles));
    if (PassAllocs.empty()) {
      CodeSize = Code;
      PeakCycles = Peak;
    } else if (Code != CodeSize || Peak != PeakCycles) {
      R.inconsistent("code size or cycles changed between passes");
    }
    PassAllocs.push_back(static_cast<double>(Allocs.Count));
    PassBytes.push_back(static_cast<double>(Allocs.Bytes));
  } while (std::chrono::steady_clock::now() - Start <
           std::chrono::seconds(Seconds));

  // Each call's CPU time is divided by the host's slowdown around it: the
  // reference chunks just before and just after it, over their nominal
  // time. The work of a pass repeats exactly (its allocation count does),
  // so what is left above a benchmark's fastest pass is still noise. Per
  // benchmark, take that fastest pass; their sum is the cost of one pass.
  const double NominalS = 2.0 * static_cast<double>(Chunks) *
                          ReferenceWork::NominalChunkS;
  double ServiceCpu = 0;
  std::vector<double> Slowdown;
  for (size_t B = 0; B != Cpu.size(); ++B) {
    double Fastest = 0;
    for (size_t P = 0; P != Cpu[B].size(); ++P) {
      const double Slow = (Ref[B][P] + Ref[B + 1][P]) / NominalS;
      const double Scaled = Cpu[B][P] / Slow;
      Fastest = P == 0 ? Scaled : std::min(Fastest, Scaled);
      Slowdown.push_back(Slow);
    }
    ServiceCpu += Fastest;
  }
  if (Work.failed())
    R.inconsistent("the reference work's result changed between chunks");
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);

  R.Metrics = {
      {"service_cpu_s", ServiceCpu, "s"},
      {"service_allocs", medianOf(PassAllocs), "count"},
      {"service_alloc_mb", medianOf(PassBytes) / 1e6, "MB"},
      {"peak_cycles", PeakCycles, "cycles"},
      {"code_size", static_cast<double>(CodeSize), "size_units"},
      {"peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024.0, "MB"},
  };
  fprintf(stderr, "perfbench: %zu pass(es); allocations per pass:",
          PassAllocs.size());
  for (double A : PassAllocs)
    fprintf(stderr, " %.0f", A);
  fprintf(stderr, "\nperfbench: CPU seconds per pass:");
  for (size_t P = 0; P != PassAllocs.size(); ++P) {
    double Sum = 0;
    for (const auto &V : Cpu)
      Sum += V[P];
    fprintf(stderr, " %.3f", Sum);
  }
  fprintf(stderr, "\nperfbench: host slowdown, median over calls: %.3f\n",
          medianOf(Slowdown));
  return R;
}

std::string renderResult(const RunResult &R) {
  std::string Out = "{\"correct\": ";
  Out += R.Correct && R.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    char Value[64];
    snprintf(Value, sizeof(Value), "%.17g", R.Metrics[I].Value);
    Out += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " +
           Value + ", \"unit\": \"" + R.Metrics[I].Unit + "\"}";
  }
  return Out + "}}";
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    const std::string Flag = argv[I];
    if (I + 1 == argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(V, A.Seed))
        return usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(V, N) || N == 0 || N > 3600)
        return usage("--seconds takes an integer from 1 to 3600");
      A.Seconds = static_cast<unsigned>(N);
    } else if (Flag == "--trace") {
      if (strcmp(V, "0") && strcmp(V, "1"))
        return usage("--trace takes 0 or 1");
      A.Trace = V[0] - '0';
    } else if (Flag == "--out-dir") {
      A.OutDir = V;
    } else if (Flag == "--perturb") {
      A.Perturb = V;
      if (A.Perturb != "reference" && A.Perturb != "growth" &&
          A.Perturb != "direct")
        return usage("--perturb takes reference, growth or direct");
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  const WorkloadInfo *WI = findWorkload(A.Workload);
  if (!WI)
    return usage("--workload names no workload");
  if (A.Seconds == 0 || A.Trace < 0)
    return usage("--seconds and --trace are required");

  // Set-up: generate, snapshot, compute references. Timed as the process's
  // CPU time from its start, so it is one cold set-up per run.
  double GenCpuS = 0;
  std::vector<Bench> Benches =
      prepareBenches(workloadSpecs(*WI, A.Seed), GenCpuS);
  const double SetupS = processCpuS();
  if (A.Perturb == "reference")
    Benches[0].RefHash[0] ^= 1;

  const std::string Stem = A.OutDir.empty()
                               ? std::string()
                               : A.OutDir + "/" + A.Workload + "-seed" +
                                     std::to_string(A.Seed);
  RunResult R;
  if (A.Trace) {
    TracedOptions TO;
    TO.Seconds = A.Seconds;
    TO.GenerateCpuS = GenCpuS;
    TO.PerturbDirect = A.Perturb == "direct";
    if (!Stem.empty()) {
      TO.SpansPath = Stem + "-spans.json";
      TO.FoldedPath = Stem + "-folded.txt";
    }
    R = runTraced(Benches, *WI, TO);
  } else {
    R = runUntraced(Benches, *WI, A.Seconds, A.Perturb == "growth");
    R.Metrics.push_back({"setup_s", SetupS, "s"});
  }

  const std::string Line = renderResult(R);
  if (!Stem.empty()) {
    const std::string Path =
        Stem + (A.Trace ? "-trace.json" : "-result.json");
    if (FILE *Out = fopen(Path.c_str(), "w")) {
      fprintf(Out, "%s\n", Line.c_str());
      fclose(Out);
    }
  }
  printf("%s\n", Line.c_str());
  return R.Correct && R.Failed == 0 ? 0 : 1;
}
