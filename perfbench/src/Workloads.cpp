//===- Workloads.cpp - The benchmark's workloads and references -----------===//

#include "Workloads.h"

#include "vm/Interpreter.h"

#include <algorithm>
#include <cstdio>
#include <ctime>

using namespace dbds;
using namespace perfbench;

namespace {

const WorkloadInfo Workloads[] = {
    {"suites-baseline", RunConfig::Baseline},
    {"suites-dbds", RunConfig::DBDS},
    {"large-units-dbds", RunConfig::DBDS},
};

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

double clockS(clockid_t Clock) {
  timespec T{};
  clock_gettime(Clock, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

// Shape of the large-units corpus: few functions, each a chain of many
// merges (the paper suites chain 4-7 per function).
constexpr unsigned LargeBenchmarks = 16;
constexpr unsigned LargeFunctions = 2;
constexpr unsigned LargeSegments = 40;

// Evaluation runs get the fuel the compile service gives them.
constexpr uint64_t EvalFuel = 1u << 24;
// The compile service's marker for a run that did not terminate.
constexpr uint64_t NonTerminationSentinel = 0x6e6f2d7465726d21ULL;

} // namespace

const WorkloadInfo *perfbench::findWorkload(const std::string &Name) {
  for (const WorkloadInfo &WI : Workloads)
    if (Name == WI.Name)
      return &WI;
  return nullptr;
}

std::vector<BenchmarkSpec> perfbench::workloadSpecs(const WorkloadInfo &WI,
                                                    uint64_t Seed) {
  std::vector<BenchmarkSpec> Specs;
  if (std::string(WI.Name) == "large-units-dbds") {
    Specs = generatorCorpusSuite(splitmix(Seed), LargeBenchmarks,
                                 LargeFunctions, LargeSegments)
                .Benchmarks;
    return Specs;
  }
  for (const SuiteSpec &S : allSuites())
    for (BenchmarkSpec B : S.Benchmarks) {
      B.Name = S.Name + "/" + B.Name;
      if (Seed != 0)
        B.Config.Seed = splitmix(B.Config.Seed ^ splitmix(Seed));
      Specs.push_back(std::move(B));
    }
  return Specs;
}

void Bench::restore() {
  auto Fns = W.Mod->functions();
  for (size_t I = 0; I != Fns.size(); ++I)
    Fns[I]->restoreFrom(*Pristine[I]);
}

uint64_t perfbench::evaluate(Interpreter &Interp, Function &F,
                             const std::vector<std::vector<int64_t>> &Inputs,
                             uint64_t &Cycles, bool &Ok) {
  uint64_t Hash = 0;
  for (const auto &Args : Inputs) {
    Interp.reset();
    ExecutionResult R = Interp.run(F, ArrayRef<int64_t>(Args), EvalFuel);
    if (!R.Ok) {
      Ok = false;
      Hash = resultHashCombine(Hash, NonTerminationSentinel);
      continue;
    }
    Cycles += R.DynamicCycles;
    Hash = resultHashCombine(Hash, R.HasResult && !R.Result.IsObject
                                       ? static_cast<uint64_t>(R.Result.Scalar)
                                       : 0);
  }
  return Hash;
}

std::vector<Bench>
perfbench::prepareBenches(const std::vector<BenchmarkSpec> &Specs,
                          double &GenCpuS) {
  std::vector<Bench> Benches(Specs.size());
  for (size_t B = 0; B != Specs.size(); ++B) {
    Bench &Bn = Benches[B];
    Bn.Name = Specs[B].Name;
    const double T0 = threadCpuS();
    Bn.W = generateWorkload(Specs[B].Config);
    GenCpuS += threadCpuS() - T0;
    // The reference interpreter has no cost-model extras: only results
    // matter here, and they come from the IR before any optimization.
    Interpreter Ref(*Bn.W.Mod);
    auto Fns = Bn.W.Mod->functions();
    for (size_t I = 0; I != Fns.size(); ++I) {
      Bn.Pristine.push_back(Fns[I]->clone());
      uint64_t Cycles = 0;
      bool Ok = true;
      Bn.RefHash.push_back(evaluate(Ref, *Fns[I], Bn.W.EvalInputs[I], Cycles, Ok));
    }
    Bn.EntrySize.assign(Fns.size(), 0);
  }
  return Benches;
}

bool perfbench::withinGrowthBudget(uint64_t Size, uint64_t EntrySize) {
  return EntrySize == 0 || Size * 2 < EntrySize * 3;
}

std::string perfbench::checkOutcome(const FunctionCompileOutcome &O,
                                    uint64_t RefHash, uint64_t EntrySize) {
  if (O.ResultHash != RefHash)
    return "result differs from the unoptimized IR's";
  if (O.RunFailures != 0)
    return "run failure";
  if (O.Rollbacks != 0)
    return "rollback";
  if (O.Degradation != DegradationLevel::None)
    return "degraded";
  if (O.Exhausted)
    return "task exhausted";
  if (!withinGrowthBudget(O.CodeSize, EntrySize))
    return "code size " + std::to_string(O.CodeSize) +
           " over the growth budget of entry size " +
           std::to_string(EntrySize);
  return "";
}

void RunResult::operation(const std::string &Where,
                          const std::string &Problem) {
  ++Attempted;
  if (Problem.empty())
    return;
  if (Failed++ < 8)
    fprintf(stderr, "perfbench: FAILED %s: %s\n", Where.c_str(),
            Problem.c_str());
}

void RunResult::inconsistent(const std::string &What) {
  fprintf(stderr, "perfbench: INCONSISTENT %s\n", What.c_str());
  Correct = false;
}

ServiceCall perfbench::callService(CompileService &Service, Bench &B,
                                   RunConfig Config) {
  B.restore();
  // Default options: no cache, no supervision, no sinks. This is the
  // path bench_headline and the figure benchmarks take at --jobs=1.
  const RunnerOptions Opts;
  ServiceCall Call;
  AllocScope Allocs;
  const double T0 = threadCpuS();
  Call.Batch = compileFunctionsParallel(Service, B.W, Config, Opts, B.Name);
  Call.CpuS = threadCpuS() - T0;
  Call.Allocs = Allocs.stop();
  return Call;
}

void perfbench::checkCall(const Bench &B, const ServiceCall &Call,
                          RunResult &R) {
  const auto &Outs = Call.Batch.Outcomes;
  if (Outs.size() != B.RefHash.size()) {
    R.inconsistent(B.Name + ": service returned " +
                   std::to_string(Outs.size()) + " outcomes");
    return;
  }
  for (size_t I = 0; I != Outs.size(); ++I)
    R.operation(B.Name + " #" + std::to_string(I),
                checkOutcome(Outs[I], B.RefHash[I], B.EntrySize[I]));
}

double perfbench::medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::threadCpuS() { return clockS(CLOCK_THREAD_CPUTIME_ID); }
double perfbench::processCpuS() { return clockS(CLOCK_PROCESS_CPUTIME_ID); }
