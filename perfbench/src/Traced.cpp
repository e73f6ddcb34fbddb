//===- Traced.cpp - The traced run: each layer called directly ------------===//

#include "Traced.h"

#include "analysis/DominatorTree.h"
#include "analysis/Loops.h"
#include "analysis/StampMap.h"
#include "dbds/DBDSPhase.h"
#include "opts/Phase.h"
#include "support/Budget.h"
#include "support/Casting.h"
#include "telemetry/Counters.h"
#include "telemetry/Trace.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

using namespace dbds;
using namespace perfbench;

namespace {

/// The benchmark's own spans, kept in memory and written when the run
/// ends. Spans of one function share its id.
class SpanLog {
public:
  struct Span {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    int32_t Parent;
    uint32_t FunctionId;
  };

  int32_t begin(const char *Name, uint32_t FunctionId) {
    Spans.push_back({Name, nowNs(), 0, Open, FunctionId});
    Open = static_cast<int32_t>(Spans.size() - 1);
    return Open;
  }
  void end(int32_t Idx) {
    Spans[Idx].EndNs = nowNs();
    Open = Spans[Idx].Parent;
  }

  bool write(const std::string &Path) const {
    FILE *Out = fopen(Path.c_str(), "w");
    if (!Out)
      return false;
    fputs("[\n", Out);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      fprintf(Out,
              "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
              "\"parent\":%d,\"function\":%u}%s\n",
              I, S.Name, static_cast<unsigned long long>(S.StartNs),
              static_cast<unsigned long long>(S.EndNs), S.Parent, S.FunctionId,
              I + 1 == Spans.size() ? "" : ",");
    }
    fputs("]\n", Out);
    return fclose(Out) == 0;
  }

private:
  static uint64_t nowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  std::vector<Span> Spans;
  int32_t Open = -1;
};

/// A span of the benchmark's log when one is given; nothing otherwise.
class SpanScope {
public:
  SpanScope(SpanLog *Log, const char *Name, uint32_t FunctionId) : Log(Log) {
    if (Log)
      Idx = Log->begin(Name, FunctionId);
  }
  ~SpanScope() {
    if (Log)
      Log->end(Idx);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanLog *Log;
  int32_t Idx = -1;
};

/// Everything the direct-layer path measured over one pass.
struct LayerTotals {
  double TrainCpuS = 0, EvalCpuS = 0, PipelineCpuS = 0, DBDSCpuS = 0;
  uint64_t PipelineAllocs = 0, DBDSAllocs = 0;
  double DomTreeUs = 0, LoopInfoUs = 0, StampMapUs = 0;
  std::map<std::string, uint64_t> Counters;
  uint64_t InstrsFinal = 0, BlocksFinal = 0, NewPhisFinal = 0;
  double TotalCpuS = 0;
};

/// Adds the counter deltas of one layer call to \p Into.
class CounterWatch {
public:
  CounterWatch() : Before(CounterRegistry::instance().snapshot()) {}
  void addTo(std::map<std::string, uint64_t> &Into) const {
    for (const CounterSample &S : CounterRegistry::delta(
             Before, CounterRegistry::instance().snapshot()))
      Into[S.Name] += S.Value;
  }

private:
  std::vector<CounterSample> Before;
};

struct DirectOutcome {
  uint64_t EntrySize = 0, CodeSize = 0, Cycles = 0, Hash = 0;
};

/// One function's profile -> compile -> evaluate through the layers'
/// public functions, mirroring the compile service's task body at default
/// options (unlimited budget, no verification, no sinks).
DirectOutcome compileDirect(Function &F, const GeneratedWorkload &W,
                            size_t Idx, RunConfig Config, LayerTotals &L,
                            SpanLog *Spans, uint32_t FnId) {
  DirectOutcome Out;
  SpanScope FnSpan(Spans, "function", FnId);
  Interpreter Interp(*W.Mod);
  Interp.enableCodeSizePenalty(/*Threshold=*/192, /*Step=*/160,
                               /*Cap=*/1u << 20);
  Interp.setPollInterval(128);

  ProfileSummary Profile;
  {
    SpanScope S(Spans, "vm.train", FnId);
    CounterWatch CW;
    const double T0 = threadCpuS();
    for (const auto &Args : W.TrainInputs[Idx]) {
      Interp.reset();
      if (!Interp.run(F, ArrayRef<int64_t>(Args), 1u << 24, &Profile).Ok)
        break;
    }
    L.TrainCpuS += threadCpuS() - T0;
    CW.addTo(L.Counters);
  }
  {
    SpanScope S(Spans, "vm.apply_profile", FnId);
    applyProfile(F, Profile);
  }

  CompileBudget Budget(0.0);
  Budget.arm();
  {
    SpanScope S(Spans, "opts.pipeline", FnId);
    CounterWatch CW;
    AllocScope Allocs;
    const double T0 = threadCpuS();
    PhaseManager Pipeline =
        PhaseManager::standardPipeline(/*Verify=*/false, W.Mod.get());
    Pipeline.setBudget(&Budget);
    Pipeline.run(F, 4);
    L.PipelineCpuS += threadCpuS() - T0;
    L.PipelineAllocs += Allocs.stop().Count;
    CW.addTo(L.Counters);
  }
  Out.EntrySize = F.estimatedCodeSize();
  const unsigned FirstNewId = F.getMaxInstId();

  // The analyses DBDS rebuilds throughout, constructed once here at DBDS
  // entry so their cost per unit shows apart from the tier that pays it.
  {
    SpanScope S(Spans, "analysis", FnId);
    double T0 = threadCpuS();
    DominatorTree DT(F);
    L.DomTreeUs += (threadCpuS() - T0) * 1e6;
    T0 = threadCpuS();
    LoopInfo LI(F, DT);
    L.LoopInfoUs += (threadCpuS() - T0) * 1e6;
    T0 = threadCpuS();
    StampMap Stamps;
    for (Block *B : F.blocks())
      for (Instruction *I : *B)
        Stamps.get(I);
    L.StampMapUs += (threadCpuS() - T0) * 1e6;
  }

  if (Config != RunConfig::Baseline) {
    SpanScope S(Spans, "dbds.run", FnId);
    CounterWatch CW;
    DBDSConfig DC;
    DC.UseTradeoff = Config == RunConfig::DBDS;
    DC.ClassTable = W.Mod.get();
    DC.Verify = false;
    DC.FailFast = false;
    DC.Budget = &Budget;
    AllocScope Allocs;
    const double T0 = threadCpuS();
    runDBDS(F, DC);
    L.DBDSCpuS += threadCpuS() - T0;
    L.DBDSAllocs += Allocs.stop().Count;
    CW.addTo(L.Counters);
  }
  Out.CodeSize = F.estimatedCodeSize();

  {
    SpanScope S(Spans, "vm.eval", FnId);
    CounterWatch CW;
    bool Ok = true;
    const double T0 = threadCpuS();
    Out.Hash = evaluate(Interp, F, W.EvalInputs[Idx], Out.Cycles, Ok);
    L.EvalCpuS += threadCpuS() - T0;
    CW.addTo(L.Counters);
  }

  for (Block *B : F.blocks())
    for (Instruction *I : *B) {
      ++L.InstrsFinal;
      if (isa<PhiInst>(I) && I->getId() >= FirstNewId)
        ++L.NewPhisFinal;
    }
  L.BlocksFinal += F.getNumBlocks();
  return Out;
}

/// Runs the direct path over every function and compares each result
/// with the service path's outcome of the same function.
LayerTotals directPass(std::vector<Bench> &Benches,
                       const std::vector<CompileBatch> &Service,
                       RunConfig Config, SpanLog *Spans, bool Perturb,
                       RunResult &R) {
  LayerTotals L;
  uint32_t FnId = 0;
  const double T0 = threadCpuS();
  for (size_t B = 0; B != Benches.size(); ++B) {
    Bench &Bn = Benches[B];
    Bn.restore();
    auto Fns = Bn.W.Mod->functions();
    for (size_t I = 0; I != Fns.size(); ++I, ++FnId) {
      DirectOutcome D =
          compileDirect(*Fns[I], Bn.W, I, Config, L, Spans, FnId);
      if (Perturb && FnId == 0)
        D.Hash ^= 1;
      const FunctionCompileOutcome &S = Service[B].Outcomes[I];
      std::string Problem;
      if (D.Hash != Bn.RefHash[I])
        Problem = "direct path result differs from the unoptimized IR's";
      else if (D.CodeSize != S.CodeSize || D.Cycles != S.DynamicCycles ||
               D.Hash != S.ResultHash)
        Problem = "direct path differs from the compile service: size " +
                  std::to_string(D.CodeSize) + " vs " +
                  std::to_string(S.CodeSize) + ", cycles " +
                  std::to_string(D.Cycles) + " vs " +
                  std::to_string(S.DynamicCycles);
      else if (Config != RunConfig::Baseline &&
               !withinGrowthBudget(D.CodeSize, D.EntrySize))
        Problem = "code size over the growth budget";
      R.operation(Bn.Name + " #" + std::to_string(I) + " (direct)", Problem);
    }
  }
  L.TotalCpuS = threadCpuS() - T0;
  return L;
}

/// Folds the program's collapsed stacks into the benchmark's self-time
/// metrics. Every interval lands in exactly one bucket: phases run by the
/// DBDS cleanup count to dbds.cleanup, the rest of each phase to its
/// opts.phase bucket, and the simulator's traversals to dbds.simulate.
std::map<std::string, double> foldSelfTimes(const std::string &Folded) {
  std::map<std::string, double> Self;
  std::istringstream In(Folded);
  std::string Line;
  while (std::getline(In, Line)) {
    const size_t Sp = Line.rfind(' ');
    if (Sp == std::string::npos)
      continue;
    const std::string Stack = Line.substr(0, Sp);
    const double S = std::stod(Line.substr(Sp + 1)) * 1e-6;
    const size_t Semi = Stack.rfind(';');
    const std::string Leaf =
        Semi == std::string::npos ? Stack : Stack.substr(Semi + 1);
    const bool InCleanup = (";" + Stack + ";").find(";cleanup;") !=
                           std::string::npos;
    std::string Bucket;
    if (InCleanup)
      Bucket = "dbds.cleanup_self_s";
    else if (Leaf == "simulate" || Leaf == "dst")
      Bucket = "dbds.simulate_self_s";
    else if (Leaf == "tradeoff" || Leaf == "optimize" ||
             Leaf == "duplicate")
      Bucket = "dbds." + Leaf + "_self_s";
    else if (Leaf == "dbds")
      Bucket = "dbds.other_self_s";
    else if (Leaf == "pipeline")
      Bucket = "opts.pipeline_self_s";
    else if (Leaf == "interpret")
      Bucket = "vm.interpret_self_s";
    else {
      std::string Name = Leaf;
      std::replace(Name.begin(), Name.end(), '-', '_');
      Bucket = "opts.phase." + Name + "_self_s";
    }
    Self[Bucket] += S;
  }
  return Self;
}

const char *const PhaseBuckets[] = {
    "opts.phase.canonicalize_self_s",
    "opts.phase.value_numbering_self_s",
    "opts.phase.conditional_elimination_self_s",
    "opts.phase.read_elimination_self_s",
    "opts.phase.partial_escape_self_s",
    "opts.phase.dce_self_s",
    "opts.phase.simplify_cfg_self_s",
};

const char *const DBDSBuckets[] = {
    "dbds.simulate_self_s", "dbds.tradeoff_self_s", "dbds.optimize_self_s",
    "dbds.duplicate_self_s", "dbds.cleanup_self_s",
};

} // namespace

RunResult perfbench::runTraced(std::vector<Bench> &Benches,
                               const WorkloadInfo &WI,
                               const TracedOptions &Opts) {
  RunResult R;
  CompileService Service(1);
  const auto Start = std::chrono::steady_clock::now();

  // Per-round figures; times are reported as medians over rounds.
  std::vector<double> ServiceCpu, TracedCpu, CompileMsP50;
  std::vector<LayerTotals> Plain;
  std::vector<std::map<std::string, double>> Self;
  SpanLog Spans;
  std::string Folded;
  do {
    // (a) The compile-service path, tracing off.
    std::vector<CompileBatch> Batches;
    std::vector<double> CompileMs;
    double Cpu = 0;
    for (Bench &B : Benches) {
      ServiceCall Call = callService(Service, B, WI.Config);
      checkCall(B, Call, R);
      Cpu += Call.CpuS;
      for (const FunctionCompileOutcome &O : Call.Batch.Outcomes)
        CompileMs.push_back(O.CompileTimeMs);
      Batches.push_back(std::move(Call.Batch));
    }
    ServiceCpu.push_back(Cpu);
    CompileMsP50.push_back(medianOf(CompileMs));

    // (b) The direct path with CPU, allocation and counter readings.
    Plain.push_back(directPass(Benches, Batches, WI.Config, nullptr,
                               Opts.PerturbDirect, R));

    // (c) The direct path again, traced: program spans and our own.
    TraceSession Session;
    SpanLog RoundSpans;
    {
      ScopedTraceAttach Attach(Session);
      TracedCpu.push_back(directPass(Benches, Batches, WI.Config, &RoundSpans,
                                     Opts.PerturbDirect, R)
                              .TotalCpuS);
    }
    Folded = Session.renderFolded();
    Self.push_back(foldSelfTimes(Folded));
    Spans = std::move(RoundSpans);
  } while (std::chrono::steady_clock::now() - Start <
           std::chrono::seconds(Opts.Seconds));

  if (!Opts.SpansPath.empty() && !Spans.write(Opts.SpansPath))
    fprintf(stderr, "perfbench: cannot write %s\n", Opts.SpansPath.c_str());
  if (!Opts.FoldedPath.empty())
    if (FILE *Out = fopen(Opts.FoldedPath.c_str(), "w")) {
      fputs(Folded.c_str(), Out);
      fclose(Out);
    }

  auto Median = [&](auto Get) {
    std::vector<double> V;
    for (size_t I = 0; I != Plain.size(); ++I)
      V.push_back(Get(I));
    return medianOf(V);
  };
  // Counts repeat exactly from round to round; report the first round's.
  const LayerTotals &L0 = Plain.front();
  auto Count = [&](const char *Name) {
    auto It = L0.Counters.find(Name);
    return It == L0.Counters.end() ? 0.0 : static_cast<double>(It->second);
  };
  for (const LayerTotals &L : Plain)
    if (L.Counters != L0.Counters || L.InstrsFinal != L0.InstrsFinal)
      R.inconsistent("direct-path counts differ between rounds");

  auto &M = R.Metrics;
  M.push_back({"workloads.generate_cpu_s", Opts.GenerateCpuS, "s"});
  M.push_back({"vm.train_cpu_s", Median([&](size_t I) { return Plain[I].TrainCpuS; }), "s"});
  M.push_back({"vm.eval_cpu_s", Median([&](size_t I) { return Plain[I].EvalCpuS; }), "s"});
  M.push_back({"vm.instructions_executed", Count("interpreter.instructions_executed"), "count"});
  M.push_back({"opts.pipeline_cpu_s", Median([&](size_t I) { return Plain[I].PipelineCpuS; }), "s"});
  M.push_back({"opts.pipeline_allocs", static_cast<double>(L0.PipelineAllocs), "count"});
  for (const char *B : PhaseBuckets)
    M.push_back({B, Median([&](size_t I) { return Self[I][B]; }), "s"});
  M.push_back({"opts.phases_run", Count("phase_manager.phases_run"), "count"});
  M.push_back({"dbds.run_cpu_s", Median([&](size_t I) { return Plain[I].DBDSCpuS; }), "s"});
  M.push_back({"dbds.run_allocs", static_cast<double>(L0.DBDSAllocs), "count"});
  for (const char *B : DBDSBuckets)
    M.push_back({B, Median([&](size_t I) { return Self[I][B]; }), "s"});
  M.push_back({"dbds.pairs_simulated", Count("simulator.pairs_simulated"), "count"});
  M.push_back({"dbds.candidates_evaluated", Count("tradeoff.candidates_evaluated"), "count"});
  M.push_back({"dbds.duplications", Count("dbds.duplications_performed"), "count"});
  const double Considered = Count("dbds.candidates_stale") +
                            Count("tradeoff.candidates_evaluated");
  M.push_back({"dbds.stale_ratio",
               Considered > 0 ? Count("dbds.candidates_stale") / Considered : 0.0,
               "ratio"});
  const double PhisCreated = Count("duplicator.phis_created");
  M.push_back({"dbds.phis_created", PhisCreated, "count"});
  M.push_back({"dbds.instructions_copied", Count("duplicator.instructions_copied"), "count"});
  M.push_back({"dbds.phi_survival_ratio",
               PhisCreated > 0 ? static_cast<double>(L0.NewPhisFinal) / PhisCreated : 0.0,
               "ratio"});
  M.push_back({"analysis.domtree_build_us", Median([&](size_t I) { return Plain[I].DomTreeUs; }), "us"});
  M.push_back({"analysis.loopinfo_build_us", Median([&](size_t I) { return Plain[I].LoopInfoUs; }), "us"});
  M.push_back({"analysis.stampmap_us", Median([&](size_t I) { return Plain[I].StampMapUs; }), "us"});
  M.push_back({"service.compile_ms_p50", medianOf(CompileMsP50), "ms"});
  M.push_back({"ir.instructions_final", static_cast<double>(L0.InstrsFinal), "count"});
  M.push_back({"ir.blocks_final", static_cast<double>(L0.BlocksFinal), "count"});
  M.push_back({"trace.overhead_s", medianOf(TracedCpu) - medianOf(ServiceCpu), "s"});
  return R;
}
