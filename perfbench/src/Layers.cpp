//===- perfbench/src/Layers.cpp - Shared report and traced composition ---===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"

#include "ipcp/JumpFunctionBuilder.h"
#include "ipcp/Solver.h"
#include "ipcp/Substitution.h"
#include "lang/AstClone.h"
#include "lang/Parser.h"
#include "support/Diagnostics.h"
#include "workloads/SuiteRunner.h"

#include <sys/resource.h>

using namespace ipcp;

namespace perfbench {

void Report::fail(const std::string &Why, uint64_t Count) {
  Failed += Count;
  note("CHECK FAILED: " + Why);
}

double medianSetUpSeconds(unsigned Reps, const std::function<void()> &SetUp) {
  std::vector<double> Times;
  for (unsigned I = 0; I != Reps; ++I) {
    Clock::time_point Start = Clock::now();
    SetUp();
    Times.push_back(msSince(Start) / 1000.0);
  }
  return median(Times);
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux.
}

void addEndToEnd(Report &R, double SetUpS, double ThroughputPerS,
                 const std::vector<double> &LatencyMs, const char *What) {
  Tail T = tailOf(LatencyMs);
  R.metric("setup_s", SetUpS, "s");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("throughput_per_s", ThroughputPerS, "1/s");
  R.metric("p50_ms", median(LatencyMs), "ms");
  char Line[200];
  std::snprintf(Line, sizeof(Line),
                "%s latency: p50 %.3f ms, tail = p%g %.3f ms (%zu samples, "
                "%zu beyond; median of %zu windows)",
                What, median(LatencyMs), T.Percentile, T.Value, T.Samples,
                T.Beyond, T.Windows);
  R.note(Line);
}

CheckedProgram frontendTraced(Tracer &T, std::string_view Source) {
  Span S(T, "lang.frontend");
  T.count("lang.bytes", double(Source.size()));
  CheckedProgram P;
  DiagnosticEngine Diags;
  P.Ctx = parseProgram(Source, Diags);
  if (!Diags.hasErrors())
    P.Symbols = Sema::run(*P.Ctx, Diags);
  if (Diags.hasErrors())
    P.Error = Diags.str();
  return P;
}

AnalysisCounts countsOf(const PipelineResult &R) {
  AnalysisCounts C;
  C.Ok = R.Ok;
  C.Substituted = R.SubstitutedConstants;
  C.ConstantPrints = R.ConstantPrints;
  C.JfEvaluations = R.SolverJfEvaluations;
  C.ProcVisits = R.SolverProcVisits;
  C.PerProc = R.PerProcSubstituted;
  return C;
}

AnalysisCounts analyzeComposed(Tracer &T, AnalysisSession &Session,
                               const PipelineOptions &Opts) {
  if (Opts.CompletePropagation) {
    std::unique_ptr<AstContext> Clone;
    {
      Span S(T, "lang.cloneProgramResolved");
      Clone = cloneProgramResolved(Session.ast());
    }
    AnalysisSession Private(*Clone, Session.symbols());
    PipelineResult R;
    {
      Span S(T, "ipcp.runPipelineOnSession");
      R = runPipelineOnSession(Private, Opts);
    }
    T.count("ipcp.jf_evaluations", R.SolverJfEvaluations);
    return countsOf(R);
  }

  const SymbolTable &Symbols = Session.symbols();
  const Module *M = nullptr;
  const CallGraph *CG = nullptr;
  {
    Span S(T, "ir.module");
    M = &Session.module();
  }
  {
    Span S(T, "ir.callGraph");
    CG = &Session.callGraph();
  }
  const ModRefInfo *MRI = nullptr;
  const RefAliasInfo *Aliases = nullptr;
  const FlowAliasInfo *FlowAliases = nullptr;
  const CopyPropInfo *CopyFacts = nullptr;
  {
    Span S(T, "analysis.modRef");
    MRI = Session.modRef(Opts.UseMod);
  }
  {
    Span S(T, "analysis.refAlias");
    Aliases = &Session.refAlias(Opts.UseMod);
  }
  if (Opts.FlowSensitiveAlias) {
    Span S(T, "analysis.flowAlias");
    FlowAliases = &Session.flowAlias(Opts.UseMod);
  }
  if (Opts.CopyPropagation) {
    Span S(T, "analysis.copyProp");
    CopyFacts = &Session.copyProp(Opts.UseMod);
  }
  {
    Span S(T, "ir.ssa");
    Session.killOracle(Opts.UseMod);
    for (ProcId P : CG->topDownOrder())
      Session.ssa(P, Opts.UseMod);
  }
  if (T.enabled()) {
    double Instrs = 0;
    for (const auto &F : M->Functions)
      Instrs += double(F->numInstrs());
    T.count("ir.instrs", Instrs);
  }

  ProgramJumpFunctions Jfs;
  SolveResult Solve;
  if (!Opts.IntraproceduralOnly) {
    JumpFunctionOptions JfOpts;
    JfOpts.Kind = Opts.Kind;
    JfOpts.UseReturnJumpFunctions = Opts.UseReturnJumpFunctions;
    JfOpts.UseMod = Opts.UseMod;
    JfOpts.UseGatedSsa = Opts.UseGatedSsa;
    JfOpts.FlowSensitiveAlias = Opts.FlowSensitiveAlias;
    JfOpts.OptimisticVn = Opts.OptimisticVn;
    JfOpts.CopyPropagation = Opts.CopyPropagation;
    {
      Span S(T, "ipcp.buildJumpFunctions");
      Jfs = buildJumpFunctions(*M, Symbols, *CG, MRI, JfOpts, Aliases,
                               /*Pool=*/nullptr, &Session, FlowAliases,
                               CopyFacts);
    }
    {
      Span S(T, "ipcp.solveConstants");
      Solve = solveConstants(Symbols, *CG, Jfs, Opts.Strategy,
                             /*Feedback=*/nullptr, /*Cancel=*/nullptr,
                             &Session.solverMemo());
    }
  }
  SubstitutionResult Subs;
  {
    Span S(T, "ipcp.countSubstitutions");
    Subs = countSubstitutions(
        *M, Symbols, *CG, Opts.IntraproceduralOnly ? nullptr : &Solve, MRI,
        Opts.UseReturnJumpFunctions && !Opts.IntraproceduralOnly ? &Jfs
                                                                 : nullptr,
        Aliases, /*Pool=*/nullptr, &Session, FlowAliases, CopyFacts);
  }
  T.count("ipcp.jf_evaluations", Solve.JfEvaluations);

  AnalysisCounts C;
  C.Ok = true;
  C.Substituted = Subs.Total;
  C.ConstantPrints = Subs.ConstantPrints;
  C.JfEvaluations = Solve.JfEvaluations;
  C.ProcVisits = Solve.ProcVisits;
  C.PerProc = Subs.PerProc;
  Span Teardown(T, "ipcp.resultTeardown");
  Jfs = ProgramJumpFunctions();
  Solve = SolveResult();
  Subs = SubstitutionResult();
  return C;
}

AnalysisCounts analyzeSourceComposed(Tracer &T, std::string_view Source,
                                     const PipelineOptions &Opts) {
  CheckedProgram Prog = frontendTraced(T, Source);
  if (!Prog.Error.empty())
    return AnalysisCounts();
  std::unique_ptr<AnalysisSession> Session;
  {
    Span S(T, "ipcp.AnalysisSession");
    Session = std::make_unique<AnalysisSession>(*Prog.Ctx, Prog.Symbols);
  }
  AnalysisCounts C = analyzeComposed(T, *Session, Opts);
  countSessionStats(T, *Session);
  Span Teardown(T, "ipcp.sessionTeardown");
  Session.reset();
  Prog = CheckedProgram();
  return C;
}

void countSessionStats(Tracer &T, const AnalysisSession &Session) {
  SessionStats S = Session.stats();
  T.count("ipcp.ssa_hits", double(S.SsaReused));
  T.count("ipcp.ssa_lookups", double(S.SsaReused + S.SsaBuilt));
  T.count("ipcp.vn_hits", double(S.VnReused));
  T.count("ipcp.vn_lookups", double(S.VnReused + S.VnBuilt));
  T.count("ipcp.jf_base_hits", double(S.JfBasesReused));
  T.count("ipcp.jf_base_lookups", double(S.JfBasesReused + S.JfBasesBuilt));
  T.count("ipcp.memo_hits", double(S.SolverMemoHits));
  T.count("ipcp.memo_lookups", double(S.SolverMemoHits + S.SolverMemoMisses));
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Metrics = [] {
    std::vector<std::pair<std::string, std::string>> M = {
        {"lang.frontend_ms", "ms"},
        {"lang.bytes_per_ms", "B/ms"},
        {"ir.lower_ms", "ms"},
        {"ir.ssa_ms", "ms"},
        {"ir.instrs", "count"},
        {"analysis.summaries_ms", "ms"},
        {"ipcp.jf_ms", "ms"},
        {"ipcp.solve_ms", "ms"},
        {"ipcp.substitute_ms", "ms"},
        {"ipcp.session_ms", "ms"},
        {"ipcp.jf_evaluations", "count"},
        {"ipcp.jf_base_hit_rate", "ratio"},
        {"ipcp.jf_base_lookups", "count"},
        {"ipcp.vn_hit_rate", "ratio"},
        {"ipcp.vn_lookups", "count"},
        {"ipcp.ssa_hit_rate", "ratio"},
        {"ipcp.ssa_lookups", "count"},
        {"ipcp.memo_hit_rate", "ratio"},
        {"ipcp.memo_lookups", "count"},
    };
    for (const SuiteConfig &C : allConfigs())
      M.push_back({"grid.cell_ms." + C.Name, "ms"});
    std::vector<std::pair<std::string, std::string>> Rest = {
        {"workloads.grid_cell_sum_ms", "ms"},
        {"workloads.grid_parallel_efficiency", "ratio"},
        {"workloads.grid_cell_inflation", "ratio"},
        {"serve.requests", "count"},
        {"serve.worker_busy_ratio", "ratio"},
        {"serve.submit_us", "us"},
        {"serve.reply_hit_rate", "ratio"},
        {"serve.session_hit_rate", "ratio"},
        {"serve.miss_rate", "ratio"},
        {"serve.evictions", "count"},
        {"serve.coalesced", "count"},
        {"serve.overloaded", "count"},
        {"serve.queue_high_water", "count"},
        {"serve.memo_hit_rate", "ratio"},
        {"serve.cold_p50_ms", "ms"},
        {"serve.hot_p50_ms", "ms"},
        {"serve.cold_service_ms", "ms"},
        {"serve.hot_service_ms", "ms"},
        {"serve.wait_est_ms", "ms"},
        {"serve.gen_late_tail_ms", "ms"},
        {"exec.oracle_ms", "ms"},
        {"exec.vm_runs", "count"},
        {"exec.vm_steps_per_s", "1/s"},
        {"fuzz.candidates", "count"},
        {"fuzz.mutate_ms", "ms"},
        {"fuzz.evaluate_ms", "ms"},
        {"fuzz.analyze_ms", "ms"},
        {"fuzz.invalid_mutant_ratio", "ratio"},
        {"fuzz.retained_ratio", "ratio"},
        {"fuzz.feature_bits", "count"},
        {"trace.unattributed_ratio", "ratio"},
        {"trace.overhead_ratio", "ratio"},
        {"trace.composition_ratio", "ratio"},
    };
    M.insert(M.end(), Rest.begin(), Rest.end());
    return M;
  }();
  return Metrics;
}

namespace {

double sumOf(const std::map<std::string, double> &M,
             std::initializer_list<const char *> Keys) {
  double Sum = 0;
  for (const char *K : Keys) {
    auto It = M.find(K);
    if (It != M.end())
      Sum += It->second;
  }
  return Sum;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

} // namespace

void addAnalyzerLayers(Report &R, const TraceSummary &S,
                       const std::map<std::string, double> &Counts,
                       double Units) {
  auto PerUnitMs = [&](std::initializer_list<const char *> Names) {
    return ratio(sumOf(S.SelfUsByName, Names) / 1000.0, Units);
  };
  double FrontendMs = PerUnitMs({"lang.frontend"});
  R.metric("lang.frontend_ms", FrontendMs, "ms");
  R.metric("lang.bytes_per_ms",
           ratio(sumOf(Counts, {"lang.bytes"}) / Units, FrontendMs), "B/ms");
  R.metric("ir.lower_ms", PerUnitMs({"ir.module", "ir.callGraph"}), "ms");
  R.metric("ir.ssa_ms", PerUnitMs({"ir.ssa"}), "ms");
  R.metric("ir.instrs", ratio(sumOf(Counts, {"ir.instrs"}), Units), "count");
  R.metric("analysis.summaries_ms",
           PerUnitMs({"analysis.modRef", "analysis.refAlias",
                      "analysis.flowAlias", "analysis.copyProp"}),
           "ms");
  // Complete-propagation cells run whole under one span; their time is
  // ipcp's, reported with jump-function construction (their largest
  // phase) so the ipcp phase times still sum to the layer.
  R.metric("ipcp.jf_ms",
           PerUnitMs({"ipcp.buildJumpFunctions", "ipcp.runPipelineOnSession"}),
           "ms");
  R.metric("ipcp.solve_ms", PerUnitMs({"ipcp.solveConstants"}), "ms");
  R.metric("ipcp.substitute_ms", PerUnitMs({"ipcp.countSubstitutions"}), "ms");
  R.metric("ipcp.session_ms",
           PerUnitMs({"ipcp.AnalysisSession", "ipcp.sessionTeardown",
                      "ipcp.resultTeardown"}),
           "ms");
  R.metric("ipcp.jf_evaluations",
           ratio(sumOf(Counts, {"ipcp.jf_evaluations"}), Units), "count");
  for (const char *Cache : {"jf_base", "vn", "ssa", "memo"}) {
    std::string P = std::string("ipcp.") + Cache;
    double Hits = sumOf(Counts, {(P + "_hits").c_str()});
    double Lookups = sumOf(Counts, {(P + "_lookups").c_str()});
    R.metric(P + "_hit_rate", ratio(Hits, Lookups), "ratio");
    R.metric(P + "_lookups", ratio(Lookups, Units), "count");
  }
  R.metric("trace.unattributed_ratio", S.unattributedRatio(), "ratio");
}

} // namespace perfbench
