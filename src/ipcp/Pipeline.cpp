//===- ipcp/Pipeline.cpp - Whole-program analysis driver ------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/Pipeline.h"

#include "analysis/CopyProp.h"
#include "analysis/DeadCodeElim.h"
#include "ipcp/AnalysisSession.h"
#include "ir/CfgBuilder.h"
#include "lang/AstClone.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "support/Cancellation.h"
#include "support/FuzzFeedback.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <memory>
#include <string>

using namespace ipcp;

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since \p Start; advances Start to now so callers
/// can chain phase measurements.
double lapMs(Clock::time_point &Start) {
  Clock::time_point Now = Clock::now();
  double Ms = std::chrono::duration<double, std::milli>(Now - Start).count();
  Start = Now;
  return Ms;
}

/// Feeds the run-level counters of a finished pipeline run into the
/// coverage sink (the per-lowering features were recorded live by the
/// solver). Timings are deliberately excluded: they are the one
/// nondeterministic part of a result.
void recordRunFeatures(FuzzFeedback *FB, const PipelineResult &R) {
  if (!FB)
    return;
  FB->hit(FuzzFeature::SolverProcVisits, R.SolverProcVisits);
  FB->hit(FuzzFeature::SolverJfEvaluations, R.SolverJfEvaluations);
  FB->hit(FuzzFeature::SolverCellLowerings, R.SolverCellLowerings);
  FB->hit(FuzzFeature::SolverMemoHits, R.SolverMemoHits);
  FB->hit(FuzzFeature::SolverMemoMisses, R.SolverMemoMisses);
  FB->hit(FuzzFeature::AliasPairs, R.AliasPairs);
  FB->hit(FuzzFeature::AliasUnstableSymbols, R.AliasUnstableSymbols);
  FB->hit(FuzzFeature::DceRounds, R.DceRounds);
  FB->hit(FuzzFeature::FoldedBranches, R.FoldedBranches);
  FB->hit(FuzzFeature::JfForwardConst, R.JfStats.NumForwardConst);
  FB->hit(FuzzFeature::JfForwardPassThrough,
          R.JfStats.NumForwardPassThrough);
  FB->hit(FuzzFeature::JfForwardPoly, R.JfStats.NumForwardPoly);
  FB->hit(FuzzFeature::JfForwardBottom, R.JfStats.NumForwardBottom);
  FB->hit(FuzzFeature::JfReturnConst, R.JfStats.NumReturnConst);
  FB->hit(FuzzFeature::JfReturnPoly, R.JfStats.NumReturnPoly);
  FB->hit(FuzzFeature::JfMaxPolySupport, R.JfStats.MaxPolySupport);
  FB->hit(FuzzFeature::SubstitutedConstants, R.SubstitutedConstants);
  FB->hit(FuzzFeature::KnownButIrrelevant, R.KnownButIrrelevant);
  FB->hit(FuzzFeature::NeverCalledProcs, R.NeverCalled.size());
}

} // namespace

PipelineResult ipcp::runPipelineOnSession(AnalysisSession &Session,
                                          const PipelineOptions &Opts) {
  PipelineResult Result;
  const SymbolTable &Symbols = Session.symbols();
  const Program &Prog = Session.ast().program();
  if (!Prog.entryProc()) {
    Result.Error = "program has no 'main' procedure";
    return Result;
  }

  Clock::time_point RunStart = Clock::now();

  // The pool outlives the complete-propagation rounds, so its workers
  // are spawned once per pipeline run — or not at all when the caller
  // injects a shared one.
  std::unique_ptr<ThreadPool> OwnedPool;
  ThreadPool *Pool = Opts.Pool;
  if (!Pool && Opts.Threads != 1) {
    OwnedPool = std::make_unique<ThreadPool>(Opts.Threads);
    Pool = OwnedPool.get();
  }

  // The session the current round analyzes: the caller's, until the
  // first fold moves the run onto a private clone of its program
  // (declared in this order so the session dies before its program).
  AnalysisSession *Active = &Session;
  std::shared_ptr<AstContext> Folded;
  std::unique_ptr<AnalysisSession> Private;

  for (const auto &P : Prog.Procs)
    Result.ProcNames.push_back(P->name());
  Result.Constants.resize(Prog.Procs.size());
  Result.PerProcSubstituted.assign(Prog.Procs.size(), 0);

  // Complete propagation iterates the whole analysis; each round resets
  // every CONSTANTS cell to TOP and starts over on the DCE'd program
  // (paper §4.2). The bound is a safety net against a non-converging
  // propagate/DCE cycle; it must be a real runtime check (not an
  // assert) so a Release build reports the failure instead of looping
  // forever. The paper observed — and our tests assert — convergence
  // after a single DCE round.
  // Abandons a deadline-expired run. One lambda so every phase-boundary
  // poll reports identically.
  auto Abandon = [&Result] {
    Result.Ok = false;
    Result.Cancelled = true;
    Result.Error = "analysis cancelled (deadline expired)";
    return Result;
  };

  for (unsigned Round = 0;; ++Round) {
    if (Round > Opts.MaxDceRounds) {
      Result.Ok = false;
      Result.Error = "complete propagation failed to converge within " +
                     std::to_string(Opts.MaxDceRounds) +
                     " dead-code elimination rounds";
      return Result;
    }
    if (isCancelled(Opts.Cancel))
      return Abandon();

    Clock::time_point Phase = Clock::now();

    const Module &M = Active->module();
    const CallGraph &CG = Active->callGraph();

    const ModRefInfo *MRI = Active->modRef(Opts.UseMod);
    // By-reference aliasing is soundness, not a configuration: every
    // per-procedure analysis below must know which formals may share a
    // location with a modified global or sibling formal.
    const RefAliasInfo &Aliases = Active->refAlias(Opts.UseMod);
    Result.AliasPairs = Aliases.numAliasPairs();
    Result.AliasUnstableSymbols = Aliases.numUnstable();
    // Flow-sensitive mode refines (never widens) those baseline facts
    // with per-point dirty states; the baseline counts above stay, so
    // the table columns remain comparable across configurations.
    const FlowAliasInfo *FlowAliases = nullptr;
    if (Opts.FlowSensitiveAlias) {
      FlowAliases = &Active->flowAlias(Opts.UseMod);
      Result.AliasPointsRefined = FlowAliases->numRefinedPoints();
    }
    // Copy propagation strictly refines every configuration: loads the
    // copy lattice resolves stop reading as unknown in both the jump
    // functions and the substitution SCCP below.
    const CopyPropInfo *CopyFacts = nullptr;
    if (Opts.CopyPropagation) {
      CopyFacts = &Active->copyProp(Opts.UseMod);
      Result.CopyLoadsResolved = CopyFacts->numResolvedLoads();
    }
    Result.Timings.LowerMs += lapMs(Phase);

    ProgramJumpFunctions Jfs;
    SolveResult Solve;
    bool UseRjfInSccp = false;
    if (!Opts.IntraproceduralOnly) {
      Jfs = buildJumpFunctions(*Active, Opts, Pool);
      Result.Timings.JumpFunctionsMs += lapMs(Phase);
      if (isCancelled(Opts.Cancel))
        return Abandon();
      Solve = solveConstants(Symbols, CG, Jfs, Opts.Strategy,
                             Opts.Feedback, Opts.Cancel,
                             &Active->solverMemo());
      Result.Timings.SolveMs += lapMs(Phase);
      if (Solve.Cancelled)
        return Abandon();
      UseRjfInSccp = Opts.UseReturnJumpFunctions;
    }
    if (isCancelled(Opts.Cancel))
      return Abandon();

    SubstitutionResult Subs = countSubstitutions(
        M, Symbols, CG, Opts.IntraproceduralOnly ? nullptr : &Solve, MRI,
        UseRjfInSccp ? &Jfs : nullptr, &Aliases, Pool, Active,
        FlowAliases, CopyFacts);
    Result.Timings.SubstituteMs += lapMs(Phase);

    if (Opts.CompletePropagation && !Subs.Branches.empty() &&
        DeadCodeElim::wouldFold(Active->ast().program(), Subs.Branches)) {
      // The caller's program is never touched: the first fold clones it
      // (cloneProgramResolved keeps ids, so this round's decisions apply
      // to the clone unchanged). Each fold continues on a fresh session
      // over the clone, which re-lowers only the procedures DCE mutated
      // and adopts the previous session's lowering of the rest.
      if (!Folded)
        Folded = cloneProgramResolved(Session.ast());
      std::vector<ProcId> Dirty;
      Result.FoldedBranches +=
          DeadCodeElim::run(*Folded, Subs.Branches, &Dirty);
      ++Result.DceRounds;
      auto Next = std::make_unique<AnalysisSession>(*Folded, Symbols);
      Next->adoptLowering(*Active, Dirty);
      Private = std::move(Next);
      Active = Private.get();
      continue;
    }

    // Record the results of the final round.
    Result.Ok = true;
    Result.SubstitutedConstants = Subs.Total;
    Result.ConstantPrints = Subs.ConstantPrints;
    Result.PerProcSubstituted = Subs.PerProc;
    Result.JfStats = Jfs.Stats;
    Result.GvnPhiMerges = Jfs.Stats.NumGvnPhiMerges;
    Result.SolverProcVisits = Solve.ProcVisits;
    Result.SolverJfEvaluations = Solve.JfEvaluations;
    Result.SolverCellLowerings = Solve.CellLowerings;
    Result.SolverMemoHits = Solve.MemoHits;
    Result.SolverMemoMisses = Solve.MemoMisses;

    if (!Opts.IntraproceduralOnly) {
      for (ProcId P = 0, E = static_cast<ProcId>(Prog.Procs.size()); P != E;
           ++P) {
        if (!CG.isReachable(P)) {
          Result.NeverCalled.push_back(Prog.Procs[P]->name());
          continue;
        }
        for (auto [Sym, Value] : Solve.constants(P)) {
          Result.Constants[P].push_back(
              {Symbols.symbol(Sym).Name, Value});
          // Metzger & Stroud's observation: many constant globals are
          // known on entry but never referenced by the procedure.
          if (MRI && Symbols.symbol(Sym).Kind == SymbolKind::Global &&
              !MRI->refs(P, Sym))
            ++Result.KnownButIrrelevant;
        }
      }
    }

    if (Opts.EmitTransformedSource) {
      AstPrinter Printer(&Subs.Map);
      Result.TransformedSource =
          Printer.programToString(Active->ast().program());
    }
    Result.Substitutions = std::move(Subs.Map);
    Result.FoldedProgram = std::move(Folded);
    recordRunFeatures(Opts.Feedback, Result);
    Result.Timings.TotalMs +=
        std::chrono::duration<double, std::milli>(Clock::now() - RunStart)
            .count();
    return Result;
  }
}

PipelineResult ipcp::runPipeline(std::string_view Source,
                                 const PipelineOptions &Opts) {
  Clock::time_point Start = Clock::now();
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(Source, Diags);
  SymbolTable Symbols;
  if (!Diags.hasErrors())
    Symbols = Sema::run(*Ctx, Diags);
  if (Diags.hasErrors()) {
    PipelineResult Result;
    Result.Error = Diags.str();
    return Result;
  }
  double FrontendMs = lapMs(Start);
  AnalysisSession Session(*Ctx, Symbols);
  PipelineResult Result = runPipelineOnSession(Session, Opts);
  Result.Timings.FrontendMs = FrontendMs;
  Result.Timings.TotalMs += FrontendMs;
  return Result;
}
