//===- tests/AnalysisSessionTests.cpp - ipcp/AnalysisSession tests --------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental-session safety net: a warm (cached) analysis must be
/// byte-identical to a cold one for every configuration, on every suite
/// program and a sweep of random ones; DCE's dirty-set must re-lower
/// only the procedures it mutated; the solver memo must actually fire;
/// jump-function bases of distinct keys must build concurrently while
/// one key builds exactly once; and the suite runner must create exactly
/// one thread pool however its two fan-out levels are configured.
///
//===----------------------------------------------------------------------===//

#include "ipcp/AnalysisSession.h"

#include "analysis/DeadCodeElim.h"
#include "ipcp/AnalysisConfig.h"
#include "ipcp/Pipeline.h"
#include "ipcp/Solver.h"
#include "ipcp/Substitution.h"
#include "ir/IrPrinter.h"
#include "lang/AstClone.h"
#include "lang/AstPrinter.h"
#include "support/ThreadPool.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"
#include "workloads/SuiteRunner.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Serializes everything a PipelineResult reports except timings and the
/// warmth-dependent memo counters. The substitution map is keyed by
/// expression id; a complete-propagation run continues on a clone that
/// keeps the ids (and assigns new ones as an in-place fold would), so
/// the map compares exactly.
std::string fingerprint(const PipelineResult &R) {
  std::ostringstream Out;
  Out << R.Ok << '|' << R.Error << '|' << R.SubstitutedConstants << '|'
      << R.ConstantPrints << '|' << R.KnownButIrrelevant << '|'
      << R.DceRounds << '|' << R.FoldedBranches << '|' << R.AliasPairs
      << '|' << R.AliasUnstableSymbols << '\n';
  for (unsigned N : R.PerProcSubstituted)
    Out << N << ' ';
  Out << '\n';
  for (const std::string &N : R.ProcNames)
    Out << N << ' ';
  Out << '\n';
  for (const auto &Proc : R.Constants) {
    for (const auto &[Name, Value] : Proc)
      Out << Name << '=' << Value << ' ';
    Out << ';';
  }
  Out << '\n';
  for (const std::string &N : R.NeverCalled)
    Out << N << ' ';
  Out << '\n';
  const JumpFunctionStats &S = R.JfStats;
  Out << S.NumForward << ' ' << S.NumForwardConst << ' '
      << S.NumForwardPassThrough << ' ' << S.NumForwardPoly << ' '
      << S.NumForwardBottom << ' ' << S.TotalPolySupport << ' '
      << S.MaxPolySupport << ' ' << S.NumReturn << ' ' << S.NumReturnConst
      << ' ' << S.NumReturnPoly << ' ' << S.NumReturnBottom << '\n';
  // SolverMemoHits/Misses are deliberately excluded alongside Timings:
  // they measure cache effectiveness, not analysis results, and a warm
  // session's shared value-context memo legitimately replays more than a
  // cold run evaluates fresh.
  Out << R.SolverProcVisits << ' ' << R.SolverJfEvaluations << ' '
      << R.SolverCellLowerings << '\n';
  std::vector<std::pair<ExprId, int64_t>> Map(R.Substitutions.begin(),
                                               R.Substitutions.end());
  std::sort(Map.begin(), Map.end());
  for (const auto &[Id, Value] : Map)
    Out << Id << '=' << Value << ' ';
  Out << '\n' << R.TransformedSource;
  return Out.str();
}

/// One program's shared frontend + session, mirroring the suite runner's
/// Shared mode.
struct WarmProgram {
  std::unique_ptr<AstContext> Ctx;
  SymbolTable Symbols;
  std::unique_ptr<AnalysisSession> Session;
};

WarmProgram warmUp(const std::string &Source) {
  WarmProgram W;
  DiagnosticEngine Diags;
  W.Ctx = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  W.Symbols = Sema::run(*W.Ctx, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  W.Session = std::make_unique<AnalysisSession>(*W.Ctx, W.Symbols);
  return W;
}

PipelineResult warmRun(WarmProgram &W, const PipelineOptions &Opts) {
  return runPipelineOnSession(*W.Session, Opts);
}

/// Every field of a substitution pass, branch decisions included.
std::string substitutionFingerprint(const SubstitutionResult &R) {
  std::ostringstream Out;
  Out << R.Total << '|' << R.ConstantPrints << '|';
  for (unsigned N : R.PerProc)
    Out << N << ' ';
  std::vector<std::pair<ExprId, int64_t>> Map(R.Map.begin(), R.Map.end());
  std::sort(Map.begin(), Map.end());
  for (const auto &[Id, Value] : Map)
    Out << Id << '=' << Value << ' ';
  Out << '|';
  std::vector<std::pair<StmtId, bool>> Branches(R.Branches.begin(),
                                                R.Branches.end());
  std::sort(Branches.begin(), Branches.end());
  for (const auto &[Id, Taken] : Branches)
    Out << Id << (Taken ? 't' : 'f') << ' ';
  return Out.str();
}

/// The first-round substitution pass of \p Opts over \p W's session,
/// three ways: through the session's memo with the base's cached
/// return-JF keys, through the memo with keys computed from content (as
/// for session-less jump functions), and session-less from scratch.
/// All three must agree on every field, and the content-keyed lookup
/// must hit for every procedure the first one recorded.
void expectMemoReplayEqualsFresh(WarmProgram &W, const PipelineOptions &Opts,
                                 const std::string &Label) {
  AnalysisSession &S = *W.Session;
  const Module &M = S.module();
  const CallGraph &CG = S.callGraph();
  const ModRefInfo *MRI = S.modRef(Opts.UseMod);
  const RefAliasInfo &Aliases = S.refAlias(Opts.UseMod);
  const FlowAliasInfo *Flow =
      Opts.FlowSensitiveAlias ? &S.flowAlias(Opts.UseMod) : nullptr;
  const CopyPropInfo *Copy =
      Opts.CopyPropagation ? &S.copyProp(Opts.UseMod) : nullptr;
  ProgramJumpFunctions Jfs;
  SolveResult Solve;
  if (!Opts.IntraproceduralOnly) {
    Jfs = buildJumpFunctions(S, Opts);
    Solve = solveConstants(W.Symbols, CG, Jfs);
  }
  const SolveResult *SolvePtr = Opts.IntraproceduralOnly ? nullptr : &Solve;
  ProgramJumpFunctions *JfsPtr =
      !Opts.IntraproceduralOnly && Opts.UseReturnJumpFunctions ? &Jfs
                                                               : nullptr;
  auto Run = [&](AnalysisSession *Session) {
    return substitutionFingerprint(
        countSubstitutions(M, W.Symbols, CG, SolvePtr, MRI, JfsPtr, &Aliases,
                           nullptr, Session, Flow, Copy));
  };
  std::string Fresh = Run(nullptr);
  EXPECT_EQ(Run(&S), Fresh) << Label;
  if (JfsPtr)
    JfsPtr->RjfKeys = nullptr;
  uint64_t Hits = S.substitutionMemo().hits();
  EXPECT_EQ(Run(&S), Fresh) << Label << " (content-keyed)";
  EXPECT_EQ(S.substitutionMemo().hits(), Hits + CG.topDownOrder().size())
      << Label << " (content-keyed)";
}

/// Runs every configuration on one warm session forward, then in reverse
/// (so each configuration also meets a memo warmed by the ones after
/// it), and checks each run against a cold runPipeline and each
/// first-round substitution pass against a session-less one.
void expectWarmEqualsColdBothOrders(const std::string &Source,
                                    const std::string &Label) {
  std::vector<SuiteConfig> Configs = allConfigs();
  std::vector<std::string> Cold;
  for (const SuiteConfig &C : Configs) {
    PipelineOptions Opts = C.Opts;
    Opts.EmitTransformedSource = true;
    Cold.push_back(fingerprint(runPipeline(Source, Opts)));
  }
  WarmProgram W = warmUp(Source);
  std::vector<size_t> Order(Configs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  for (bool Reverse : {false, true}) {
    if (Reverse)
      std::reverse(Order.begin(), Order.end());
    for (size_t I : Order) {
      PipelineOptions Opts = Configs[I].Opts;
      Opts.EmitTransformedSource = true;
      std::string Where = Label + " under " + Configs[I].Name +
                          (Reverse ? " (reverse)" : " (forward)");
      EXPECT_EQ(fingerprint(warmRun(W, Opts)), Cold[I]) << Where;
      expectMemoReplayEqualsFresh(W, Opts, Where);
    }
  }
  EXPECT_GT(W.Session->substitutionMemo().hits(), 0u) << Label;
}

/// Runs every config cold (fresh parse + fresh session per run) and warm
/// (one shared session, configs in sequence so later ones hit the
/// caches) and compares fingerprints.
void expectColdEqualsWarm(const std::string &Source,
                          const std::string &Label) {
  WarmProgram W = warmUp(Source);
  for (const SuiteConfig &C : allConfigs()) {
    PipelineOptions Opts = C.Opts;
    Opts.EmitTransformedSource = true;
    PipelineResult Cold = runPipeline(Source, Opts);
    PipelineResult Warm = warmRun(W, Opts);
    EXPECT_EQ(fingerprint(Cold), fingerprint(Warm))
        << Label << " diverged under config " << C.Name;
  }
}

} // namespace

TEST(AnalysisSession, ColdVsWarmFingerprintsOnSuitePrograms) {
  for (const WorkloadProgram &P : benchmarkSuite())
    expectColdEqualsWarm(P.Source, P.Name);
}

TEST(AnalysisSession, ColdVsWarmFingerprintsOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    RandomSpec Spec;
    Spec.Seed = Seed;
    Spec.AllowRecursion = Seed % 3 == 0; // Exercise the recursive-proc
                                         // stage-2 rebuild path too.
    expectColdEqualsWarm(generateRandomProgram(Spec),
                         "random seed " + std::to_string(Seed));
  }
}

TEST(AnalysisSession, WarmEqualsColdBothOrdersOnExtendedSuite) {
  for (const WorkloadProgram &P : extendedSuite())
    expectWarmEqualsColdBothOrders(P.Source, P.Name);
}

TEST(AnalysisSession, WarmEqualsColdBothOrdersOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    RandomSpec Spec;
    Spec.Seed = Seed;
    Spec.AllowRecursion = Seed % 3 == 0;
    expectWarmEqualsColdBothOrders(generateRandomProgram(Spec),
                                   "random seed " + std::to_string(Seed));
  }
}

TEST(AnalysisSession, SubstitutionMemoKeysTheEffectiveAliasGating) {
  // p's formals are bound to the same two variables by two call sites,
  // so the flow-insensitive binding sets intersect and x, y are unstable
  // (x is written). No single site passes one location twice, so the
  // flow-sensitive facts of p are trivial and gate nothing. Under the
  // same seeds and return jump functions (the flow-sensitive ones, which
  // see x = y = 1 at both sites), the mask hides y's constant and the
  // trivial flow facts do not: a hit across the two would be wrong.
  const char *Source = R"(proc main()
  integer a, b
  a = 1
  b = 1
  call p(a, b)
  call p(b, a)
end
proc p(x, y)
  x = 1
  print y
end
)";
  WarmProgram W = warmUp(Source);
  AnalysisSession &S = *W.Session;
  ProcId P = *W.Ctx->program().findProc("p");
  const Module &M = S.module();
  const CallGraph &CG = S.callGraph();
  const ModRefInfo *MRI = S.modRef(true);
  const RefAliasInfo &Aliases = S.refAlias(true);
  const FlowAliasInfo &Flow = S.flowAlias(true);
  ASSERT_TRUE(Aliases.anyUnstable(P));
  ASSERT_TRUE(Flow.proc(P).trivial());

  ProgramJumpFunctions Jfs = buildJumpFunctions(S, optionsFromFlags("--fsa"));
  SolveResult Solve = solveConstants(W.Symbols, CG, Jfs);
  auto Count = [&](AnalysisSession *Session, const FlowAliasInfo *F) {
    return countSubstitutions(M, W.Symbols, CG, &Solve, MRI, &Jfs, &Aliases,
                              nullptr, Session, F);
  };
  SubstitutionResult Masked = Count(&S, nullptr);
  uint64_t Hits = S.substitutionMemo().hits();
  uint64_t Misses = S.substitutionMemo().misses();
  SubstitutionResult Gated = Count(&S, &Flow);
  // main keys identically (no aliased formals); p alone misses.
  EXPECT_EQ(S.substitutionMemo().misses(), Misses + 1);
  EXPECT_EQ(S.substitutionMemo().hits(), Hits + 1);
  EXPECT_LT(Masked.PerProc[P], Gated.PerProc[P]);
  EXPECT_EQ(substitutionFingerprint(Masked),
            substitutionFingerprint(Count(nullptr, nullptr)));
  EXPECT_EQ(substitutionFingerprint(Gated),
            substitutionFingerprint(Count(nullptr, &Flow)));
}

TEST(AnalysisSession, CompletePropagationLeavesTheSharedProgramIntact) {
  // Complete propagation's first round runs on the shared session; only
  // a fold moves it onto a private clone. The shared AST must print the
  // same before and after, and the two programs that fold keep their
  // Table 3 results.
  for (const WorkloadProgram &P : benchmarkSuite()) {
    WarmProgram W = warmUp(P.Source);
    AstPrinter Printer;
    std::string Before = Printer.programToString(W.Ctx->program());
    PipelineOptions Opts;
    Opts.CompletePropagation = true;
    PipelineResult R = runPipelineOnSession(*W.Session, Opts);
    ASSERT_TRUE(R.Ok) << P.Name << ": " << R.Error;
    EXPECT_EQ(Printer.programToString(W.Ctx->program()), Before) << P.Name;
    if (P.Name == "ocean" || P.Name == "spec77") {
      EXPECT_EQ(R.DceRounds, 1u) << P.Name;
      EXPECT_EQ(R.SubstitutedConstants, P.Name == "ocean" ? 204u : 141u);
    }
    // The shared session is still usable, and still agrees with a cold
    // run of the same configuration.
    PipelineResult Again = runPipelineOnSession(*W.Session, Opts);
    EXPECT_EQ(fingerprint(Again), fingerprint(R)) << P.Name;
  }
}

TEST(AnalysisSession, EightThreadsShareOneSession) {
  // Every configuration, complete propagation included, from 8 threads
  // at once over one session (each thread starts at a different
  // configuration), against cold runs. TSan runs this too.
  const WorkloadProgram &Prog = *std::find_if(
      benchmarkSuite().begin(), benchmarkSuite().end(),
      [](const WorkloadProgram &P) { return P.Name == "ocean"; });
  std::vector<SuiteConfig> Configs = allConfigs();
  std::vector<std::string> Cold;
  for (const SuiteConfig &C : Configs) {
    PipelineOptions Opts = C.Opts;
    Opts.EmitTransformedSource = true;
    Cold.push_back(fingerprint(runPipeline(Prog.Source, Opts)));
  }
  WarmProgram W = warmUp(Prog.Source);
  constexpr unsigned NumThreads = 8;
  std::vector<std::vector<std::string>> Got(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Got[T].resize(Configs.size());
      for (size_t K = 0; K != Configs.size(); ++K) {
        size_t I = (K + T) % Configs.size();
        PipelineOptions Opts = Configs[I].Opts;
        Opts.EmitTransformedSource = true;
        Got[T][I] = fingerprint(runPipelineOnSession(*W.Session, Opts));
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (unsigned T = 0; T != NumThreads; ++T)
    for (size_t I = 0; I != Configs.size(); ++I)
      EXPECT_EQ(Got[T][I], Cold[I])
          << "thread " << T << " under " << Configs[I].Name;
  EXPECT_GT(W.Session->substitutionMemo().hits(), 0u);
}

TEST(AnalysisSession, DceDirtySetRelowersOnlyMutatedProcs) {
  // Only 'produce' contains a branch the seeded SCCP can fold (flag is
  // the constant 0). A session over the folded clone that adopts the
  // original session's lowering must lower 'produce' alone, and lower
  // exactly what a cold session over the clone lowers.
  const char *Source = R"(proc main()
  call produce(0)
  call clean(3)
end
proc produce(flag)
  integer v
  v = 8
  if (flag == 1) then
    read v
  end if
  call consume(v)
end
proc consume(p)
  print p
end
proc clean(q)
  print q
end
)";
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(Source, Diags);
  SymbolTable Symbols = Sema::run(*Ctx, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ProcId Produce = *Ctx->program().findProc("produce");

  AnalysisSession Session(*Ctx, Symbols);
  const Module &M = Session.module();
  EXPECT_EQ(Session.stats().ProcsLowered, 4u);
  EXPECT_EQ(Session.stats().ProcsRelowered, 0u);

  const CallGraph &CG = Session.callGraph();
  const ModRefInfo *MRI = Session.modRef(true);
  const RefAliasInfo &Aliases = Session.refAlias(true);
  JumpFunctionOptions JfOpts;
  ProgramJumpFunctions Jfs = buildJumpFunctions(
      M, Symbols, CG, MRI, JfOpts, &Aliases, nullptr, &Session);
  SolveResult Solve = solveConstants(Symbols, CG, Jfs);
  SubstitutionResult Subs =
      countSubstitutions(M, Symbols, CG, &Solve, MRI, &Jfs, &Aliases,
                         nullptr, &Session);
  ASSERT_FALSE(Subs.Branches.empty());

  std::string Original = AstPrinter().programToString(Ctx->program());
  std::unique_ptr<AstContext> Clone = cloneProgramResolved(*Ctx);
  std::vector<ProcId> Dirty;
  unsigned Folded = DeadCodeElim::run(*Clone, Subs.Branches, &Dirty);
  EXPECT_GE(Folded, 1u);
  EXPECT_EQ(Dirty, (std::vector<ProcId>{Produce}));
  EXPECT_EQ(AstPrinter().programToString(Ctx->program()), Original);

  AnalysisSession Private(*Clone, Symbols);
  Private.adoptLowering(Session, Dirty);
  const Module &Adopted = Private.module();
  EXPECT_EQ(Private.stats().ProcsLowered, 1u);
  EXPECT_EQ(Private.stats().ProcsRelowered, 1u);
  EXPECT_EQ(Session.stats().ProcsLowered, 4u);

  AnalysisSession Cold(*Clone, Symbols);
  const Module &Fresh = Cold.module();
  EXPECT_EQ(Cold.stats().ProcsRelowered, 0u);
  for (ProcId P = 0; P != Fresh.Functions.size(); ++P) {
    std::ostringstream Want, Got;
    printFunction(Fresh.function(P), Symbols, Want);
    printFunction(Adopted.function(P), Symbols, Got);
    EXPECT_EQ(Got.str(), Want.str()) << "procedure " << P;
  }
}

TEST(AnalysisSession, MultiRoundFoldLeavesSharedSessionUntouched) {
  // Complete propagation on a warm, shared session folds twice, each
  // time on a private clone: the shared program prints the same before
  // and after, and the report is the one a cold runPipeline gives.
  WarmProgram W = warmUp(TwoRoundSource);
  PipelineResult Plain = warmRun(W, PipelineOptions());
  ASSERT_TRUE(Plain.Ok) << Plain.Error;
  EXPECT_EQ(Plain.FoldedProgram, nullptr);
  std::string Before = AstPrinter().programToString(W.Ctx->program());

  PipelineOptions Opts;
  Opts.CompletePropagation = true;
  Opts.EmitTransformedSource = true;
  PipelineResult R = warmRun(W, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.DceRounds, 2u);
  EXPECT_EQ(R.FoldedBranches, 2u);
  ASSERT_NE(R.FoldedProgram, nullptr);
  EXPECT_EQ(AstPrinter().programToString(W.Ctx->program()), Before);
  EXPECT_NE(AstPrinter().programToString(R.FoldedProgram->program()),
            Before);
  EXPECT_EQ(fingerprint(R), fingerprint(runPipeline(TwoRoundSource, Opts)));

  // The folded program is returned exactly when something folded.
  for (const WorkloadProgram &P : benchmarkSuite()) {
    WarmProgram Suite = warmUp(P.Source);
    PipelineResult S = warmRun(Suite, Opts);
    ASSERT_TRUE(S.Ok) << P.Name << ": " << S.Error;
    EXPECT_EQ(S.FoldedProgram != nullptr, S.FoldedBranches != 0) << P.Name;
  }
}

TEST(AnalysisSession, SolverMemoHitsOnRevisits) {
  // Round-robin sweeps until a whole pass changes nothing, so its final
  // sweep revisits every procedure under an already-seen value context —
  // the memo must serve those replays, and the results must match the
  // worklist strategy exactly.
  const WorkloadProgram &W = benchmarkSuite().front();
  PipelineOptions RoundRobin;
  RoundRobin.Strategy = SolverStrategy::RoundRobin;
  PipelineResult R = runPipeline(W.Source, RoundRobin);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.SolverMemoHits, 0u);
  EXPECT_GT(R.SolverMemoMisses, 0u);

  PipelineResult Base = runPipeline(W.Source, PipelineOptions());
  ASSERT_TRUE(Base.Ok) << Base.Error;
  EXPECT_EQ(R.SubstitutedConstants, Base.SubstitutedConstants);
  EXPECT_EQ(R.ConstantPrints, Base.ConstantPrints);
  EXPECT_EQ(R.SolverCellLowerings, Base.SolverCellLowerings);
}

TEST(AnalysisSession, CrossConfigReplayKeepsFingerprintsByteIdentical) {
  // Every config that runs on one session shares its value-context memo.
  // Sweeping all configs once warms the memo with contexts from *other*
  // configs' solves; sweeping again replays largely out of the memo.
  // Both sweeps must produce byte-identical fingerprints per config —
  // memoized contexts may short-circuit work, never change results.
  for (size_t PI : {size_t(0), benchmarkSuite().size() - 1}) {
    const WorkloadProgram &P = benchmarkSuite()[PI];
    WarmProgram W = warmUp(P.Source);
    std::vector<std::string> FirstSweep;
    for (const SuiteConfig &C : allConfigs()) {
      PipelineOptions Opts = C.Opts;
      Opts.EmitTransformedSource = true;
      FirstSweep.push_back(fingerprint(warmRun(W, Opts)));
    }
    uint64_t MissesAfterFirst = W.Session->solverMemo().misses();
    EXPECT_GT(MissesAfterFirst, 0u) << P.Name;

    size_t I = 0;
    for (const SuiteConfig &C : allConfigs()) {
      PipelineOptions Opts = C.Opts;
      Opts.EmitTransformedSource = true;
      EXPECT_EQ(FirstSweep[I++], fingerprint(warmRun(W, Opts)))
          << P.Name << " replay diverged under config " << C.Name;
    }
    // The replay sweep resolves previously-seen contexts from the memo:
    // hits must have grown, and no new contexts may have been admitted.
    EXPECT_GT(W.Session->solverMemo().hits(), 0u) << P.Name;
    EXPECT_EQ(W.Session->solverMemo().misses(), MissesAfterFirst) << P.Name;
  }
}

TEST(AnalysisSession, DistinctJfBaseKeysBuildConcurrently) {
  // Each key's Build announces that it started, then waits (bounded) for
  // the other key's Build to start too. Were one lock held across every
  // Build, the first builder would wait out the timeout for a build that
  // cannot start until it returns.
  WarmProgram W = warmUp(benchmarkSuite().front().Source);
  JumpFunctionOptions Keys[2];
  Keys[1].UseMod = false;
  ASSERT_NE(jumpFunctionFlagBits(Keys[0]), jumpFunctionFlagBits(Keys[1]));

  std::mutex M;
  std::condition_variable CV;
  unsigned Started = 0;
  bool SawOther[2] = {false, false};
  auto Request = [&](size_t K) {
    W.Session->jfBase(Keys[K], [&](AnalysisSession::JfBase &) {
      std::unique_lock<std::mutex> Lock(M);
      ++Started;
      CV.notify_all();
      SawOther[K] = CV.wait_for(Lock, std::chrono::seconds(10),
                                [&] { return Started == 2; });
    });
  };
  std::thread T0(Request, 0), T1(Request, 1);
  T0.join();
  T1.join();
  EXPECT_TRUE(SawOther[0]);
  EXPECT_TRUE(SawOther[1]);
  EXPECT_EQ(W.Session->stats().JfBasesBuilt, 2u);
  EXPECT_EQ(W.Session->stats().JfBasesReused, 0u);
}

TEST(AnalysisSession, SameJfBaseKeyBuildsOnce) {
  // N threads request one key at once: one builds (slowly, so the others
  // arrive mid-build), the rest wait on the slot and reuse its base.
  constexpr unsigned N = 8;
  WarmProgram W = warmUp(benchmarkSuite().front().Source);
  JumpFunctionOptions Opts;
  std::atomic<unsigned> Builds{0}, Ready{0};
  const AnalysisSession::JfBase *Got[N] = {};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != N; ++T)
    Threads.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (Ready.load() != N)
        std::this_thread::yield();
      Got[T] = &W.Session->jfBase(Opts, [&](AnalysisSession::JfBase &) {
        Builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      });
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Builds.load(), 1u);
  EXPECT_EQ(W.Session->stats().JfBasesBuilt, 1u);
  EXPECT_EQ(W.Session->stats().JfBasesReused, N - 1);
  for (unsigned T = 1; T != N; ++T)
    EXPECT_EQ(Got[T], Got[0]);
}

TEST(AnalysisSession, BatchFanoutCreatesExactlyOnePool) {
  // Jobs != 1 clamps per-cell threads to 1: the requested ThreadsPerRun=8
  // must NOT spawn nested pools under the batch pool.
  std::vector<WorkloadProgram> Programs(benchmarkSuite().begin(),
                                        benchmarkSuite().begin() + 2);
  std::vector<SuiteConfig> Configs = table3Configs();
  uint64_t Before = ThreadPool::poolsCreated();
  SuiteRunResult R = runSuite(Programs, Configs, /*Jobs=*/4,
                              /*ThreadsPerRun=*/8);
  EXPECT_EQ(ThreadPool::poolsCreated() - Before, 1u);
  for (const SuiteCell &Cell : R.Cells)
    EXPECT_TRUE(Cell.Ok);

  // Jobs == 1 with per-cell threads: one pool, shared by every cell.
  Before = ThreadPool::poolsCreated();
  runSuite(Programs, Configs, /*Jobs=*/1, /*ThreadsPerRun=*/4);
  EXPECT_EQ(ThreadPool::poolsCreated() - Before, 1u);
}

TEST(AnalysisSession, InjectedPoolSuppressesPoolCreation) {
  const WorkloadProgram &W = benchmarkSuite().front();
  PipelineOptions Serial;
  Serial.EmitTransformedSource = true;
  PipelineResult Base = runPipeline(W.Source, Serial);

  ThreadPool Shared(4);
  uint64_t Before = ThreadPool::poolsCreated();
  PipelineOptions Injected = Serial;
  Injected.Threads = 8; // Ignored: the injected pool wins.
  Injected.Pool = &Shared;
  PipelineResult R = runPipeline(W.Source, Injected);
  EXPECT_EQ(ThreadPool::poolsCreated() - Before, 0u);
  EXPECT_EQ(fingerprint(R), fingerprint(Base));
}

TEST(AnalysisSession, SharedSuitePlumbsTimingsAndCacheStats) {
  SuiteRunResult R = runSuite(benchmarkSuite(), allConfigs(), /*Jobs=*/1,
                              /*ThreadsPerRun=*/1, SuiteSharing::Shared);
  ASSERT_EQ(R.Cells.size(), R.NumPrograms * R.NumConfigs);
  for (const SuiteCell &Cell : R.Cells) {
    EXPECT_TRUE(Cell.Ok) << Cell.Program << '/' << Cell.Config;
    EXPECT_GT(Cell.Timings.TotalMs, 0.0)
        << Cell.Program << '/' << Cell.Config;
  }
  EXPECT_GT(R.FrontendMs, 0.0);
  // Four Table 2 kinds share each (UseMod, UseRjf, Gated) base, and both
  // stage 2 and the substitution pass read the cached SSA.
  EXPECT_GT(R.Cache.JfBasesReused, 0u);
  EXPECT_GT(R.Cache.SsaReused, 0u);
  EXPECT_GT(R.Cache.VnReused, 0u);
  // Complete cells fold only on private clones.
  EXPECT_EQ(R.Cache.ProcsRelowered, 0u);
  EXPECT_GT(R.Cache.SubstMemoHits, 0u);
  EXPECT_GT(R.Cache.SubstMemoMisses, 0u);
}
