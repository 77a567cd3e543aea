//===- tests/ParallelPipelineTests.cpp - Thread-count determinism ---------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
// The parallel execution layer's contract: a pipeline run at any thread
// count produces a PipelineResult byte-identical to the serial run —
// every count, every set, every stats counter, the transformed source —
// and the batched suite runner is likewise deterministic for any job
// count. Also checks the wave-scheduling invariant the jump-function
// builder's stage 1 relies on.
//
//===----------------------------------------------------------------------===//

#include "ipcp/Pipeline.h"

#include "TestHelpers.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"
#include "workloads/SuiteRunner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

using namespace ipcp;

namespace {

/// Serializes every deterministic field of a PipelineResult (everything
/// except Timings) so runs can be compared byte-for-byte.
std::string fingerprint(const PipelineResult &R) {
  std::ostringstream OS;
  OS << R.Ok << '|' << R.Error << '|' << R.SubstitutedConstants << '|'
     << R.ConstantPrints << '|' << R.KnownButIrrelevant << '|'
     << R.DceRounds << '|' << R.FoldedBranches << '\n';
  OS << "perproc:";
  for (unsigned N : R.PerProcSubstituted)
    OS << ' ' << N;
  OS << "\nprocs:";
  for (const std::string &Name : R.ProcNames)
    OS << ' ' << Name;
  OS << "\nconstants:\n";
  for (size_t P = 0; P != R.Constants.size(); ++P) {
    OS << "  [" << P << "]";
    for (const auto &[Name, Value] : R.Constants[P])
      OS << " (" << Name << ',' << Value << ')';
    OS << '\n';
  }
  OS << "nevercalled:";
  for (const std::string &Name : R.NeverCalled)
    OS << ' ' << Name;
  const JumpFunctionStats &S = R.JfStats;
  OS << "\njfstats: " << S.NumForward << ' ' << S.NumForwardConst << ' '
     << S.NumForwardPassThrough << ' ' << S.NumForwardPoly << ' '
     << S.NumForwardBottom << ' ' << S.TotalPolySupport << ' '
     << S.MaxPolySupport << ' ' << S.NumReturn << ' ' << S.NumReturnConst
     << ' ' << S.NumReturnPoly << ' ' << S.NumReturnBottom;
  OS << "\nsolver: " << R.SolverProcVisits << ' ' << R.SolverJfEvaluations
     << ' ' << R.SolverCellLowerings;
  // Order the substitution map for a stable rendering.
  std::map<ExprId, int64_t> Subs(R.Substitutions.begin(),
                                 R.Substitutions.end());
  OS << "\nsubs:";
  for (const auto &[Id, Value] : Subs)
    OS << ' ' << Id << '=' << Value;
  OS << "\nsource:" << R.TransformedSource;
  return OS.str();
}

std::string runFingerprint(const std::string &Source, PipelineOptions Opts,
                           unsigned Threads) {
  Opts.Threads = Threads;
  Opts.EmitTransformedSource = true;
  PipelineResult R = runPipeline(Source, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  return fingerprint(R);
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole-suite determinism under the default configuration.
//===----------------------------------------------------------------------===//

class ParallelSuiteTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelSuiteTest, ByteIdenticalAtAnyThreadCount) {
  const WorkloadProgram &W = benchmarkSuite()[GetParam()];
  PipelineOptions Opts;
  std::string Serial = runFingerprint(W.Source, Opts, 1);
  EXPECT_EQ(Serial, runFingerprint(W.Source, Opts, 2));
  EXPECT_EQ(Serial, runFingerprint(W.Source, Opts, 8));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ParallelSuiteTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return benchmarkSuite()[Info.param].Name;
    });

//===----------------------------------------------------------------------===//
// Determinism across configurations that stress different phase mixes.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, EveryConfigIsThreadCountInvariant) {
  const WorkloadProgram &Ocean = benchmarkSuite()[6];
  std::vector<PipelineOptions> Configs;
  {
    PipelineOptions O;
    Configs.push_back(O); // default polynomial
    O.Kind = JumpFunctionKind::Literal;
    Configs.push_back(O);
    O = PipelineOptions();
    O.UseReturnJumpFunctions = false;
    Configs.push_back(O);
    O = PipelineOptions();
    O.UseMod = false;
    Configs.push_back(O);
    O = PipelineOptions();
    O.CompletePropagation = true;
    Configs.push_back(O);
    O = PipelineOptions();
    O.UseGatedSsa = true;
    Configs.push_back(O);
    O = PipelineOptions();
    O.IntraproceduralOnly = true;
    Configs.push_back(O);
    O = PipelineOptions();
    O.Strategy = SolverStrategy::BindingGraph;
    Configs.push_back(O);
  }
  for (size_t I = 0; I != Configs.size(); ++I) {
    // CompletePropagation folds a private clone, so every run of a
    // configuration analyzes the same program.
    std::string Serial = runFingerprint(Ocean.Source, Configs[I], 1);
    EXPECT_EQ(Serial, runFingerprint(Ocean.Source, Configs[I], 4))
        << "config " << I;
  }
}

TEST(ParallelPipeline, RandomProgramsAreThreadCountInvariant) {
  for (uint64_t Seed = 1; Seed != 13; ++Seed) {
    RandomSpec Spec;
    Spec.Seed = Seed;
    Spec.Procs = 6 + int(Seed % 5);
    Spec.Globals = 2 + int(Seed % 3);
    Spec.AllowRecursion = Seed % 2 == 0;
    std::string Source = generateRandomProgram(Spec);
    PipelineOptions Opts;
    EXPECT_EQ(runFingerprint(Source, Opts, 1),
              runFingerprint(Source, Opts, 4))
        << "seed " << Seed;
  }
}

TEST(ParallelPipeline, ThreadsZeroMeansHardwareAndStaysIdentical) {
  const WorkloadProgram &W = benchmarkSuite()[0];
  PipelineOptions Opts;
  EXPECT_EQ(runFingerprint(W.Source, Opts, 1),
            runFingerprint(W.Source, Opts, 0));
}

//===----------------------------------------------------------------------===//
// Wave scheduling: the invariant stage 1 of the builder depends on.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, CallAdjacencyWavesAreAValidSchedule) {
  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    RandomSpec Spec;
    Spec.Seed = Seed;
    Spec.Procs = 8;
    Spec.AllowRecursion = true;
    test::FullAnalysis A = test::analyze(generateRandomProgram(Spec));

    const std::vector<ProcId> &Order = A.CG->bottomUpOrder();
    auto Waves = callAdjacencyWaves(*A.CG, Order);

    // Concatenated waves are a permutation of the order's indices.
    std::vector<size_t> Flat;
    std::vector<uint32_t> WaveOf(A.CG->numProcs(), UINT32_MAX);
    for (size_t W = 0; W != Waves.size(); ++W)
      for (size_t I : Waves[W]) {
        Flat.push_back(I);
        WaveOf[Order[I]] = static_cast<uint32_t>(W);
      }
    std::sort(Flat.begin(), Flat.end());
    ASSERT_EQ(Flat.size(), Order.size());
    for (size_t I = 0; I != Flat.size(); ++I)
      EXPECT_EQ(Flat[I], I);

    // Every call-adjacent pair sits in distinct waves, ordered like the
    // serial schedule.
    std::vector<uint32_t> Pos(A.CG->numProcs(), UINT32_MAX);
    for (size_t I = 0; I != Order.size(); ++I)
      Pos[Order[I]] = static_cast<uint32_t>(I);
    for (ProcId P : Order)
      for (const CallSite &S : A.CG->callSitesIn(P)) {
        if (S.Callee == P || Pos[S.Callee] == UINT32_MAX)
          continue;
        uint32_t Earlier = Pos[S.Callee] < Pos[P] ? S.Callee : P;
        uint32_t Later = Earlier == P ? S.Callee : P;
        EXPECT_LT(WaveOf[Earlier], WaveOf[Later])
            << "seed " << Seed << ": call edge " << P << "->" << S.Callee;
      }
  }
}

//===----------------------------------------------------------------------===//
// The batched suite runner.
//===----------------------------------------------------------------------===//

namespace {

std::string batchFingerprint(const SuiteRunResult &R) {
  std::ostringstream OS;
  for (const SuiteCell &Cell : R.Cells)
    OS << Cell.Program << '/' << Cell.Config << ": " << Cell.Ok << ' '
       << Cell.SubstitutedConstants << ' ' << Cell.ConstantPrints << '\n';
  return OS.str();
}

} // namespace

TEST(SuiteRunner, DeterministicAcrossJobCounts) {
  auto Configs = table3Configs();
  SuiteRunResult Serial = runSuite(benchmarkSuite(), Configs, 1);
  SuiteRunResult Par4 = runSuite(benchmarkSuite(), Configs, 4);
  SuiteRunResult Par8 = runSuite(benchmarkSuite(), Configs, 8);
  EXPECT_EQ(batchFingerprint(Serial), batchFingerprint(Par4));
  EXPECT_EQ(batchFingerprint(Serial), batchFingerprint(Par8));
  EXPECT_EQ(Serial.NumPrograms, benchmarkSuite().size());
  EXPECT_EQ(Serial.NumConfigs, Configs.size());
  EXPECT_EQ(Serial.TotalSubstituted, Par4.TotalSubstituted);
}

TEST(SuiteRunner, CacheCountersDeterministicAcrossJobCounts) {
  // Each session's counters are snapshotted by whichever cell finishes
  // its program last, just before the session is freed; no job count may
  // lose a counter. The memo counters are left out: which cell records a
  // value context first depends on scheduling.
  auto Deterministic = [](const SessionStats &S) {
    return std::vector<uint64_t>{S.ProcsLowered,  S.ProcsRelowered,
                                 S.SsaBuilt,      S.SsaReused,
                                 S.VnBuilt,       S.VnReused,
                                 S.JfBasesBuilt,  S.JfBasesReused};
  };
  auto Configs = allConfigs();
  // The reference: every program's cells run by hand on one session,
  // its counters read after the last one. Complete propagation is one of
  // them: its first round reads the shared session, and only its later
  // rounds (ocean, spec77) move to a private clone whose counters are
  // not the session's.
  SessionStats Want;
  for (const WorkloadProgram &P : extendedSuite()) {
    DiagnosticEngine Diags;
    auto Ctx = parseProgram(P.Source, Diags);
    SymbolTable Symbols = Sema::run(*Ctx, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << P.Name;
    AnalysisSession Session(*Ctx, Symbols);
    for (const SuiteConfig &C : Configs)
      ASSERT_TRUE(runPipelineOnSession(Session, C.Opts).Ok) << P.Name;
    Want += Session.stats();
  }
  EXPECT_GT(Want.JfBasesBuilt, 0u);
  EXPECT_GT(Want.JfBasesReused, 0u);

  SuiteRunResult Serial = runSuite(extendedSuite(), Configs, 1);
  EXPECT_EQ(Deterministic(Want), Deterministic(Serial.Cache));
  for (unsigned Jobs : {4u, 8u}) {
    SuiteRunResult Par = runSuite(extendedSuite(), Configs, Jobs);
    EXPECT_EQ(batchFingerprint(Serial), batchFingerprint(Par))
        << "jobs=" << Jobs;
    EXPECT_EQ(Deterministic(Serial.Cache), Deterministic(Par.Cache))
        << "jobs=" << Jobs;
  }
}

TEST(SuiteRunner, ConfigSetsAreWellFormed) {
  EXPECT_EQ(table2Configs().size(), 10u);
  EXPECT_EQ(table3Configs().size(), 3u);
  EXPECT_EQ(allConfigs().size(), 13u);
  EXPECT_EQ(configsByName("all").size(), 13u);
  EXPECT_EQ(configsByName("table2").size(), 10u);
  EXPECT_EQ(configsByName("table3").size(), 3u);
  EXPECT_TRUE(configsByName("nonsense").empty());
  // Config names are unique (they become table columns).
  auto Configs = allConfigs();
  for (size_t I = 0; I != Configs.size(); ++I)
    for (size_t J = I + 1; J != Configs.size(); ++J)
      EXPECT_NE(Configs[I].Name, Configs[J].Name);
}

TEST(SuiteRunner, CellsMatchDirectPipelineRuns) {
  // Spot-check the batch against direct runPipeline calls.
  auto Configs = table2Configs();
  std::vector<WorkloadProgram> Programs = {benchmarkSuite()[6]}; // ocean
  SuiteRunResult Batch = runSuite(Programs, Configs, 4);
  for (size_t C = 0; C != Configs.size(); ++C) {
    PipelineResult Direct =
        runPipeline(Programs[0].Source, Configs[C].Opts);
    ASSERT_TRUE(Direct.Ok);
    EXPECT_EQ(Batch.cell(0, C).SubstitutedConstants,
              Direct.SubstitutedConstants)
        << Configs[C].Name;
  }
}
