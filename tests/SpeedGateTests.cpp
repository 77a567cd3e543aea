//===- tests/SpeedGateTests.cpp - Wall-clock gates on the hot paths -------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speedups three subsystems exist for, asserted as ratios of two
/// wall clocks measured back to back on the same box:
///
///   - the shared suite batch (one AnalysisSession per program) against
///     the per-cell batch that re-parses and re-analyzes every cell;
///   - 90%-repeat serve traffic (answered from the reply cache) against
///     0%-repeat traffic that pays the full frontend and pipeline;
///   - the bytecode VM against the AST interpreter on the fuzz-shaped
///     random workload.
///
/// Each gate also checks that the fast side computed the same thing as
/// the slow one: identical suite cells, replies byte-identical to a local
/// render, identical run records. Absolute numbers are perfbench's job
/// (`grid`, `serve-mix`, `fuzz`); these tests only hold the ratios.
///
/// Built as its own binary (ipcp_speed_gate_tests) under the
/// 'check-bench' label, run serially so that no other test competes for
/// the cores while a wall clock runs. Sanitizer builds tax the two sides
/// of a ratio unevenly, so there the suite gate only asks that warm is no
/// slower than cold and the VM gate drops to 2x.
///
//===----------------------------------------------------------------------===//

#include "exec/ExecEngine.h"
#include "ipcp/Pipeline.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "serve/Json.h"
#include "serve/Render.h"
#include "serve/Server.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"
#include "workloads/SuiteRunner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace ipcp;

namespace {

using Clock = std::chrono::steady_clock;

#ifdef IPCP_SANITIZED_GATES
constexpr double kMinWarmSpeedup = 1.0;
constexpr double kMinVmSpeedup = 2.0;
#else
constexpr double kMinWarmSpeedup = 2.0;
constexpr double kMinVmSpeedup = 10.0;
#endif
constexpr double kMinMemoHitRate = 0.3;
constexpr double kMinServeSpeedup = 2.0;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

//===----------------------------------------------------------------------===//
// Suite batch: Shared vs PerCell
//===----------------------------------------------------------------------===//

TEST(SpeedGate, SharedSuiteBatchBeatsPerCell) {
  const std::vector<WorkloadProgram> Programs = extendedSuite();
  const std::vector<SuiteConfig> Configs = allConfigs();

  // Best of three alternating runs keeps scheduler noise out of the
  // gate; the first cold run also warms up both modes.
  SuiteRunResult Cold, Warm;
  for (unsigned I = 0; I != 3; ++I) {
    SuiteRunResult C =
        runSuite(Programs, Configs, 1, 1, SuiteSharing::PerCell);
    SuiteRunResult W = runSuite(Programs, Configs, 1, 1, SuiteSharing::Shared);
    if (I == 0 || C.WallMs < Cold.WallMs)
      Cold = std::move(C);
    if (I == 0 || W.WallMs < Warm.WallMs)
      Warm = std::move(W);
  }

  ASSERT_EQ(Cold.Cells.size(), Programs.size() * Configs.size());
  ASSERT_EQ(Warm.Cells.size(), Cold.Cells.size());
  uint64_t MemoHits = 0, MemoMisses = 0;
  for (size_t I = 0; I != Cold.Cells.size(); ++I) {
    const SuiteCell &A = Cold.Cells[I], &B = Warm.Cells[I];
    EXPECT_TRUE(A.Ok) << A.Program << '/' << A.Config;
    EXPECT_TRUE(A.Program == B.Program && A.Config == B.Config &&
                A.Ok == B.Ok &&
                A.SubstitutedConstants == B.SubstitutedConstants &&
                A.ConstantPrints == B.ConstantPrints)
        << "warm diverged from cold on " << A.Program << '/' << A.Config
        << ": substituted " << A.SubstitutedConstants << " vs "
        << B.SubstitutedConstants << ", prints " << A.ConstantPrints
        << " vs " << B.ConstantPrints;
    MemoHits += B.SolverMemoHits;
    MemoMisses += B.SolverMemoMisses;
  }

  // The memo can never silently go dead again (it once sat at exactly 0
  // hits, unnoticed, behind raw counters).
  ASSERT_GT(MemoHits + MemoMisses, 0u);
  double HitRate = double(MemoHits) / double(MemoHits + MemoMisses);
  EXPECT_GE(HitRate, kMinMemoHitRate)
      << MemoHits << " hits / " << MemoMisses << " misses";

  std::printf("cold %.1f ms, warm %.1f ms: %.2fx, memo hit rate %.2f\n",
              Cold.WallMs, Warm.WallMs, Cold.WallMs / Warm.WallMs, HitRate);
  EXPECT_GE(Cold.WallMs, kMinWarmSpeedup * Warm.WallMs);
}

//===----------------------------------------------------------------------===//
// Serve: 90%-repeat vs 0%-repeat traffic
//===----------------------------------------------------------------------===//

struct ServeLoad {
  double ThroughputRps = 0;
  int64_t ReplyHits = 0;
  unsigned NotOk = 0;
  unsigned Mismatched = 0;
};

/// Closed-loop load: \p Clients threads each send \p PerClient
/// analyze-source requests to an in-process Server, \p RepeatPercent of
/// them the same hot source. The others append a unique comment, which
/// changes the content hash but not the analysis, so every reply must
/// carry \p Expected.
ServeLoad runServeLoad(unsigned RepeatPercent, const std::string &Source,
                       const std::string &Expected) {
  constexpr unsigned Clients = 2, PerClient = 40;
  Server S({.Workers = 2, .QueueLimit = 4096, .CacheCapacity = 16});
  std::vector<unsigned> NotOk(Clients), Mismatched(Clients);
  std::vector<std::thread> Threads;
  Clock::time_point Start = Clock::now();
  for (unsigned C = 0; C != Clients; ++C) {
    Threads.emplace_back([&, C] {
      std::mt19937 Rng(0x5eed + C);
      std::uniform_int_distribution<unsigned> Percent(0, 99);
      for (unsigned I = 0; I != PerClient; ++I) {
        std::string Id = std::to_string(C) + "." + std::to_string(I);
        std::string Text = Source;
        if (Percent(Rng) >= RepeatPercent)
          Text += "! variant " + Id + "\n";
        std::string Reply =
            S.handle("{\"id\":\"" + Id +
                     "\",\"method\":\"analyze-source\",\"params\":{"
                     "\"source\":" +
                     JsonValue(Text).dump() + "}}");
        std::string Err;
        std::optional<JsonValue> V = parseJson(Reply, Err);
        const JsonValue *Result = V ? V->find("result") : nullptr;
        if (!V || !V->boolOr("ok", false) || !Result)
          ++NotOk[C];
        else if (Result->strOr("output", "") != Expected)
          ++Mismatched[C];
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  double WallMs = msSince(Start);

  ServeLoad L;
  L.ThroughputRps = 1000.0 * Clients * PerClient / WallMs;
  for (unsigned C = 0; C != Clients; ++C) {
    L.NotOk += NotOk[C];
    L.Mismatched += Mismatched[C];
  }
  JsonValue Stats = S.statsJson();
  if (const JsonValue *Cache = Stats.find("cache"))
    L.ReplyHits = Cache->intOr("reply_hits", 0);
  S.shutdown();
  return L;
}

TEST(SpeedGate, RepeatServeTrafficBeatsColdTraffic) {
  std::string Source;
  for (const WorkloadProgram &W : benchmarkSuite())
    if (W.Name == "ocean")
      Source = W.Source;
  ASSERT_FALSE(Source.empty());
  PipelineOptions Opts;
  PipelineResult Local = runPipeline(Source, Opts);
  ASSERT_TRUE(Local.Ok) << Local.Error;
  const std::string Expected =
      renderAnalysisReport(Opts, Local, ReportOptions());

  ServeLoad Cold = runServeLoad(0, Source, Expected);
  ServeLoad Hot = runServeLoad(90, Source, Expected);
  for (const ServeLoad *L : {&Cold, &Hot}) {
    EXPECT_EQ(L->NotOk, 0u);
    EXPECT_EQ(L->Mismatched, 0u)
        << "a reply diverged from the local rendering";
  }
  EXPECT_GT(Hot.ReplyHits, 0) << "the reply cache was never hit";
  std::printf("0%%-repeat %.0f req/s, 90%%-repeat %.0f req/s: %.2fx\n",
              Cold.ThroughputRps, Hot.ThroughputRps,
              Hot.ThroughputRps / Cold.ThroughputRps);
  EXPECT_GE(Hot.ThroughputRps, kMinServeSpeedup * Cold.ThroughputRps);
}

//===----------------------------------------------------------------------===//
// Execution: bytecode VM vs AST interpreter
//===----------------------------------------------------------------------===//

struct CheckedProgram {
  std::unique_ptr<AstContext> Ctx;
  SymbolTable Symbols;
};

/// Wall clock of \p Reps passes over every runner and READ seed, under
/// the oracle's step budget. Fills \p Record with the first pass's runs.
double timeRuns(const std::vector<ProgramRunner> &Runners, unsigned Reps,
                std::vector<RunResult> &Record) {
  Record.clear();
  Clock::time_point T0 = Clock::now();
  for (unsigned Rep = 0; Rep != Reps; ++Rep)
    for (const ProgramRunner &R : Runners)
      for (uint64_t Seed : {1, 2}) {
        RunOptions RO;
        RO.ReadSeed = Seed;
        RO.Limits.MaxSteps = 30000;
        RunResult Run = R.run(RO);
        if (Rep == 0)
          Record.push_back(std::move(Run));
      }
  return msSince(T0);
}

TEST(SpeedGate, VmOutrunsAstOnFuzzWorkload) {
  // The fuzzer's diet: short seeded random programs, where per-run setup
  // dominates.
  std::vector<CheckedProgram> Programs;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    RandomSpec Spec;
    Spec.Seed = Seed * 101;
    DiagnosticEngine Diags;
    CheckedProgram P;
    P.Ctx = parseProgram(generateRandomProgram(Spec), Diags);
    if (!Diags.hasErrors())
      P.Symbols = Sema::run(*P.Ctx, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    Programs.push_back(std::move(P));
  }
  // Runners are built outside the timed region: compiling is a
  // once-per-program cost the oracle also pays once.
  std::vector<ProgramRunner> Vm, Ast;
  Vm.reserve(Programs.size());
  Ast.reserve(Programs.size());
  for (const CheckedProgram &P : Programs) {
    Vm.emplace_back(P.Ctx->program(), P.Symbols, ExecEngine::Vm);
    Ast.emplace_back(P.Ctx->program(), P.Symbols, ExecEngine::Ast);
  }

  // Best of three alternating measurements per engine: the VM side is a
  // few milliseconds, so one descheduling would otherwise decide it.
  constexpr unsigned Reps = 100;
  double VmMs = 0, AstMs = 0;
  std::vector<RunResult> VmRuns, AstRuns;
  for (unsigned I = 0; I != 3; ++I) {
    double A = timeRuns(Ast, Reps, AstRuns);
    double V = timeRuns(Vm, Reps, VmRuns);
    AstMs = I == 0 ? A : std::min(AstMs, A);
    VmMs = I == 0 ? V : std::min(VmMs, V);
  }

  ASSERT_EQ(VmRuns.size(), AstRuns.size());
  for (size_t I = 0; I != VmRuns.size(); ++I) {
    const RunResult &A = AstRuns[I], &V = VmRuns[I];
    EXPECT_TRUE(A.Status == V.Status && A.Prints == V.Prints &&
                A.Steps == V.Steps && A.ReadsConsumed == V.ReadsConsumed &&
                A.TrapLoc == V.TrapLoc && A.FinalGlobals == V.FinalGlobals &&
                A.FinalGlobalArrays == V.FinalGlobalArrays)
        << "engines disagree on run #" << I << "\n  ast: " << A.str()
        << "\n  vm:  " << V.str();
  }
  std::printf("ast %.2f ms, vm %.2f ms: %.1fx\n", AstMs, VmMs,
              AstMs / VmMs);
  EXPECT_GE(AstMs, kMinVmSpeedup * VmMs);
}

} // namespace
