//===- workloads/SuiteRunner.cpp - Batched multi-config suite runs --------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/SuiteRunner.h"

#include "ipcp/AnalysisConfig.h"
#include "lang/AstClone.h"
#include "lang/Parser.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <initializer_list>
#include <memory>
#include <utility>

using namespace ipcp;

namespace {

/// Named configurations spelled as driver flags (ipcp/AnalysisConfig.h).
std::vector<SuiteConfig>
configsFromFlags(std::initializer_list<std::pair<const char *, const char *>>
                     NamedFlags) {
  std::vector<SuiteConfig> Configs;
  for (auto [Name, Flags] : NamedFlags)
    Configs.push_back({Name, optionsFromFlags(Flags)});
  return Configs;
}

} // namespace

std::vector<SuiteConfig> ipcp::table2Configs() {
  return configsFromFlags({
      {"poly", ""},
      {"pass", "--jf=pass"},
      {"intra", "--jf=intra"},
      {"literal", "--jf=literal"},
      {"poly-norjf", "--no-rjf"},
      {"pass-norjf", "--jf=pass --no-rjf"},
      // The precision tier: each refines the plain "poly" column, never
      // below it (the precision-differential wall pins this).
      {"poly-fsa", "--fsa"},
      {"poly-ogvn", "--ogvn"},
      // The copy tier: each refines its base column — loads the lattice
      // resolves stop reading as unknown — never below it (check-copy
      // pins this).
      {"copy", "--jf=pass --copy"},
      {"poly-copy", "--copy"},
  });
}

std::vector<SuiteConfig> ipcp::table3Configs() {
  return configsFromFlags({
      {"poly-nomod", "--no-mod"},
      {"complete", "--complete"},
      {"intra-only", "--intra-only"},
  });
}

std::vector<SuiteConfig> ipcp::allConfigs() {
  std::vector<SuiteConfig> Configs = table2Configs();
  for (SuiteConfig &C : table3Configs())
    Configs.push_back(std::move(C));
  return Configs;
}

std::vector<SuiteConfig> ipcp::configsByName(const std::string &Name) {
  if (Name == "all")
    return allConfigs();
  if (Name == "table2")
    return table2Configs();
  if (Name == "table3")
    return table3Configs();
  return {};
}

namespace {

/// Shared-mode per-program state: one frontend, one session.
struct ProgState {
  std::unique_ptr<AstContext> Ctx;
  SymbolTable Symbols;
  std::unique_ptr<AnalysisSession> Session;
  bool Ok = false;
  std::string Error;
};

} // namespace

SuiteRunResult ipcp::runSuite(const std::vector<WorkloadProgram> &Programs,
                              const std::vector<SuiteConfig> &Configs,
                              unsigned Jobs, unsigned ThreadsPerRun,
                              SuiteSharing Sharing) {
  using Clock = std::chrono::steady_clock;

  SuiteRunResult Result;
  Result.NumPrograms = Programs.size();
  Result.NumConfigs = Configs.size();
  Result.Cells.resize(Programs.size() * Configs.size());

  // Sharing contract: in Shared mode every program is parsed and checked
  // once; cells of configurations that never mutate the AST analyze the
  // program's one AnalysisSession concurrently (its read accessors are
  // thread-safe), while complete-propagation cells — whose DCE rounds
  // rewrite statements — get a private resolved clone of the checked
  // program plus their own session, so the shared snapshot stays
  // immutable for the whole batch. In PerCell mode every cell re-parses
  // from source inside runPipeline and shares nothing.
  //
  // Threading: at most one pool exists. With batch-level fan-out
  // (Jobs != 1) the cells run serially inside themselves; with serial
  // cells (Jobs == 1) they all share one injected per-cell pool.
  unsigned CellThreads = Jobs != 1 ? 1 : ThreadsPerRun;
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs != 1)
    Pool = std::make_unique<ThreadPool>(Jobs);
  std::unique_ptr<ThreadPool> CellPool;
  if (Jobs == 1 && CellThreads != 1)
    CellPool = std::make_unique<ThreadPool>(CellThreads);

  Clock::time_point BatchStart = Clock::now();

  std::vector<ProgState> States;
  if (Sharing == SuiteSharing::Shared) {
    States.resize(Programs.size());
    parallelFor(Pool.get(), Programs.size(), [&](size_t P) {
      ProgState &PS = States[P];
      DiagnosticEngine Diags;
      PS.Ctx = parseProgram(Programs[P].Source, Diags);
      if (!Diags.hasErrors())
        PS.Symbols = Sema::run(*PS.Ctx, Diags);
      if (Diags.hasErrors()) {
        PS.Error = Diags.str();
        return;
      }
      PS.Session = std::make_unique<AnalysisSession>(*PS.Ctx, PS.Symbols);
      PS.Ok = true;
    });
    Result.FrontendMs =
        std::chrono::duration<double, std::milli>(Clock::now() - BatchStart)
            .count();
  }

  parallelFor(Pool.get(), Result.Cells.size(), [&](size_t I) {
    size_t P = I / Configs.size();
    size_t C = I % Configs.size();
    SuiteCell &Cell = Result.Cells[I];
    Cell.Program = Programs[P].Name;
    Cell.Config = Configs[C].Name;

    PipelineOptions Opts = Configs[C].Opts;
    Opts.Threads = CellThreads;
    Opts.Pool = CellPool.get();
    Clock::time_point CellStart = Clock::now();
    PipelineResult R;
    if (Sharing == SuiteSharing::PerCell) {
      R = runPipeline(Programs[P].Source, Opts);
    } else if (ProgState &PS = States[P]; !PS.Ok) {
      R.Error = PS.Error;
    } else if (Opts.CompletePropagation) {
      auto Clone = cloneProgramResolved(*PS.Ctx);
      AnalysisSession Private(*Clone, PS.Symbols);
      R = runPipelineOnSession(Private, Opts);
    } else {
      R = runPipelineOnSession(*PS.Session, Opts);
    }
    Cell.Millis = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            CellStart)
                      .count();
    Cell.Ok = R.Ok;
    Cell.SubstitutedConstants = R.SubstitutedConstants;
    Cell.ConstantPrints = R.ConstantPrints;
    Cell.Timings = R.Timings;
    Cell.SolverMemoHits = R.SolverMemoHits;
    Cell.SolverMemoMisses = R.SolverMemoMisses;
    Cell.AliasPointsRefined = R.AliasPointsRefined;
    Cell.GvnPhiMerges = R.GvnPhiMerges;
    Cell.CopyLoadsResolved = R.CopyLoadsResolved;
  });
  Result.WallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - BatchStart)
          .count();

  for (const SuiteCell &Cell : Result.Cells) {
    Result.CellMs += Cell.Millis;
    Result.TotalSubstituted += Cell.SubstitutedConstants;
  }
  for (const ProgState &PS : States) {
    if (!PS.Session)
      continue;
    SessionStats S = PS.Session->stats();
    Result.Cache.ProcsLowered += S.ProcsLowered;
    Result.Cache.ProcsRelowered += S.ProcsRelowered;
    Result.Cache.SsaBuilt += S.SsaBuilt;
    Result.Cache.SsaReused += S.SsaReused;
    Result.Cache.VnBuilt += S.VnBuilt;
    Result.Cache.VnReused += S.VnReused;
    Result.Cache.JfBasesBuilt += S.JfBasesBuilt;
    Result.Cache.JfBasesReused += S.JfBasesReused;
    Result.Cache.SolverMemoHits += S.SolverMemoHits;
    Result.Cache.SolverMemoMisses += S.SolverMemoMisses;
  }
  return Result;
}
