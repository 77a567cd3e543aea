//===- workloads/SuiteRunner.cpp - Batched multi-config suite runs --------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/SuiteRunner.h"

#include "ipcp/AnalysisConfig.h"
#include "lang/Parser.h"
#include "support/ThreadPool.h"

#include <atomic>
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
  /// Cells of this program not yet finished; the cell that takes it to
  /// zero snapshots Stats and frees the session and the AST.
  std::atomic<size_t> CellsLeft{0};
  SessionStats Stats;
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
  // once, and every cell analyzes the program's one AnalysisSession
  // concurrently (its read accessors are thread-safe). Complete
  // propagation runs its first round there too and moves onto a private
  // clone only if dead-code elimination folds something
  // (runPipelineOnSession), so the shared snapshot stays immutable for
  // the whole batch. In PerCell mode every cell re-parses from source
  // inside runPipeline and shares nothing.
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

  const size_t NP = Programs.size(), NC = Configs.size();
  std::vector<ProgState> States(Sharing == SuiteSharing::Shared ? NP : 0);
  if (Sharing == SuiteSharing::Shared) {
    parallelFor(Pool.get(), NP, [&](size_t P) {
      ProgState &PS = States[P];
      PS.CellsLeft.store(NC, std::memory_order_relaxed);
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

  // Cells are claimed config-major (K walks every program's config 0,
  // then every program's config 1, ...), so the threads draining the
  // batch work on different programs' sessions instead of queueing on
  // one session's locks. Each result still lands in its program-major
  // slot, so the output does not depend on the claim order.
  parallelFor(Pool.get(), Result.Cells.size(), [&](size_t K) {
    size_t P = K % NP;
    size_t C = K / NP;
    SuiteCell &Cell = Result.Cells[P * NC + C];
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

    // Last cell out tears the program down, inside the parallel batch.
    if (Sharing == SuiteSharing::Shared &&
        States[P].CellsLeft.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ProgState &PS = States[P];
      if (PS.Session)
        PS.Stats = PS.Session->stats();
      PS.Session.reset();
      PS.Ctx.reset();
      PS.Symbols = SymbolTable();
    }
  });

  for (const ProgState &PS : States)
    Result.Cache += PS.Stats;
  States.clear(); // Frees what no last cell did (a batch with no configs).
  Result.WallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - BatchStart)
          .count();

  for (const SuiteCell &Cell : Result.Cells) {
    Result.CellMs += Cell.Millis;
    Result.TotalSubstituted += Cell.SubstitutedConstants;
  }
  return Result;
}
