//===- perfbench/src/Grid.cpp - The "grid" workload -----------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's experiment as a batch: extendedSuite() (15 programs) x
/// allConfigs() (13 configs) through runSuite(Jobs=4, Shared), batches
/// back to back in a closed loop. Every batch's 195 cells are checked
/// against tests/golden/table2.golden and table3.golden.
///
/// The traced run composes the same batch from the analyzer's public
/// functions (frontend per program, then the cells on four threads, each
/// cell through analyzeComposed) so the batch breaks down by layer; it
/// asserts the composition's counts equal runPipelineOnSession's.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Stats.h"

#include "workloads/Suite.h"
#include "workloads/SuiteRunner.h"

#include <atomic>
#include <stdexcept>
#include <thread>

using namespace ipcp;

namespace perfbench {

namespace {

constexpr unsigned GridJobs = 4;

/// Runs Body(0..N-1) on \p Jobs threads (inline when Jobs == 1).
void parallelFor(unsigned Jobs, size_t N,
                 const std::function<void(size_t)> &Body) {
  if (Jobs <= 1) {
    for (size_t I = 0; I != N; ++I)
      Body(I);
    return;
  }
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned J = 0; J != Jobs; ++J)
    Threads.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Body(I);
    });
  for (std::thread &Th : Threads)
    Th.join();
}

/// One batch composed from public functions.
struct ComposedBatch {
  double WallMs = 0;
  std::vector<double> CellMs;          ///< Program-major, like runSuite.
  std::vector<AnalysisCounts> Counts;  ///< Program-major.
};

ComposedBatch runComposedBatch(Tracer &T,
                               const std::vector<WorkloadProgram> &Programs,
                               const std::vector<SuiteConfig> &Configs,
                               unsigned Jobs, uint64_t BatchNo) {
  const size_t NP = Programs.size(), NC = Configs.size();
  ComposedBatch B;
  B.CellMs.assign(NP * NC, 0);
  B.Counts.resize(NP * NC);
  Clock::time_point Start = Clock::now();
  {
    Span Root(T, "bench.batch", BatchNo << 16);
    const uint64_t RootId = Root.id();
    std::vector<CheckedProgram> Checked(NP);
    std::vector<std::unique_ptr<AnalysisSession>> Sessions(NP);
    parallelFor(Jobs, NP, [&](size_t P) {
      Span U(T, "bench.program", (BatchNo << 16) | (0x8000 + P), RootId);
      Checked[P] = frontendTraced(T, Programs[P].Source);
      if (Checked[P].Error.empty()) {
        Span S(T, "ipcp.AnalysisSession");
        Sessions[P] = std::make_unique<AnalysisSession>(*Checked[P].Ctx,
                                                        Checked[P].Symbols);
      }
    });
    parallelFor(Jobs, NP * NC, [&](size_t I) {
      size_t P = I / NC;
      if (!Sessions[P])
        return;
      Span U(T, "bench.cell", (BatchNo << 16) | (I + 1), RootId);
      Clock::time_point CellStart = Clock::now();
      B.Counts[I] = analyzeComposed(T, *Sessions[P], Configs[I % NC].Opts);
      B.CellMs[I] = msSince(CellStart);
    });
    for (const auto &S : Sessions)
      if (S)
        countSessionStats(T, *S);
    // Teardown is real per-batch work (the server pays it on eviction).
    Span Teardown(T, "ipcp.sessionTeardown");
    Sessions.clear();
    Checked.clear();
  }
  B.WallMs = msSince(Start);
  return B;
}

/// The traced run's assertion: every composed cell equals a cold
/// runPipelineOnSession of the same cell, and the golden count.
void checkComposition(Report &R, const ComposedBatch &B,
                      const std::vector<WorkloadProgram> &Programs,
                      const std::vector<SuiteConfig> &Configs,
                      const GoldenGrid &Golden) {
  Tracer Off(false);
  const size_t NC = Configs.size();
  for (size_t P = 0; P != Programs.size(); ++P) {
    for (size_t C = 0; C != NC; ++C) {
      ++R.Attempted;
      CheckedProgram Prog = frontendTraced(Off, Programs[P].Source);
      AnalysisSession Session(*Prog.Ctx, Prog.Symbols);
      AnalysisCounts Want =
          countsOf(runPipelineOnSession(Session, Configs[C].Opts));
      const AnalysisCounts &Got = B.Counts[P * NC + C];
      SuiteCell Cell;
      Cell.Program = Programs[P].Name;
      Cell.Config = Configs[C].Name;
      Cell.Ok = Got.Ok;
      Cell.SubstitutedConstants = Got.Substituted;
      std::string Why = checkCell(Cell, Golden);
      if (Why.empty() && !(Got == Want))
        Why = Cell.Program + "/" + Cell.Config +
              ": composed counts differ from runPipelineOnSession";
      if (!Why.empty())
        R.fail("traced composition: " + Why);
    }
  }
}

void runTracedGrid(const BenchArgs &Args, Report &R,
                   const std::vector<WorkloadProgram> &Programs,
                   const std::vector<SuiteConfig> &Configs,
                   const GoldenGrid &Golden) {
  const double Budget = Args.Seconds * 1000.0;

  // The black box: runSuite batches, untraced.
  std::vector<double> SuiteMs;
  Clock::time_point Phase = Clock::now();
  while (SuiteMs.empty() || msSince(Phase) < 0.2 * Budget) {
    Clock::time_point Start = Clock::now();
    SuiteRunResult Batch =
        runSuite(Programs, Configs, GridJobs, 1, SuiteSharing::Shared);
    SuiteMs.push_back(msSince(Start));
    size_t Failed = 0;
    std::string Why = checkGridBatch(Batch, Golden, Failed);
    R.Attempted += Batch.Cells.size();
    if (!Why.empty())
      R.fail(Why, Failed);
  }

  // The composition at four jobs, alternating tracer off and on so the
  // overhead ratio compares neighbouring batches.
  Tracer Off(false), On(true);
  std::vector<double> OffMs, OnMs;
  double CellSum4 = 0, Wall4 = 0;
  std::vector<double> PerConfigMs(Configs.size(), 0);
  ComposedBatch Last;
  uint64_t BatchNo = 0;
  Phase = Clock::now();
  while (OnMs.empty() || msSince(Phase) < 0.6 * Budget) {
    OffMs.push_back(
        runComposedBatch(Off, Programs, Configs, GridJobs, ++BatchNo).WallMs);
    Last = runComposedBatch(On, Programs, Configs, GridJobs, ++BatchNo);
    OnMs.push_back(Last.WallMs);
    Wall4 += Last.WallMs;
    for (size_t I = 0; I != Last.CellMs.size(); ++I) {
      CellSum4 += Last.CellMs[I];
      PerConfigMs[I % Configs.size()] += Last.CellMs[I];
    }
  }
  const double Batches4 = double(OnMs.size());

  // The same composition on one thread, for the per-cell inflation.
  Tracer Serial(true);
  double CellSum1 = 0;
  unsigned Batches1 = 0;
  Phase = Clock::now();
  while (Batches1 == 0 || msSince(Phase) < 0.2 * Budget) {
    ComposedBatch B = runComposedBatch(Serial, Programs, Configs, 1, ++BatchNo);
    for (double Ms : B.CellMs)
      CellSum1 += Ms;
    ++Batches1;
  }

  checkComposition(R, Last, Programs, Configs, Golden);

  addAnalyzerLayers(R, summarize(On.spans()), On.counts(), Batches4);
  for (size_t C = 0; C != Configs.size(); ++C)
    R.metric("grid.cell_ms." + Configs[C].Name, PerConfigMs[C] / Batches4,
             "ms");
  R.metric("workloads.grid_cell_sum_ms", CellSum4 / Batches4, "ms");
  R.metric("workloads.grid_parallel_efficiency",
           CellSum4 / (Wall4 * GridJobs), "ratio");
  R.metric("workloads.grid_cell_inflation",
           (CellSum4 / Batches4) / (CellSum1 / Batches1), "ratio");
  R.metric("trace.overhead_ratio", median(OnMs) / median(OffMs), "ratio");
  R.metric("trace.composition_ratio", median(OffMs) / median(SuiteMs),
           "ratio");
  R.note("traced grid: " + std::to_string(SuiteMs.size()) +
         " runSuite batches, " + std::to_string(OnMs.size()) +
         " traced composed batches at 4 jobs, " + std::to_string(Batches1) +
         " at 1 job");
  if (!Args.TraceOut.empty() && !On.writeChromeTrace(Args.TraceOut))
    R.note("could not write " + Args.TraceOut);
}

} // namespace

Report runGrid(const BenchArgs &Args) {
  Report R;
  const std::vector<WorkloadProgram> &Programs = extendedSuite();
  const std::vector<SuiteConfig> Configs = allConfigs();
  GoldenGrid Golden;

  // Set-up: read the goldens and run one untimed batch (lazy suite
  // generation, allocator warm-up), SetUpReps times over.
  double SetUpS = medianSetUpSeconds(SetUpReps, [&] {
    std::string Error;
    std::optional<GoldenGrid> G =
        loadGoldenGrid(Args.Root + "/tests/golden", Error);
    if (!G)
      throw std::runtime_error(Error);
    Golden = std::move(*G);
    runSuite(Programs, Configs, GridJobs, 1, SuiteSharing::Shared);
  });
  if (Golden.size() != Programs.size() * Configs.size())
    throw std::runtime_error("golden grid has " +
                             std::to_string(Golden.size()) + " cells");

  if (Args.Trace) {
    runTracedGrid(Args, R, Programs, Configs, Golden);
    return R;
  }

  std::vector<double> BatchMs;
  double CellsDone = 0;
  Clock::time_point Window = Clock::now();
  while (BatchMs.empty() || msSince(Window) < Args.Seconds * 1000.0) {
    Clock::time_point Start = Clock::now();
    SuiteRunResult Batch =
        runSuite(Programs, Configs, GridJobs, 1, SuiteSharing::Shared);
    BatchMs.push_back(msSince(Start));
    CellsDone += double(Batch.Cells.size());
    size_t Failed = 0;
    std::string Why = checkGridBatch(Batch, Golden, Failed);
    R.Attempted += Batch.Cells.size();
    if (!Why.empty())
      R.fail("batch " + std::to_string(BatchMs.size()) + ": " + Why, Failed);
  }
  double BusyMs = 0;
  for (double Ms : BatchMs)
    BusyMs += Ms;
  addEndToEnd(R, SetUpS, CellsDone / (BusyMs / 1000.0), BatchMs,
              "grid batch");
  return R;
}

} // namespace perfbench
