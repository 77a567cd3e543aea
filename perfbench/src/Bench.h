//===- perfbench/src/Bench.h - Workload entry points and reports ---------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What each workload (grid, serve-mix, fuzz) receives and returns, and
/// the shared pieces: the metric report, set-up timing, peak memory, and
/// the traced composition of the analyzer out of its public functions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Trace.h"

#include "ipcp/AnalysisSession.h"
#include "ipcp/Pipeline.h"
#include "lang/Ast.h"
#include "lang/Sema.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

struct BenchArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";    ///< Checkout root (goldens live under it).
  std::string TraceOut;      ///< Chrome trace file of a traced run.
  std::string WorkDir = "."; ///< Scratch space inside the checkout.
};

/// One run's outcome: correctness counters, metrics, and notes for the
/// human-readable part of the output.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< Any failure makes the run report correct=false.
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::vector<std::string> Notes;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Records \p Count failed outputs of one check and why.
  void fail(const std::string &Why, uint64_t Count = 1);
};

Report runGrid(const BenchArgs &Args);
Report runServeMix(const BenchArgs &Args);
Report runFuzz(const BenchArgs &Args);

/// How many times each workload sets up; setup_s is the median.
inline constexpr unsigned SetUpReps = 5;

/// Runs \p SetUp \p Reps times and returns the median wall time in
/// seconds. Every repetition must build the same state from scratch; the
/// last one's state is the one the timed window uses.
double medianSetUpSeconds(unsigned Reps, const std::function<void()> &SetUp);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Adds the end-to-end metrics every workload reports, and a note with
/// the latency tail (not a declared metric: see README.md).
void addEndToEnd(Report &R, double SetUpS, double ThroughputPerS,
                 const std::vector<double> &LatencyMs, const char *What);

// --- The traced composition of the analyzer ------------------------------

/// A checked program, produced under a "lang.frontend" span (which also
/// counts the source bytes as "lang.bytes").
struct CheckedProgram {
  std::unique_ptr<ipcp::AstContext> Ctx;
  ipcp::SymbolTable Symbols;
  std::string Error; ///< Diagnostics when the frontend failed.
};

CheckedProgram frontendTraced(Tracer &T, std::string_view Source);

/// The deterministic counts of one analysis, for comparing a composed
/// run with runPipelineOnSession.
struct AnalysisCounts {
  bool Ok = false;
  unsigned Substituted = 0;
  unsigned ConstantPrints = 0;
  unsigned JfEvaluations = 0;
  unsigned ProcVisits = 0;
  std::vector<unsigned> PerProc;

  bool operator==(const AnalysisCounts &) const = default;
};

AnalysisCounts countsOf(const ipcp::PipelineResult &R);

/// Runs one configuration over \p Session the way runPipelineOnSession
/// does — session accessors, buildJumpFunctions, solveConstants,
/// countSubstitutions — with a span around each public call. Complete
/// propagation, whose rounds mutate the AST, runs runPipelineOnSession
/// on a private resolved clone under one "ipcp.runPipelineOnSession"
/// span, as the suite runner and the server do. Adds "ir.instrs" and
/// "ipcp.jf_evaluations" counts to the tracer.
AnalysisCounts analyzeComposed(Tracer &T, ipcp::AnalysisSession &Session,
                               const ipcp::PipelineOptions &Opts);

/// runPipeline composed: frontendTraced, a fresh session (its
/// construction and teardown under "ipcp.*" spans), analyzeComposed,
/// and the session's cache counters. Ok is false when the frontend fails.
AnalysisCounts analyzeSourceComposed(Tracer &T, std::string_view Source,
                                     const ipcp::PipelineOptions &Opts);

/// Adds the session's cache counters to the tracer's counts (hit and
/// lookup totals for SSA, value numberings, jump-function bases, memo).
void countSessionStats(Tracer &T, const ipcp::AnalysisSession &Session);

/// The per-layer metrics every traced run reports, in order, with units.
/// Workloads fill what they exercise; the rest read 0.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Fills the analyzer-layer metrics (lang, ir, analysis, ipcp, trace) from
/// a traced composition: times are self times per \p Units units, hit
/// rates and frontend bytes come from the counts.
void addAnalyzerLayers(Report &R, const TraceSummary &S,
                       const std::map<std::string, double> &Counts,
                       double Units);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
