//===- workloads/SuiteRunner.h - Batched multi-config suite runs *- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the analyzer over a whole suite of programs under many
/// configurations at once — every column of the paper's Tables 2 and 3
/// as one batch — fanning the independent (program × configuration)
/// pipeline runs across a thread pool. Each cell writes only its own
/// result slot, so the aggregated output is deterministic for any job
/// count; the per-cell and batch wall-clock numbers feed the driver's
/// `wall:` line and perfbench's `grid` workload.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_WORKLOADS_SUITERUNNER_H
#define IPCP_WORKLOADS_SUITERUNNER_H

#include "ipcp/AnalysisSession.h"
#include "ipcp/Pipeline.h"
#include "workloads/Suite.h"

#include <string>
#include <vector>

namespace ipcp {

/// One named analyzer configuration (a table column).
struct SuiteConfig {
  std::string Name;
  PipelineOptions Opts;
};

/// The Table 2 columns: {poly, pass, intra, literal} with return jump
/// functions, {poly, pass} without, plus the precision tier —
/// {poly-fsa} (flow-sensitive aliasing) and {poly-ogvn} (optimistic
/// value numbering) — and the copy tier — {copy} (pass-through + the
/// copy lattice) and {poly-copy} (polynomial + the copy lattice) — with
/// UseMod on throughout.
std::vector<SuiteConfig> table2Configs();

/// The Table 3 columns beyond Table 2's default: polynomial without
/// MOD, complete propagation, and intraprocedural-only.
std::vector<SuiteConfig> table3Configs();

/// Table 2 and Table 3 columns concatenated (thirteen distinct configs).
std::vector<SuiteConfig> allConfigs();

/// Looks up a config set by name: "all", "table2", or "table3".
/// Returns an empty vector for unknown names.
std::vector<SuiteConfig> configsByName(const std::string &Name);

/// One (program × configuration) outcome.
struct SuiteCell {
  std::string Program;
  std::string Config;
  bool Ok = false;
  unsigned SubstitutedConstants = 0;
  unsigned ConstantPrints = 0;
  double Millis = 0; ///< This cell's own wall clock.
  /// Per-phase breakdown of this cell's run (FrontendMs is zero for
  /// shared-frontend cells; see SuiteRunResult::FrontendMs).
  PhaseTimings Timings;
  /// Solver value-context memo counters of this cell's run. 64-bit and
  /// warmth/interleaving-dependent in Shared mode (cells share one memo,
  /// so which cell records a context first depends on scheduling) —
  /// like Timings, never part of determinism comparisons.
  uint64_t SolverMemoHits = 0;
  uint64_t SolverMemoMisses = 0;
};

/// The aggregated batch.
struct SuiteRunResult {
  /// Program-major: Cells[p * NumConfigs + c]. Deterministic for any
  /// job count.
  std::vector<SuiteCell> Cells;
  size_t NumPrograms = 0;
  size_t NumConfigs = 0;
  /// Wall clock of the whole batch: frontends, cells and the teardown
  /// of every per-program session (taken after the last one is freed).
  double WallMs = 0;
  double CellMs = 0;  ///< Sum of per-cell times (~ serial cost).
  unsigned TotalSubstituted = 0;
  /// Shared mode only: wall clock of the one-per-program parse+sema
  /// phase (per-cell frontend cost is zero there).
  double FrontendMs = 0;
  /// Shared mode only: cache counters summed over the per-program
  /// sessions, each snapshotted by its program's last cell just before
  /// the session is freed (the private clones complete-propagation cells
  /// fold are not included).
  SessionStats Cache;

  const SuiteCell &cell(size_t Program, size_t Config) const {
    return Cells.at(Program * NumConfigs + Config);
  }
};

/// How much analysis state the batch's cells share.
enum class SuiteSharing : uint8_t {
  /// Every cell re-parses its program from source and analyzes it cold —
  /// the baseline the SpeedGate suite test measures Shared against.
  PerCell,
  /// One frontend pass and one AnalysisSession per program; the
  /// program's cells share the session's lowered IR, SSA, and
  /// jump-function bases and memos. Complete-propagation cells run their
  /// first round on the shared session too and fold only a private clone
  /// (runPipelineOnSession) — never the shared snapshot. Results are
  /// byte-identical to PerCell.
  Shared,
};

/// Runs every program under every config. \p Jobs is the worker count
/// of the pool fanning out whole pipeline runs (1 = serial, no pool;
/// 0 = one per hardware thread). The calling thread drains cells
/// alongside the workers (parallelFor), so Jobs = N > 1 runs up to N + 1
/// cells at once — Jobs=4 runs five. \p ThreadsPerRun is forwarded to
/// PipelineOptions::Threads of each run. When Jobs != 1 the per-cell
/// thread count is clamped to 1 — batch-level fan-out already saturates
/// the cores, and nesting pools would oversubscribe them; when Jobs == 1
/// all cells share a single injected pool (PipelineOptions::Pool), so
/// the batch creates at most one pool either way.
///
/// Cells are claimed config-major, so concurrent cells mostly analyze
/// different programs. In Shared mode the cell that finishes a program's
/// last configuration frees that program's session and AST, so teardown
/// runs in parallel inside the batch.
SuiteRunResult runSuite(const std::vector<WorkloadProgram> &Programs,
                        const std::vector<SuiteConfig> &Configs,
                        unsigned Jobs = 1, unsigned ThreadsPerRun = 1,
                        SuiteSharing Sharing = SuiteSharing::Shared);

} // namespace ipcp

#endif // IPCP_WORKLOADS_SUITERUNNER_H
