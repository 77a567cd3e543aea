//===- workloads/ShardedSuite.h - Multi-process sharded runs ----*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-process tier over the suite runner and the summary format:
/// a coordinator forks N `ipcp-driver --shard-worker` processes, hands
/// each a job file, and folds their result files back together. Two
/// partitionings exist, matching the two things worth distributing:
///
///   * runShardedSuite — the (program x configuration) grid, programs
///     round-robined across workers. Each worker runs its programs'
///     cells through the ordinary suite runner, so the reassembled grid
///     is byte-identical (deterministic fields) to a single-process
///     runSuite at any worker count.
///
///   * runShardedAnalysis — one program's procedures round-robined
///     across workers, each of which writes the partial jump-function
///     summary of its slice (ipcp/SummaryIO.h); the coordinator merges
///     the partials and runs solve + substitution locally over the
///     merged functions. The report is byte-identical to a local run —
///     the libosuction shape: independent processes write summaries, one
///     merge step propagates.
///
/// Worker crashes are recovered, not propagated: a partition whose
/// worker dies (or writes a garbled result file) is reassigned to a
/// fresh worker up to a retry bound, and only then does the whole run
/// fail — loudly, naming the partition and the exit status. Job and
/// result files use the same strict parse-or-reject discipline as the
/// summary format.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_WORKLOADS_SHARDEDSUITE_H
#define IPCP_WORKLOADS_SHARDEDSUITE_H

#include "ipcp/Pipeline.h"
#include "ipcp/SummaryIO.h"
#include "workloads/SuiteRunner.h"

#include <string>
#include <vector>

namespace ipcp {

/// One program a job ships to a worker (name + full source: workers
/// never read the coordinator's memory, so a job file is self-contained
/// and a crashed partition can be re-run from the file alone).
struct ShardJobProgram {
  std::string Name;
  std::string Source;
};

/// What one worker is asked to do.
struct ShardJob {
  enum class Mode : uint8_t {
    /// Run every (program x config) cell of the job's programs.
    Cells,
    /// Build the partial jump-function summary of Procs for the job's
    /// single program under Config.
    Summary,
  };
  Mode JobMode = Mode::Cells;
  std::vector<ShardJobProgram> Programs;

  /// Cells mode: the named config set ("all"/"table2"/"table3").
  std::string ConfigSet = "all";

  /// Summary mode: the builder configuration and the procedure slice.
  JumpFunctionOptions Config;
  std::vector<ProcId> Procs;

  /// Fault injection for the crash-recovery tests: when >= 0, the worker
  /// _exit()s without writing its result once it has finished this many
  /// cells (0 = before any work). Never set on real runs.
  int CrashAfterCells = -1;
};

std::string serializeShardJob(const ShardJob &Job);
bool parseShardJob(std::string_view Text, ShardJob &Out, std::string &Error);

/// One (program x config) outcome a worker reports — exactly the
/// deterministic fields of a SuiteCell, nothing timing-dependent.
struct ShardCellResult {
  std::string Program;
  std::string Config;
  bool Ok = false;
  unsigned SubstitutedConstants = 0;
  unsigned ConstantPrints = 0;
};

/// A worker's result file.
struct ShardResult {
  std::vector<ShardCellResult> Cells;
  /// Summary mode: the serialized partial summary (ipcp/SummaryIO.h),
  /// embedded verbatim so the coordinator re-validates it through
  /// parseSummary.
  std::vector<std::string> Summaries;
};

std::string serializeShardResult(const ShardResult &R);
bool parseShardResult(std::string_view Text, ShardResult &Out,
                      std::string &Error);

/// The `ipcp-driver --shard-worker` entry: reads the job at \p JobPath,
/// runs it, writes the result to \p OutPath. Returns the process exit
/// code (0 = result written; diagnostics go to stderr).
int runShardWorker(const std::string &JobPath, const std::string &OutPath);

/// Coordinator knobs shared by both partitionings.
struct ShardSpawnOptions {
  /// Path to the worker binary (ipcp-driver). Empty = this executable
  /// (the driver sharding itself; tests pass IPCP_DRIVER_PATH).
  std::string WorkerBinary;
  /// Scratch directory for job/result/log files. Empty = a fresh
  /// mkdtemp under TMPDIR, removed on success.
  std::string TempDir;
  /// Keep the scratch directory for post-mortems.
  bool KeepTemps = false;
  /// Attempts per partition before the run fails (1 = no recovery).
  unsigned MaxAttempts = 3;
  /// Fault injection: the first attempt of this partition index gets
  /// ShardJob::CrashAfterCells = CrashAfterCells. -1 = off.
  int CrashPartitionIndex = -1;
  int CrashAfterCells = 0;
};

struct ShardedSuiteOptions {
  unsigned NumWorkers = 2;
  std::string ConfigSet = "all";
  ShardSpawnOptions Spawn;
};

struct ShardedSuiteResult {
  bool Ok = false;
  std::string Error;

  /// Program-major canonical order — Cells[p * NumConfigs + c] with p in
  /// the coordinator's program order and c in config-set order — however
  /// the partitions interleaved.
  std::vector<ShardCellResult> Cells;
  size_t NumPrograms = 0;
  size_t NumConfigs = 0;

  unsigned WorkersSpawned = 0;
  unsigned WorkerCrashes = 0;
  unsigned PartitionsReassigned = 0;
  double WallMs = 0;

  const ShardCellResult &cell(size_t Program, size_t Config) const {
    return Cells.at(Program * NumConfigs + Config);
  }
};

/// Runs every program under every config of the named set across
/// NumWorkers forked workers and reassembles the grid.
ShardedSuiteResult runShardedSuite(const std::vector<WorkloadProgram> &Programs,
                                   const ShardedSuiteOptions &Opts);

struct ShardedAnalysisOptions {
  unsigned NumShards = 2;
  ShardSpawnOptions Spawn;
};

struct ShardedAnalysisResult {
  bool Ok = false;
  std::string Error;
  /// Byte-identical (deterministic fields) to a local runPipeline of the
  /// same source under the same options.
  PipelineResult Pipeline;
  unsigned WorkersSpawned = 0;
  unsigned WorkerCrashes = 0;
  unsigned PartitionsReassigned = 0;
};

/// Distributes one program's jump-function construction: procedures are
/// round-robined across NumShards workers, each worker ships the partial
/// summary of its slice, and the coordinator merges, reconstitutes, and
/// runs solve + substitution locally (runPipelineOnSession with
/// preloaded functions). Rejects CompletePropagation and
/// IntraproceduralOnly — neither has a shardable stage 2.
ShardedAnalysisResult runShardedAnalysis(const std::string &Name,
                                         const std::string &Source,
                                         const PipelineOptions &Opts,
                                         const ShardedAnalysisOptions &SOpts);

} // namespace ipcp

#endif // IPCP_WORKLOADS_SHARDEDSUITE_H
