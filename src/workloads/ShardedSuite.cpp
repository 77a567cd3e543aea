//===- workloads/ShardedSuite.cpp - Multi-process sharded runs ------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/ShardedSuite.h"

#include "ipcp/AnalysisConfig.h"
#include "ipcp/AnalysisSession.h"
#include "lang/Parser.h"
#include "serve/Json.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <unistd.h>
#include <utility>

using namespace ipcp;

namespace {

using Clock = std::chrono::steady_clock;

bool readFile(const std::string &Path, std::string &Out, std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (In.bad()) {
    Error = "failed reading '" + Path + "'";
    return false;
  }
  Out = Buf.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Content,
               std::string &Error) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out) {
    Error = "cannot write '" + Path + "'";
    return false;
  }
  Out << Content;
  Out.flush();
  if (!Out) {
    Error = "failed writing '" + Path + "'";
    return false;
  }
  return true;
}

/// Exact-key-set validation, same discipline as the summary format: an
/// unknown field is as loud a failure as a missing one.
bool checkKeys(const JsonValue &Obj,
               std::initializer_list<const char *> Keys, const char *What,
               std::string &Error) {
  for (const char *K : Keys)
    if (!Obj.find(K)) {
      Error = std::string(What) + " is missing field '" + K + "'";
      return false;
    }
  if (Obj.members().size() != Keys.size()) {
    for (const auto &[K, V] : Obj.members()) {
      bool Known = false;
      for (const char *Want : Keys)
        Known = Known || K == Want;
      if (!Known) {
        Error = std::string(What) + " has unknown field '" + K + "'";
        return false;
      }
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Job and result files
//===----------------------------------------------------------------------===//

std::string ipcp::serializeShardJob(const ShardJob &Job) {
  JsonValue Doc = JsonValue::object();
  Doc.set("format", "ipcp-shard-job");
  Doc.set("version", 1);
  Doc.set("mode", Job.JobMode == ShardJob::Mode::Cells ? "cells" : "summary");
  Doc.set("config_set", Job.ConfigSet);
  Doc.set("config", jumpFunctionConfigJson(Job.Config));
  JsonValue Procs = JsonValue::array();
  for (ProcId P : Job.Procs)
    Procs.push(JsonValue(static_cast<int64_t>(P)));
  Doc.set("procs", std::move(Procs));
  Doc.set("crash_after_cells", Job.CrashAfterCells);
  JsonValue Programs = JsonValue::array();
  for (const ShardJobProgram &P : Job.Programs) {
    JsonValue E = JsonValue::object();
    E.set("name", P.Name);
    E.set("source", P.Source);
    Programs.push(std::move(E));
  }
  Doc.set("programs", std::move(Programs));
  return Doc.dump();
}

bool ipcp::parseShardJob(std::string_view Text, ShardJob &Out,
                         std::string &Error) {
  std::optional<JsonValue> Doc = parseJson(Text, Error);
  if (!Doc) {
    Error = "shard job is not valid JSON: " + Error;
    return false;
  }
  if (!Doc->isObject()) {
    Error = "shard job must be a JSON object";
    return false;
  }
  if (!checkKeys(*Doc,
                 {"config", "config_set", "crash_after_cells", "format",
                  "mode", "procs", "programs", "version"},
                 "shard job", Error))
    return false;
  if (Doc->strOr("format", "") != "ipcp-shard-job") {
    Error =
        "not a shard job file (format '" + Doc->strOr("format", "") + "')";
    return false;
  }
  if (Doc->intOr("version", -1) != 1) {
    Error = "shard job version mismatch (got " +
            std::to_string(Doc->intOr("version", -1)) +
            ", this build reads 1)";
    return false;
  }

  ShardJob Job;
  std::string Mode = Doc->strOr("mode", "");
  if (Mode == "cells")
    Job.JobMode = ShardJob::Mode::Cells;
  else if (Mode == "summary")
    Job.JobMode = ShardJob::Mode::Summary;
  else {
    Error = "shard job mode must be 'cells' or 'summary', got '" + Mode + "'";
    return false;
  }

  const JsonValue *Cs = Doc->find("config_set");
  if (!Cs->isString()) {
    Error = "shard job 'config_set' must be a string";
    return false;
  }
  Job.ConfigSet = Cs->str();

  if (!parseJumpFunctionConfigJson(*Doc->find("config"), Job.Config,
                                   Error)) {
    Error = "shard job " + Error;
    return false;
  }

  const JsonValue *Procs = Doc->find("procs");
  if (!Procs->isArray()) {
    Error = "shard job 'procs' must be an array";
    return false;
  }
  for (const JsonValue &P : Procs->elements()) {
    if (!P.isInt() || P.integer() < 0 ||
        P.integer() >= static_cast<int64_t>(UINT32_MAX)) {
      Error = "shard job procedure ids must be non-negative integers";
      return false;
    }
    ProcId Id = static_cast<ProcId>(P.integer());
    if (!Job.Procs.empty() && Id <= Job.Procs.back()) {
      Error = "shard job procedure ids must be strictly ascending";
      return false;
    }
    Job.Procs.push_back(Id);
  }

  const JsonValue *Crash = Doc->find("crash_after_cells");
  if (!Crash->isInt() || Crash->integer() < -1) {
    Error = "shard job 'crash_after_cells' must be an integer >= -1";
    return false;
  }
  Job.CrashAfterCells = static_cast<int>(Crash->integer());

  const JsonValue *Programs = Doc->find("programs");
  if (!Programs->isArray() || Programs->elements().empty()) {
    Error = "shard job 'programs' must be a non-empty array";
    return false;
  }
  for (const JsonValue &E : Programs->elements()) {
    if (!E.isObject()) {
      Error = "shard job program entries must be objects";
      return false;
    }
    if (!checkKeys(E, {"name", "source"}, "shard job program entry", Error))
      return false;
    const JsonValue *Name = E.find("name");
    const JsonValue *Source = E.find("source");
    if (!Name->isString() || Name->str().empty() || !Source->isString()) {
      Error = "shard job program entries need a non-empty 'name' and a "
              "'source' string";
      return false;
    }
    Job.Programs.push_back({Name->str(), Source->str()});
  }
  if (Job.JobMode == ShardJob::Mode::Summary && Job.Programs.size() != 1) {
    Error = "summary-mode shard jobs carry exactly one program";
    return false;
  }

  Out = std::move(Job);
  return true;
}

std::string ipcp::serializeShardResult(const ShardResult &R) {
  JsonValue Doc = JsonValue::object();
  Doc.set("format", "ipcp-shard-result");
  Doc.set("version", 1);
  JsonValue Cells = JsonValue::array();
  for (const ShardCellResult &C : R.Cells) {
    JsonValue E = JsonValue::object();
    E.set("program", C.Program);
    E.set("config", C.Config);
    E.set("ok", C.Ok);
    E.set("subst", C.SubstitutedConstants);
    E.set("prints", C.ConstantPrints);
    Cells.push(std::move(E));
  }
  Doc.set("cells", std::move(Cells));
  JsonValue Summaries = JsonValue::array();
  for (const std::string &S : R.Summaries)
    Summaries.push(JsonValue(S));
  Doc.set("summaries", std::move(Summaries));
  return Doc.dump();
}

bool ipcp::parseShardResult(std::string_view Text, ShardResult &Out,
                            std::string &Error) {
  std::optional<JsonValue> Doc = parseJson(Text, Error);
  if (!Doc) {
    Error = "shard result is not valid JSON: " + Error;
    return false;
  }
  if (!Doc->isObject()) {
    Error = "shard result must be a JSON object";
    return false;
  }
  if (!checkKeys(*Doc, {"cells", "format", "summaries", "version"},
                 "shard result", Error))
    return false;
  if (Doc->strOr("format", "") != "ipcp-shard-result") {
    Error = "not a shard result file (format '" + Doc->strOr("format", "") +
            "')";
    return false;
  }
  if (Doc->intOr("version", -1) != 1) {
    Error = "shard result version mismatch (got " +
            std::to_string(Doc->intOr("version", -1)) +
            ", this build reads 1)";
    return false;
  }

  ShardResult R;
  const JsonValue *Cells = Doc->find("cells");
  if (!Cells->isArray()) {
    Error = "shard result 'cells' must be an array";
    return false;
  }
  for (const JsonValue &E : Cells->elements()) {
    if (!E.isObject()) {
      Error = "shard result cells must be objects";
      return false;
    }
    if (!checkKeys(E, {"config", "ok", "prints", "program", "subst"},
                   "shard result cell", Error))
      return false;
    const JsonValue *Program = E.find("program");
    const JsonValue *Config = E.find("config");
    const JsonValue *Ok = E.find("ok");
    const JsonValue *Subst = E.find("subst");
    const JsonValue *Prints = E.find("prints");
    if (!Program->isString() || Program->str().empty() ||
        !Config->isString() || Config->str().empty() || !Ok->isBool() ||
        !Subst->isInt() || Subst->integer() < 0 || !Prints->isInt() ||
        Prints->integer() < 0) {
      Error = "shard result cell for '" + Program->strOr("program", "?") +
              "' is malformed";
      return false;
    }
    R.Cells.push_back({Program->str(), Config->str(), Ok->boolean(),
                       static_cast<unsigned>(Subst->integer()),
                       static_cast<unsigned>(Prints->integer())});
  }

  const JsonValue *Summaries = Doc->find("summaries");
  if (!Summaries->isArray()) {
    Error = "shard result 'summaries' must be an array";
    return false;
  }
  for (const JsonValue &S : Summaries->elements()) {
    if (!S.isString()) {
      Error = "shard result summaries must be strings";
      return false;
    }
    R.Summaries.push_back(S.str());
  }

  Out = std::move(R);
  return true;
}

//===----------------------------------------------------------------------===//
// The worker
//===----------------------------------------------------------------------===//

int ipcp::runShardWorker(const std::string &JobPath,
                         const std::string &OutPath) {
  std::string Text, Error;
  if (!readFile(JobPath, Text, Error)) {
    std::cerr << "shard-worker: " << Error << '\n';
    return 2;
  }
  ShardJob Job;
  if (!parseShardJob(Text, Job, Error)) {
    std::cerr << "shard-worker: " << Error << '\n';
    return 2;
  }

  ShardResult R;
  size_t CellsDone = 0;
  // Fault injection for the crash-recovery tests: die without writing a
  // result file, the way a real crash would.
  auto MaybeCrash = [&] {
    if (Job.CrashAfterCells >= 0 &&
        CellsDone >= static_cast<size_t>(Job.CrashAfterCells))
      ::_exit(57);
  };
  MaybeCrash();

  if (Job.JobMode == ShardJob::Mode::Cells) {
    std::vector<SuiteConfig> Configs = configsByName(Job.ConfigSet);
    if (Configs.empty()) {
      std::cerr << "shard-worker: unknown config set '" << Job.ConfigSet
                << "'\n";
      return 2;
    }
    for (const ShardJobProgram &P : Job.Programs) {
      WorkloadProgram W{};
      W.Name = P.Name;
      W.Source = P.Source;
      // The ordinary suite runner, restricted to this worker's programs:
      // cells are per-program independent, so the deterministic fields
      // equal the same cells of a whole-suite single-process run.
      SuiteRunResult Batch = runSuite({W}, Configs, 1, 1, SuiteSharing::Shared);
      for (const SuiteCell &C : Batch.Cells)
        R.Cells.push_back({C.Program, C.Config, C.Ok, C.SubstitutedConstants,
                           C.ConstantPrints});
      CellsDone += Batch.Cells.size();
      MaybeCrash();
    }
  } else {
    const ShardJobProgram &P = Job.Programs.front();
    DiagnosticEngine Diags;
    auto Ctx = parseProgram(P.Source, Diags);
    SymbolTable Symbols;
    if (!Diags.hasErrors())
      Symbols = Sema::run(*Ctx, Diags);
    if (Diags.hasErrors()) {
      std::cerr << "shard-worker: program '" << P.Name
                << "' failed the frontend:\n"
                << Diags.str();
      return 2;
    }
    AnalysisSession Session(*Ctx, Symbols);
    const CallGraph &CG = Session.callGraph();
    for (ProcId Proc : Job.Procs)
      if (Proc >= CG.numProcs()) {
        std::cerr << "shard-worker: procedure id " << Proc
                  << " out of range (program has " << CG.numProcs() << ")\n";
        return 2;
      }
    ProgramJumpFunctions Jfs = buildJumpFunctions(Session, Job.Config);
    R.Summaries.push_back(serializeSummary(makeSummary(
        P.Name, summarySourceHash(P.Source), Session.module(), Symbols, CG,
        Jfs, &Session.refAlias(Job.Config.UseMod), Job.Procs)));
    CellsDone += Job.Procs.size();
    MaybeCrash();
  }

  if (!writeFile(OutPath, serializeShardResult(R), Error)) {
    std::cerr << "shard-worker: " << Error << '\n';
    return 2;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// The coordinator
//===----------------------------------------------------------------------===//

namespace {

struct Partition {
  size_t Index = 0;
  ShardJob Job;
  Subprocess Child;
  unsigned Attempt = 0;
  bool Done = false;
  ShardResult Result;
  std::string OutPath;
  std::string ErrPath;
};

/// Scratch directory with cleanup-on-scope-exit (kept on request or when
/// the caller supplied the directory).
struct Scratch {
  std::string Dir;
  bool Owned = false;
  bool Keep = false;
  ~Scratch() {
    if (Owned && !Keep && !Dir.empty()) {
      std::error_code Ec;
      std::filesystem::remove_all(Dir, Ec);
    }
  }
};

bool prepareScratch(const ShardSpawnOptions &O, Scratch &S,
                    std::string &Error) {
  S.Keep = O.KeepTemps;
  if (!O.TempDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(O.TempDir, Ec);
    if (Ec) {
      Error = "cannot create temp dir '" + O.TempDir + "': " + Ec.message();
      return false;
    }
    S.Dir = O.TempDir;
    return true;
  }
  std::error_code Ec;
  std::string Tmpl =
      (std::filesystem::temp_directory_path(Ec) / "ipcp-shard-XXXXXX")
          .string();
  if (Ec) {
    Error = "no temp directory: " + Ec.message();
    return false;
  }
  std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
  Buf.push_back('\0');
  if (!::mkdtemp(Buf.data())) {
    Error = "mkdtemp failed for '" + Tmpl + "'";
    return false;
  }
  S.Dir = Buf.data();
  S.Owned = true;
  return true;
}

bool spawnPartition(Partition &P, const std::string &Binary,
                    const std::string &Dir, const ShardSpawnOptions &SO,
                    std::string &Error) {
  ShardJob Job = P.Job;
  // Fault injection arms only the first attempt, so recovery re-runs the
  // partition clean — the way a real transient crash behaves.
  Job.CrashAfterCells =
      (P.Attempt == 0 && static_cast<int>(P.Index) == SO.CrashPartitionIndex)
          ? SO.CrashAfterCells
          : -1;
  std::string Tag =
      "p" + std::to_string(P.Index) + "_a" + std::to_string(P.Attempt);
  std::string JobPath = Dir + "/job_" + Tag + ".json";
  P.OutPath = Dir + "/out_" + Tag + ".json";
  P.ErrPath = Dir + "/log_" + Tag + ".txt";
  if (!writeFile(JobPath, serializeShardJob(Job), Error))
    return false;
  return P.Child.spawn({Binary, "--shard-worker", "--shard-in=" + JobPath,
                        "--shard-out=" + P.OutPath},
                       "", P.ErrPath, Error);
}

/// Drives every partition to a parsed result, reassigning crashed (or
/// garbled-result) partitions to fresh workers up to the attempt bound.
bool drivePartitions(std::vector<Partition> &Parts,
                     const ShardSpawnOptions &SO, const std::string &Dir,
                     unsigned &Spawned, unsigned &Crashes,
                     unsigned &Reassigned, std::string &Error) {
  std::string Binary =
      SO.WorkerBinary.empty() ? currentExecutablePath() : SO.WorkerBinary;
  if (Binary.empty()) {
    Error = "no worker binary (ShardSpawnOptions::WorkerBinary is empty and "
            "/proc/self/exe is unreadable)";
    return false;
  }
  for (Partition &P : Parts) {
    if (!spawnPartition(P, Binary, Dir, SO, Error))
      return false;
    ++Spawned;
  }
  // Each pass waits on every live partition; failed ones are respawned
  // and picked up by the next pass. Terminates: a pass with no respawn
  // means all are done, and attempts are bounded.
  for (bool AnyRespawned = true; AnyRespawned;) {
    AnyRespawned = false;
    for (Partition &P : Parts) {
      if (P.Done)
        continue;
      ProcessExit E = P.Child.wait();
      std::string Failure;
      if (!E.ok()) {
        Failure = "worker died (" + E.str() + ")";
      } else {
        std::string ResultText, ReadError;
        if (!readFile(P.OutPath, ResultText, ReadError))
          Failure = "result file unreadable: " + ReadError;
        else if (!parseShardResult(ResultText, P.Result, ReadError))
          Failure = "result file rejected: " + ReadError;
      }
      if (Failure.empty()) {
        P.Done = true;
        continue;
      }
      ++Crashes;
      if (P.Attempt + 1 >= SO.MaxAttempts) {
        Error = "partition " + std::to_string(P.Index) + " failed " +
                std::to_string(P.Attempt + 1) + " attempt(s), giving up: " +
                Failure + " (worker log: " + P.ErrPath + ")";
        return false;
      }
      ++P.Attempt;
      ++Reassigned;
      if (!spawnPartition(P, Binary, Dir, SO, Error))
        return false;
      ++Spawned;
      AnyRespawned = true;
    }
  }
  return true;
}

} // namespace

ShardedSuiteResult
ipcp::runShardedSuite(const std::vector<WorkloadProgram> &Programs,
                      const ShardedSuiteOptions &Opts) {
  ShardedSuiteResult R;
  Clock::time_point Start = Clock::now();

  std::vector<SuiteConfig> Configs = configsByName(Opts.ConfigSet);
  if (Configs.empty()) {
    R.Error = "unknown config set '" + Opts.ConfigSet + "'";
    return R;
  }
  if (Programs.empty()) {
    R.Error = "no programs to shard";
    return R;
  }

  Scratch S;
  if (!prepareScratch(Opts.Spawn, S, R.Error))
    return R;

  size_t N =
      std::max<size_t>(1, std::min<size_t>(Opts.NumWorkers, Programs.size()));
  std::vector<Partition> Parts(N);
  for (size_t I = 0; I != N; ++I) {
    Parts[I].Index = I;
    Parts[I].Job.JobMode = ShardJob::Mode::Cells;
    Parts[I].Job.ConfigSet = Opts.ConfigSet;
  }
  for (size_t I = 0; I != Programs.size(); ++I)
    Parts[I % N].Job.Programs.push_back(
        {Programs[I].Name, Programs[I].Source});

  if (!drivePartitions(Parts, Opts.Spawn, S.Dir, R.WorkersSpawned,
                       R.WorkerCrashes, R.PartitionsReassigned, R.Error))
    return R;

  // Reassemble the grid in canonical order, insisting on exact coverage:
  // every (program, config) exactly once, no strays.
  std::map<std::pair<std::string, std::string>, ShardCellResult> ByKey;
  size_t TotalCells = 0;
  for (const Partition &P : Parts) {
    for (const ShardCellResult &C : P.Result.Cells) {
      ++TotalCells;
      auto [It, Inserted] = ByKey.insert({{C.Program, C.Config}, C});
      if (!Inserted) {
        R.Error = "partition " + std::to_string(P.Index) +
                  " produced a duplicate cell for (" + C.Program + ", " +
                  C.Config + ")";
        return R;
      }
    }
  }

  R.NumPrograms = Programs.size();
  R.NumConfigs = Configs.size();
  for (const WorkloadProgram &P : Programs) {
    for (const SuiteConfig &C : Configs) {
      auto It = ByKey.find({P.Name, C.Name});
      if (It == ByKey.end()) {
        R.Error = "no worker covered cell (" + P.Name + ", " + C.Name + ")";
        R.Cells.clear();
        return R;
      }
      R.Cells.push_back(std::move(It->second));
    }
  }
  if (TotalCells != R.Cells.size()) {
    R.Error = "workers produced " + std::to_string(TotalCells) +
              " cells for a " + std::to_string(R.Cells.size()) +
              "-cell grid (stray program or config names)";
    R.Cells.clear();
    return R;
  }

  R.Ok = true;
  R.WallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();
  return R;
}

ShardedAnalysisResult
ipcp::runShardedAnalysis(const std::string &Name, const std::string &Source,
                         const PipelineOptions &Opts,
                         const ShardedAnalysisOptions &SOpts) {
  ShardedAnalysisResult R;
  if (Opts.CompletePropagation || Opts.IntraproceduralOnly) {
    R.Error = Opts.CompletePropagation
                  ? "complete propagation cannot be sharded (its DCE rounds "
                    "rebuild jump functions from a mutated program)"
                  : "intraprocedural-only propagation has no jump functions "
                    "to shard";
    return R;
  }

  DiagnosticEngine Diags;
  auto Ctx = parseProgram(Source, Diags);
  SymbolTable Symbols;
  if (!Diags.hasErrors())
    Symbols = Sema::run(*Ctx, Diags);
  if (Diags.hasErrors()) {
    R.Error = Diags.str();
    return R;
  }
  AnalysisSession Session(*Ctx, Symbols);
  const CallGraph &CG = Session.callGraph();

  Scratch S;
  if (!prepareScratch(SOpts.Spawn, S, R.Error))
    return R;

  size_t N =
      std::max<size_t>(1, std::min<size_t>(SOpts.NumShards, CG.numProcs()));
  std::vector<Partition> Parts(N);
  for (size_t I = 0; I != N; ++I) {
    Parts[I].Index = I;
    Parts[I].Job.JobMode = ShardJob::Mode::Summary;
    Parts[I].Job.Config = Opts;
    Parts[I].Job.Programs.push_back({Name, Source});
  }
  for (ProcId P = 0; P != CG.numProcs(); ++P)
    Parts[P % N].Job.Procs.push_back(P);

  if (!drivePartitions(Parts, SOpts.Spawn, S.Dir, R.WorkersSpawned,
                       R.WorkerCrashes, R.PartitionsReassigned, R.Error))
    return R;

  std::vector<ProgramSummary> Partials;
  for (const Partition &P : Parts) {
    if (P.Result.Summaries.size() != 1) {
      R.Error = "partition " + std::to_string(P.Index) + " shipped " +
                std::to_string(P.Result.Summaries.size()) +
                " summaries, expected exactly 1";
      return R;
    }
    ProgramSummary Partial;
    if (!parseSummary(P.Result.Summaries.front(), Partial, R.Error)) {
      R.Error = "partition " + std::to_string(P.Index) +
                " shipped a rejected summary: " + R.Error;
      return R;
    }
    Partials.push_back(std::move(Partial));
  }

  ProgramSummary Merged;
  if (!mergeSummaries(std::move(Partials), Merged, R.Error))
    return R;
  if (Merged.SourceHash != summarySourceHash(Source)) {
    R.Error = "merged summary hashes a different source than the one loaded";
    return R;
  }

  ProgramJumpFunctions Jfs;
  if (!reconstituteJumpFunctions(Merged, Session.module(), Symbols, CG, Jfs,
                                 R.Error))
    return R;

  R.Pipeline = runPipelineOnSession(Session, Opts, &Jfs);
  R.Ok = R.Pipeline.Ok;
  if (!R.Ok)
    R.Error = R.Pipeline.Error;
  return R;
}
