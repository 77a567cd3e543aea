//===- tools/ipcp-driver.cpp - Command-line front end ---------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ipcp-driver: run the analyzer over a MiniFort file.
///
///   ipcp-driver [options] <file.mf | --suite=<name>>   (see --help)
///
//===----------------------------------------------------------------------===//

#include "exec/ExecEngine.h"
#include "exec/Interpreter.h"
#include "exec/Oracle.h"
#include "ipcp/AnalysisConfig.h"
#include "ipcp/AnalysisSession.h"
#include "ipcp/Cloning.h"
#include "ipcp/Inliner.h"
#include "ipcp/Pipeline.h"
#include "ir/Dominators.h"
#include "ir/IrPrinter.h"
#include "lang/Parser.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Render.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "workloads/Suite.h"
#include "workloads/SuiteRunner.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

using namespace ipcp;

static void printUsage() {
  std::cerr
      << "usage: ipcp-driver [options] <file.mf | --suite=<name>>\n"
      << configFlagsUsage()
      << "  --emit-source  print the transformed source\n"
         "  --quiet        print only the substitution count\n"
         "  --suite=<name> analyze a built-in suite program (e.g. ocean)\n"
         "  --threads=<n>  worker threads inside one analysis (0 = all cores)\n"
         "  --time         print per-phase wall-clock timings\n"
         "  --configs=<all|table2|table3>  batch: run the whole built-in\n"
         "                 suite under every named configuration\n"
         "  --jobs=<n>     batch workers for --configs (0 = all cores)\n"
         "  --dump-ir      print the lowered CFG of every procedure\n"
         "  --dump-ssa     print the SSA form of every procedure\n"
         "  --dump-jf      print every call site's jump functions\n"
         "  --constants-out=<file>  write the CONSTANTS sets to a file\n"
         "  --stats        print jump function and solver statistics\n"
         "  --inline       print the procedure-integrated program and exit\n"
         "  --clone        print the constant-cloned program and exit\n"
         "  --run          execute the program and print its PRINT trace\n"
         "  --validate     run the translation-validation oracle over the\n"
         "                 program under the selected analyzer options\n"
         "  --exec=<vm|ast>  execution engine for --run/--validate: the\n"
         "                 bytecode VM (default) or the AST interpreter\n"
         "  --read-seed=<n>  READ input stream seed for --run/--validate\n"
         "  --max-steps=<n>  execution step budget for --run/--validate\n"
         "  --server-url=<host:port>  forward the analysis to a running\n"
         "                 ipcp-serve and print its reply (byte-identical\n"
         "                 to local mode)\n";
}

// Parses a worker-count flag value: digits only, capped well below any
// plausible core count (0 means "all cores").
static bool parseCount(const std::string &Value, const char *Flag,
                       unsigned &Out) {
  if (Value.empty() ||
      Value.find_first_not_of("0123456789") != std::string::npos) {
    std::cerr << "error: " << Flag << " expects a non-negative integer, got '"
              << Value << "'\n";
    return false;
  }
  unsigned long N = std::strtoul(Value.c_str(), nullptr, 10);
  if (N > 1024) {
    std::cerr << "error: " << Flag << "=" << Value << " is out of range\n";
    return false;
  }
  Out = static_cast<unsigned>(N);
  return true;
}

// Parses an unbounded non-negative integer flag value (seeds, budgets).
static bool parseU64(const std::string &Value, const char *Flag,
                     uint64_t &Out) {
  if (Value.empty() ||
      Value.find_first_not_of("0123456789") != std::string::npos) {
    std::cerr << "error: " << Flag << " expects a non-negative integer, got '"
              << Value << "'\n";
    return false;
  }
  Out = std::strtoull(Value.c_str(), nullptr, 10);
  return true;
}

int main(int argc, char **argv) {
  PipelineOptions Opts;
  std::string Path;
  std::string SuiteName;
  std::string ConstantsOut;
  bool EmitSource = false;
  bool Quiet = false;
  bool DumpIr = false;
  bool DumpSsa = false;
  bool DumpJf = false;
  bool DoInline = false;
  bool DoClone = false;
  bool DoRun = false;
  bool DoValidate = false;
  uint64_t ReadSeed = 1;
  uint64_t MaxSteps = RunLimits().MaxSteps;
  ExecEngine Engine = ExecEngine::Vm;
  bool Stats = false;
  bool Time = false;
  unsigned Jobs = 1;
  std::string ConfigSet;
  std::string ServerUrl;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Error;
    if (ConfigFlag F = applyConfigFlag(Arg, Opts, Error);
        F != ConfigFlag::NotConfig) {
      if (F == ConfigFlag::BadValue) {
        std::cerr << "error: " << Error << '\n';
        return 1;
      }
    } else if (Arg == "--emit-source") {
      EmitSource = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--time") {
      Time = true;
    } else if (Arg.rfind("--threads=", 0) == 0) {
      if (!parseCount(Arg.substr(10), "--threads", Opts.Threads))
        return 1;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseCount(Arg.substr(7), "--jobs", Jobs))
        return 1;
    } else if (Arg.rfind("--configs=", 0) == 0) {
      ConfigSet = Arg.substr(10);
    } else if (Arg == "--dump-ir") {
      DumpIr = true;
    } else if (Arg == "--dump-ssa") {
      DumpSsa = true;
    } else if (Arg == "--dump-jf") {
      DumpJf = true;
    } else if (Arg.rfind("--constants-out=", 0) == 0) {
      ConstantsOut = Arg.substr(16);
    } else if (Arg == "--inline") {
      DoInline = true;
    } else if (Arg == "--clone") {
      DoClone = true;
    } else if (Arg == "--run") {
      DoRun = true;
    } else if (Arg == "--validate") {
      DoValidate = true;
    } else if (Arg.rfind("--exec=", 0) == 0) {
      std::string Name = Arg.substr(7);
      if (auto E = parseExecEngineName(Name)) {
        Engine = *E;
      } else {
        std::cerr << "error: --exec expects vm or ast, got '" << Name
                  << "'\n";
        return 1;
      }
    } else if (Arg.rfind("--read-seed=", 0) == 0) {
      if (!parseU64(Arg.substr(12), "--read-seed", ReadSeed))
        return 1;
    } else if (Arg.rfind("--max-steps=", 0) == 0) {
      if (!parseU64(Arg.substr(12), "--max-steps", MaxSteps))
        return 1;
    } else if (Arg.rfind("--suite=", 0) == 0) {
      SuiteName = Arg.substr(8);
    } else if (Arg.rfind("--server-url=", 0) == 0) {
      ServerUrl = Arg.substr(13);
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "error: unknown option '" << Arg << "'\n";
      printUsage();
      return 1;
    } else {
      Path = Arg;
    }
  }

  // Batch mode: the whole built-in suite under a named config set,
  // (program x config) runs fanned out across --jobs workers.
  if (!ConfigSet.empty()) {
    std::vector<SuiteConfig> Configs = configsByName(ConfigSet);
    if (Configs.empty()) {
      std::cerr << "error: unknown config set '" << ConfigSet
                << "' (expected all, table2, or table3)\n";
      return 1;
    }

    SuiteRunResult Batch =
        runSuite(extendedSuite(), Configs, Jobs, Opts.Threads);

    TablePrinter Table;
    std::vector<std::string> Header = {"Program"};
    for (const SuiteConfig &C : Configs)
      Header.push_back(C.Name);
    Table.addHeader(Header);
    bool AllOk = true;
    for (size_t P = 0; P != Batch.NumPrograms; ++P) {
      std::vector<std::string> Row = {Batch.cell(P, 0).Program};
      for (size_t C = 0; C != Batch.NumConfigs; ++C) {
        const SuiteCell &Cell = Batch.cell(P, C);
        AllOk = AllOk && Cell.Ok;
        Row.push_back(Cell.Ok
                          ? std::to_string(Cell.SubstitutedConstants)
                          : std::string("ERR"));
      }
      Table.addRow(Row);
    }
    Table.print(std::cout);
    std::cout << "\ncells: " << Batch.Cells.size() << " ("
              << Batch.NumPrograms << " programs x " << Batch.NumConfigs
              << " configs), total substituted: " << Batch.TotalSubstituted
              << "\n";
    // Cell-time sum over wall measures overlap achieved, not true
    // speedup (cell times at jobs>1 include descheduled time); compare
    // wall clocks across --jobs values for that.
    std::cout << std::fixed << std::setprecision(1) << "wall: "
              << Batch.WallMs << " ms, cell-time sum: " << Batch.CellMs
              << " ms, jobs: " << (Jobs ? Jobs : ThreadPool::hardwareThreads())
              << ", overlap: "
              << (Batch.WallMs > 0 ? Batch.CellMs / Batch.WallMs : 0.0)
              << "x\n";
    if (Stats) {
      // Hit *rate*, not raw counters: two counters hid a 0-hit memo for
      // three PRs. Guarded denominator: a batch with no memo-eligible
      // visits reports 0, not NaN. (The single-run report deliberately
      // omits memo counters — they are warmth-dependent and that output
      // must stay byte-identical between local and served runs; see
      // serve/Render.cpp.)
      uint64_t Hits = 0, Misses = 0;
      for (const SuiteCell &Cell : Batch.Cells) {
        Hits += Cell.SolverMemoHits;
        Misses += Cell.SolverMemoMisses;
      }
      uint64_t Total = Hits + Misses;
      std::cout << "solver memo: hit rate "
                << (Total ? 100.0 * double(Hits) / double(Total) : 0.0)
                << "% (" << Hits << " hits / " << Misses << " misses)\n";
    }
    if (Time) {
      std::cout << std::fixed << std::setprecision(2)
                << "per-cell phase timings (ms):\n";
      for (const SuiteCell &Cell : Batch.Cells) {
        const PhaseTimings &T = Cell.Timings;
        std::cout << "  " << Cell.Program << "/" << Cell.Config
                  << ": lower " << T.LowerMs << ", jf "
                  << T.JumpFunctionsMs << ", solve " << T.SolveMs
                  << ", substitute " << T.SubstituteMs << ", total "
                  << T.TotalMs;
        // Hit *rate*, not raw counters: two counters hid a 0-hit memo
        // for three PRs. Guard the cells with no memo-eligible visits.
        if (uint64_t Total = Cell.SolverMemoHits + Cell.SolverMemoMisses)
          std::cout << " (memo hit rate "
                    << 100.0 * double(Cell.SolverMemoHits) / double(Total)
                    << "% of " << Total << ")";
        std::cout << "\n";
      }
      const SessionStats &S = Batch.Cache;
      std::cout << "shared frontend: " << Batch.FrontendMs << " ms for "
                << Batch.NumPrograms << " programs\n"
                << "session caches: lowered " << S.ProcsLowered << " procs ("
                << S.ProcsRelowered << " re-lowered), ssa " << S.SsaBuilt
                << " built/" << S.SsaReused << " reused, vn " << S.VnBuilt
                << " built/" << S.VnReused << " reused, jf bases "
                << S.JfBasesBuilt << " built/" << S.JfBasesReused
                << " reused\n";
      auto PrintMemo = [](const char *Name, uint64_t Hits, uint64_t Misses) {
        uint64_t Total = Hits + Misses;
        std::cout << Name << " memo: hit rate "
                  << (Total ? 100.0 * double(Hits) / double(Total) : 0.0)
                  << "% (" << Hits << " hits / " << Misses << " misses)\n";
      };
      PrintMemo("solver", S.SolverMemoHits, S.SolverMemoMisses);
      PrintMemo("substitution", S.SubstMemoHits, S.SubstMemoMisses);
      std::cout << std::defaultfloat;
    }
    return AllOk ? 0 : 1;
  }

  std::string Source;
  if (!SuiteName.empty()) {
    for (const WorkloadProgram &P : extendedSuite())
      if (P.Name == SuiteName)
        Source = P.Source;
    if (Source.empty()) {
      std::cerr << "error: no suite program named '" << SuiteName << "'\n";
      return 1;
    }
  } else if (!Path.empty()) {
    // An ifstream opens a directory without error and then reads nothing,
    // which would silently analyze an empty program — check the path
    // first, and check the stream again after draining it.
    std::error_code Ec;
    if (!std::filesystem::exists(Path, Ec)) {
      std::cerr << "error: no such file '" << Path << "'\n";
      return 1;
    }
    if (!std::filesystem::is_regular_file(Path, Ec)) {
      std::cerr << "error: '" << Path << "' is not a regular file\n";
      return 1;
    }
    std::ifstream In(Path);
    if (!In) {
      std::cerr << "error: cannot open '" << Path << "'\n";
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    if (In.bad()) {
      std::cerr << "error: failed reading '" << Path << "'\n";
      return 1;
    }
    Source = Buf.str();
  } else {
    printUsage();
    return 1;
  }

  // Served mode: forward the analysis to a running ipcp-serve and print
  // its reply. The server renders through the same serve/Render code
  // this binary uses locally, so stdout is byte-identical to local mode
  // (the differential test in ServeTests holds us to that).
  if (!ServerUrl.empty()) {
    if (DoRun || DoValidate || DoInline || DoClone || DumpIr || DumpSsa ||
        DumpJf || Time || !ConstantsOut.empty()) {
      std::cerr << "error: --server-url supports only the analysis report "
                   "(no --run/--validate/--inline/--clone/--dump-*/--time/"
                   "--constants-out)\n";
      return 1;
    }
    ServeRequest Req;
    Req.Id = "cli";
    Req.Method = ServeMethod::AnalyzeSource;
    Req.Config = Opts;
    Req.Report.Quiet = Quiet;
    Req.Report.Stats = Stats;
    Req.Report.EmitSource = EmitSource;
    Req.Source = Source;

    ServeClient Client;
    std::string Error, ReplyLine;
    if (!Client.connect(ServerUrl, Error) ||
        !Client.call(serializeServeRequest(Req), ReplyLine, Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    std::optional<JsonValue> Reply = parseJson(ReplyLine, Error);
    if (!Reply || !Reply->isObject()) {
      std::cerr << "error: unparseable server reply: " << Error << '\n';
      return 1;
    }
    if (!Reply->boolOr("ok", false)) {
      const JsonValue *E = Reply->find("error");
      std::cerr << (E ? E->strOr("message", "server error")
                      : std::string("server error"));
      std::cerr << '\n';
      return 1;
    }
    const JsonValue *Result = Reply->find("result");
    std::cout << (Result ? Result->strOr("output", "") : std::string());
    return 0;
  }

  if (DoRun) {
    DiagnosticEngine Diags;
    auto Ctx = parseProgram(Source, Diags);
    SymbolTable Symbols;
    if (!Diags.hasErrors())
      Symbols = Sema::run(*Ctx, Diags);
    if (Diags.hasErrors()) {
      Diags.print(std::cerr);
      return 1;
    }
    ProgramRunner Runner(Ctx->program(), Symbols, Engine);
    RunOptions RO;
    RO.ReadSeed = ReadSeed;
    RO.Limits.MaxSteps = MaxSteps;
    RunResult R = Runner.run(RO);
    for (int64_t V : R.Prints)
      std::cout << V << '\n';
    std::cerr << "! " << R.str() << '\n';
    return R.Status == RunStatus::Ok ? 0 : 1;
  }

  if (DoValidate) {
    OracleOptions OOpts;
    OOpts.Pipeline = Opts;
    OOpts.Limits.MaxSteps = MaxSteps;
    OOpts.Engine = Engine;
    OOpts.ReadSeeds = {ReadSeed, ReadSeed + 1, ReadSeed + 2};
    OOpts.CheckInliner = true;
    OOpts.CheckCloning = true;
    OracleResult R = validateTranslation(Source, OOpts);
    if (!R.Ok) {
      std::cerr << "validation FAILED:\n" << R.Error << '\n';
      return 1;
    }
    std::cout << "validation passed: " << R.RunsExecuted << " runs, "
              << R.TraceComparisons << " trace comparisons, "
              << R.SubstitutedUseChecks << " substituted-use checks, "
              << R.EntryConstantChecks << " entry-constant checks\n";
    return 0;
  }

  if (DoInline || DoClone) {
    if (DoInline) {
      DiagnosticEngine Diags;
      auto Ctx = parseProgram(Source, Diags);
      SymbolTable Symbols = Sema::run(*Ctx, Diags);
      if (Diags.hasErrors()) {
        Diags.print(std::cerr);
        return 1;
      }
      InlineResult R = inlineProgram(*Ctx, Symbols);
      std::cout << R.Source;
      std::cerr << "! inlined " << R.InlinedCalls << " calls ("
                << R.SkippedRecursive << " recursive, "
                << R.SkippedHasReturn << " early-return, "
                << R.SkippedBudget << " budget kept)\n";
      return 0;
    }
    CloneResult R = cloneForConstants(Source);
    if (!R.Ok) {
      std::cerr << R.Error;
      return 1;
    }
    std::cout << R.Source;
    std::cerr << "! created " << R.ClonesCreated << " clones in "
              << R.Rounds << " rounds\n";
    return 0;
  }

  if (DumpIr || DumpSsa || DumpJf) {
    DiagnosticEngine Diags;
    auto Ctx = parseProgram(Source, Diags);
    SymbolTable Symbols = Sema::run(*Ctx, Diags);
    if (Diags.hasErrors()) {
      Diags.print(std::cerr);
      return 1;
    }
    AnalysisSession Session(*Ctx, Symbols);
    const CallGraph &CG = Session.callGraph();
    for (const auto &F : Session.module().Functions) {
      if (DumpIr)
        printFunction(*F, Symbols, std::cout);
      if (DumpSsa) {
        DominatorTree DT(*F);
        SsaForm Ssa(*F, Symbols, DT, Session.killOracle(/*UseMod=*/true));
        printSsa(Ssa, Symbols, std::cout);
      }
    }
    if (DumpJf) {
      ProgramJumpFunctions Jfs = buildJumpFunctions(Session, Opts);
      for (ProcId P = 0; P != CG.numProcs(); ++P) {
        const auto &Sites = CG.callSitesIn(P);
        for (size_t I = 0; I != Sites.size(); ++I) {
          const auto &Site = Jfs.PerSite[P][I];
          std::cout << Ctx->program().Procs[P]->name() << " -> "
                    << Ctx->program().Procs[Sites[I].Callee]->name()
                    << ":";
          const auto &Formals = Symbols.formals(Sites[I].Callee);
          for (size_t A = 0; A != Site.Args.size(); ++A)
            std::cout << ' ' << Symbols.symbol(Formals[A]).Name << "="
                      << Site.Args[A].str(Symbols);
          const auto &Globals = Symbols.globalScalars();
          for (size_t G = 0; G != Site.Globals.size(); ++G)
            if (!Site.Globals[G].isBottom())
              std::cout << ' ' << Symbols.symbol(Globals[G]).Name << "="
                        << Site.Globals[G].str(Symbols);
          std::cout << '\n';
        }
        for (const auto &[Sym, Rjf] : Jfs.ReturnJfs[P])
          if (!Rjf.isBottom())
            std::cout << "return " << Ctx->program().Procs[P]->name()
                      << "." << Symbols.symbol(Sym).Name << " = "
                      << Rjf.str(Symbols) << '\n';
      }
    }
    return 0;
  }

  Opts.EmitTransformedSource = EmitSource;
  PipelineResult Result = runPipeline(Source, Opts);
  if (!Result.Ok) {
    std::cerr << Result.Error;
    return 1;
  }

  // "The CONSTANTS sets are written to a single file" (paper §4.1).
  if (!ConstantsOut.empty()) {
    std::ofstream Out(ConstantsOut);
    if (!Out) {
      std::cerr << "error: cannot write '" << ConstantsOut << "'\n";
      return 1;
    }
    Out << renderConstantsFile(Result);
    Out.flush();
    if (!Out) {
      std::cerr << "error: failed writing '" << ConstantsOut << "'\n";
      return 1;
    }
  }

  ReportOptions Report;
  Report.Quiet = Quiet;
  Report.Stats = Stats;
  Report.EmitSource = EmitSource;

  if (Quiet) {
    std::cout << renderAnalysisReport(Opts, Result, Report);
    return 0;
  }

  if (Time) {
    const PhaseTimings &T = Result.Timings;
    std::cout << std::fixed << std::setprecision(2) << "timings (ms):"
              << " frontend " << T.FrontendMs << ", lower " << T.LowerMs
              << ", jump functions " << T.JumpFunctionsMs << ", solve "
              << T.SolveMs << ", substitute " << T.SubstituteMs
              << ", total " << T.TotalMs << " (threads "
              << (Opts.Threads ? Opts.Threads
                               : ThreadPool::hardwareThreads())
              << ")\n"
              << std::defaultfloat;
  }

  std::cout << renderAnalysisReport(Opts, Result, Report);
  return 0;
}
