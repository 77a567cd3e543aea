//===- exec/Oracle.cpp - Translation-validation oracle --------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/Oracle.h"

#include "ipcp/AnalysisSession.h"
#include "ipcp/Cloning.h"
#include "lang/Parser.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

using namespace ipcp;

namespace {

/// A parsed-and-checked program, or the diagnostics explaining why not.
struct CheckedProgram {
  std::unique_ptr<AstContext> Ctx;
  SymbolTable Symbols;
  std::string Error;

  bool ok() const { return Error.empty(); }
};

CheckedProgram parseChecked(std::string_view Source) {
  CheckedProgram P;
  DiagnosticEngine Diags;
  P.Ctx = parseProgram(Source, Diags);
  if (!Diags.hasErrors())
    P.Symbols = Sema::run(*P.Ctx, Diags);
  if (Diags.hasErrors())
    P.Error = Diags.str();
  return P;
}

/// Collects failures, keeping only the first few descriptions.
class FailureLog {
public:
  void add(const std::string &What) {
    ++Count;
    if (Count <= 4) {
      if (!Text.empty())
        Text += "\n";
      Text += What;
    } else if (Count == 5) {
      Text += "\n... (further failures suppressed)";
    }
  }

  unsigned count() const { return Count; }
  const std::string &text() const { return Text; }

private:
  unsigned Count = 0;
  std::string Text;
};

std::string traceSummary(const RunResult &R) {
  std::ostringstream OS;
  OS << R.str() << ", prints:";
  size_t N = std::min<size_t>(R.Prints.size(), 8);
  for (size_t I = 0; I != N; ++I)
    OS << ' ' << R.Prints[I];
  if (R.Prints.size() > N)
    OS << " ...";
  return OS.str();
}

/// Compares a transformed run against the reference. Exact agreement is
/// required unless a resource limit truncated one of the runs, in which
/// case prefix agreement suffices (the budget is not semantics).
bool tracesAgree(const RunResult &Ref, const RunResult &Got,
                 std::string &Why) {
  if (isResourceLimit(Ref.Status) || isResourceLimit(Got.Status)) {
    size_t N = std::min(Ref.Prints.size(), Got.Prints.size());
    for (size_t I = 0; I != N; ++I)
      if (Ref.Prints[I] != Got.Prints[I]) {
        Why = "print #" + std::to_string(I) + " differs under a "
              "resource-limited run: reference " +
              std::to_string(Ref.Prints[I]) + ", transformed " +
              std::to_string(Got.Prints[I]);
        return false;
      }
    return true;
  }
  if (Ref.Status != Got.Status) {
    Why = std::string("termination status differs: reference ") +
          runStatusName(Ref.Status) + ", transformed " +
          runStatusName(Got.Status);
    return false;
  }
  if (Ref.Prints != Got.Prints) {
    size_t N = std::min(Ref.Prints.size(), Got.Prints.size());
    size_t I = 0;
    while (I != N && Ref.Prints[I] == Got.Prints[I])
      ++I;
    if (I == N)
      Why = "trace lengths differ: reference " +
            std::to_string(Ref.Prints.size()) + " prints, transformed " +
            std::to_string(Got.Prints.size());
    else
      Why = "print #" + std::to_string(I) + " differs: reference " +
            std::to_string(Ref.Prints[I]) + ", transformed " +
            std::to_string(Got.Prints[I]);
    return false;
  }
  return true;
}

/// CONSTANTS(p) claims as (symbol, value) pairs, indexed by ProcId.
using EntryClaimList = std::vector<std::vector<std::pair<SymbolId, int64_t>>>;

/// Resolves the CONSTANTS(p) claims of \p P back to symbol ids of the
/// analyzed program (names are unambiguous: formals may not shadow
/// globals).
EntryClaimList resolveEntryClaims(const PipelineResult &P,
                                  const CheckedProgram &Analyzed) {
  EntryClaimList Claims(Analyzed.Ctx->program().Procs.size());
  for (size_t Pid = 0; Pid != P.Constants.size(); ++Pid) {
    for (const auto &[Name, Value] : P.Constants[Pid]) {
      SymbolId Found = InvalidSymbol;
      for (SymbolId Sym : Analyzed.Symbols.formals(ProcId(Pid)))
        if (Analyzed.Symbols.symbol(Sym).Name == Name)
          Found = Sym;
      if (Found == InvalidSymbol)
        for (SymbolId Sym : Analyzed.Symbols.globalScalars())
          if (Analyzed.Symbols.symbol(Sym).Name == Name)
            Found = Sym;
      if (Found != InvalidSymbol)
        Claims[Pid].push_back({Found, Value});
    }
  }
  return Claims;
}

/// What one hooked run of the analyzed program observed: its trace and
/// the checks of every claim it reached.
struct ClaimReplay {
  RunResult Run;
  unsigned SubstitutedUseChecks = 0;
  unsigned EntryConstantChecks = 0;
  unsigned ConstantMismatches = 0;
  /// Contradicted claims in order. Past the fourth they are only
  /// counted: a FailureLog shows no more.
  std::vector<std::string> Failures;
  unsigned NumFailures = 0;

  void fail(std::string What) {
    if (NumFailures++ < 4)
      Failures.push_back(std::move(What));
  }
};

/// Runs \p Prog through \p Runner with hooks asserting that every
/// substituted use carries exactly its claimed constant and that every
/// CONSTANTS(p) entry holds on every observed entry to p.
ClaimReplay
replayClaims(const ProgramRunner &Runner, const RunOptions &RO,
             const Program &Prog, const SymbolTable &Symbols,
             const SubstitutionMap &Substitutions,
             const EntryClaimList &EntryClaims) {
  ClaimReplay Rep;
  std::string SeedText = " (seed " + std::to_string(RO.ReadSeed) + ")";
  ExecHooks Hooks;
  Hooks.OnVarUse = [&](ExprId Id, int64_t Value) {
    auto It = Substitutions.find(Id);
    if (It == Substitutions.end())
      return;
    ++Rep.SubstitutedUseChecks;
    if (Value != It->second) {
      ++Rep.ConstantMismatches;
      Rep.fail("substituted use #" + std::to_string(Id) + SeedText +
               ": claimed constant " + std::to_string(It->second) +
               ", observed " + std::to_string(Value));
    }
  };
  Hooks.OnProcEntry =
      [&](ProcId Pid, const std::function<const int64_t *(SymbolId)> &Lookup) {
        for (const auto &[Sym, Value] : EntryClaims[Pid]) {
          const int64_t *Cell = Lookup(Sym);
          if (!Cell)
            continue;
          ++Rep.EntryConstantChecks;
          if (*Cell != Value) {
            ++Rep.ConstantMismatches;
            Rep.fail("CONSTANTS(" + Prog.Procs[Pid]->name() + ") entry " +
                     Symbols.symbol(Sym).Name + "=" + std::to_string(Value) +
                     SeedText + ": observed " + std::to_string(*Cell) +
                     " on entry");
          }
        }
      };
  Rep.Run = Runner.run(RO, &Hooks);
  return Rep;
}

/// Drops the final state of \p R: the oracle compares traces only.
void keepTraceOnly(RunResult &R) {
  R.FinalGlobals.clear();
  R.FinalGlobalArrays.clear();
}

} // namespace

/// One distinct set of claims, and its replay per READ seed.
struct OracleProgram::ClaimSet {
  /// Empty for a private set (its run's own map is replayed).
  SubstitutionMap Substitutions;
  EntryClaimList EntryClaims;
  /// Indexed like ReadSeeds; filled on first use.
  std::vector<std::optional<ClaimReplay>> Replays;
};

/// A parsed program, its runner, and its trace per READ seed. A derived
/// program keeps only its traces and its parse status (see derived()).
struct OracleProgram::Traced {
  CheckedProgram Parsed;
  /// Built on the first trace (for the VM: compiled once).
  std::optional<ProgramRunner> Runner;
  /// Indexed like ReadSeeds; filled on first use.
  std::vector<std::optional<RunResult>> Traces;
};

OracleProgram::OracleProgram(std::string_view Source, const OracleRuns &Runs)
    : Source(Source), Runs(Runs), Ref(std::make_unique<Traced>()) {
  Ref->Parsed = parseChecked(Source);
}

OracleProgram::~OracleProgram() = default;

const std::string &OracleProgram::parseError() const {
  return Ref->Parsed.Error;
}

const InlineResult &OracleProgram::inlined() {
  if (!Inlined)
    Inlined = inlineProgram(*Ref->Parsed.Ctx, Ref->Parsed.Symbols);
  return *Inlined;
}

OracleProgram::Traced &OracleProgram::derived(const std::string &Text) {
  std::unique_ptr<Traced> &Slot = Derived[Text];
  if (!Slot) {
    Slot = std::make_unique<Traced>();
    Slot->Parsed = parseChecked(Text);
    // Take every trace now and free the AST and code, which are never
    // looked at again: a check builds up to three derived programs, and
    // they would otherwise all be resident at once.
    if (Slot->Parsed.ok()) {
      for (size_t I = 0; I != Runs.ReadSeeds.size(); ++I)
        trace(*Slot, I);
      Slot->Runner.reset();
      Slot->Parsed.Ctx.reset();
      Slot->Parsed.Symbols = SymbolTable();
    }
  }
  return *Slot;
}

const RunResult &OracleProgram::trace(Traced &P, size_t SeedIdx) {
  P.Traces.resize(Runs.ReadSeeds.size());
  std::optional<RunResult> &Run = P.Traces[SeedIdx];
  if (!Run) {
    if (!P.Runner)
      P.Runner.emplace(P.Parsed.Ctx->program(), P.Parsed.Symbols,
                       Runs.Engine);
    RunOptions RO;
    RO.Limits = Runs.Limits;
    RO.ReadSeed = Runs.ReadSeeds[SeedIdx];
    Run = P.Runner->run(RO);
    keepTraceOnly(*Run);
  }
  return *Run;
}

PipelineResult OracleProgram::analyze(const PipelineOptions &Pipeline) {
  PipelineOptions PO = Pipeline;
  PO.EmitTransformedSource = true;
  if (!PO.UseMod) {
    AnalysisSession Own(*Ref->Parsed.Ctx, Ref->Parsed.Symbols);
    return runPipelineOnSession(Own, PO);
  }
  if (!Session)
    Session = std::make_unique<AnalysisSession>(*Ref->Parsed.Ctx,
                                                Ref->Parsed.Symbols);
  return runPipelineOnSession(*Session, PO);
}

OracleResult OracleProgram::validate(const PipelineResult &Run,
                                     const OracleChecks &Checks) {
  return check(&Run, Checks);
}

OracleResult OracleProgram::validate(const OracleChecks &Checks) {
  // Complete propagation may fold, and a run that folded is analyzed
  // again in place: analyzing it in place straight away saves the
  // session run.
  if (!parseError().empty() || Checks.Pipeline.CompletePropagation)
    return check(nullptr, Checks);
  PipelineResult Run = analyze(Checks.Pipeline);
  return check(&Run, Checks);
}

OracleResult OracleProgram::check(const PipelineResult *SessionRun,
                                  const OracleChecks &Checks) {
  OracleResult R;
  FailureLog Failures;
  // Validating analyzes on no session: free the shared one's caches
  // before the runs below allocate their own.
  Session.reset();

  // Step 0: the reference program, and the run whose claims replay.
  if (!parseError().empty()) {
    R.Error = "source does not parse: " + parseError();
    return R;
  }
  if (SessionRun && !SessionRun->Ok) {
    R.Error = "pipeline failed: " + SessionRun->Error;
    return R;
  }
  // A run that folded no branch analyzed the reference program, ids and
  // all, so its claims replay on the shared reference runner. One that
  // folded is analyzed again in place on a private parse, whose DCE'd
  // program the claims then describe.
  const PipelineResult *P = SessionRun;
  const CheckedProgram *Analyzed = &Ref->Parsed;
  CheckedProgram Folded;
  PipelineResult FoldedRun;
  std::optional<ProgramRunner> FoldedRunner;
  if (!SessionRun || SessionRun->FoldedBranches != 0) {
    Folded = parseChecked(Source);
    PipelineOptions POpts = Checks.Pipeline;
    POpts.EmitTransformedSource = true;
    FoldedRun = runPipelineOnAst(*Folded.Ctx, Folded.Symbols, POpts);
    if (!FoldedRun.Ok) {
      R.Error = "pipeline failed: " + FoldedRun.Error;
      return R;
    }
    P = &FoldedRun;
    Analyzed = &Folded;
    FoldedRunner.emplace(Folded.Ctx->program(), Folded.Symbols, Runs.Engine);
  }
  // Step 2's claims and their replays: shared by every configuration
  // that makes the same claims on the reference program, private to one
  // that folded.
  auto Own = std::make_unique<ClaimSet>();
  Own->EntryClaims = resolveEntryClaims(*P, *Analyzed);
  Own->Replays.resize(Runs.ReadSeeds.size());
  ClaimSet *Claims = Own.get();
  if (!FoldedRunner) {
    auto Same = std::find_if(
        ClaimSets.begin(), ClaimSets.end(),
        [&](const std::unique_ptr<ClaimSet> &S) {
          return S->Substitutions == P->Substitutions &&
                 S->EntryClaims == Own->EntryClaims;
        });
    if (Same != ClaimSets.end()) {
      Claims = Same->get();
    } else {
      Own->Substitutions = P->Substitutions;
      ClaimSets.push_back(std::move(Own));
    }
  }

  // Steps 3 and 4 prep: the derived programs must reparse cleanly.
  Traced *Transformed = nullptr, *InlinedProg = nullptr, *Cloned = nullptr;
  if (Checks.CheckTransformedSource) {
    Transformed = &derived(P->TransformedSource);
    if (!Transformed->Parsed.ok())
      Failures.add("transformed source does not reparse: " +
                   Transformed->Parsed.Error);
  }
  if (Checks.CheckInliner) {
    InlinedProg = &derived(inlined().Source);
    if (!InlinedProg->Parsed.ok())
      Failures.add("inlined program does not reparse: " +
                   InlinedProg->Parsed.Error);
  }
  if (Checks.CheckCloning) {
    CloneResult CR = cloneForConstants(Source);
    if (!CR.Ok) {
      Failures.add("cloning transform failed: " + CR.Error);
    } else {
      Cloned = &derived(CR.Source);
      if (!Cloned->Parsed.ok())
        Failures.add("cloned program does not reparse: " +
                     Cloned->Parsed.Error);
    }
  }

  for (size_t SeedIdx = 0; SeedIdx != Runs.ReadSeeds.size(); ++SeedIdx) {
    uint64_t Seed = Runs.ReadSeeds[SeedIdx];
    const RunResult &RefRun = trace(*Ref, SeedIdx);
    ++R.RunsExecuted;

    auto compare = [&](const char *What, const RunResult &Got) {
      ++R.TraceComparisons;
      std::string Why;
      if (!tracesAgree(RefRun, Got, Why)) {
        ++R.TraceDivergences;
        Failures.add(std::string(What) + " (seed " +
                     std::to_string(Seed) + "): " + Why +
                     "\n  reference:   " + traceSummary(RefRun) +
                     "\n  transformed: " + traceSummary(Got));
      }
    };

    // Step 2: replay the analyzed program, checking every claim, unless
    // another configuration already replayed the same claims.
    {
      std::optional<ClaimReplay> &Rep = Claims->Replays[SeedIdx];
      if (!Rep) {
        RunOptions RO;
        RO.Limits = Runs.Limits;
        RO.ReadSeed = Seed;
        Rep = replayClaims(FoldedRunner ? *FoldedRunner : *Ref->Runner, RO,
                           Analyzed->Ctx->program(), Analyzed->Symbols,
                           P->Substitutions, Claims->EntryClaims);
        keepTraceOnly(Rep->Run);
      }
      R.SubstitutedUseChecks += Rep->SubstitutedUseChecks;
      R.EntryConstantChecks += Rep->EntryConstantChecks;
      R.ConstantMismatches += Rep->ConstantMismatches;
      for (unsigned I = 0; I != Rep->NumFailures; ++I)
        Failures.add(I < Rep->Failures.size() ? Rep->Failures[I] : "");
      ++R.RunsExecuted;
      compare("analyzed/DCE'd program trace", Rep->Run);
    }

    // Steps 3 and 4: the textually substituted source, the inliner and
    // the cloning transform.
    for (auto [What, Prog] :
         {std::pair<const char *, Traced *>{"transformed-source trace",
                                            Transformed},
          {"inlined program trace", InlinedProg},
          {"cloned program trace", Cloned}}) {
      if (!Prog || !Prog->Parsed.ok())
        continue;
      const RunResult &Got = trace(*Prog, SeedIdx);
      ++R.RunsExecuted;
      compare(What, Got);
    }
  }

  R.Ok = Failures.count() == 0;
  R.Error = Failures.text();
  return R;
}

OracleResult ipcp::validateTranslation(std::string_view Source,
                                       const OracleOptions &Opts) {
  return OracleProgram(Source, Opts).validate(Opts);
}
