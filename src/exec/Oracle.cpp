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
                                  const SymbolTable &Symbols) {
  EntryClaimList Claims(P.Constants.size());
  for (size_t Pid = 0; Pid != P.Constants.size(); ++Pid) {
    for (const auto &[Name, Value] : P.Constants[Pid]) {
      SymbolId Found = InvalidSymbol;
      for (SymbolId Sym : Symbols.formals(ProcId(Pid)))
        if (Symbols.symbol(Sym).Name == Name)
          Found = Sym;
      if (Found == InvalidSymbol)
        for (SymbolId Sym : Symbols.globalScalars())
          if (Symbols.symbol(Sym).Name == Name)
            Found = Sym;
      if (Found != InvalidSymbol)
        Claims[Pid].push_back({Found, Value});
    }
  }
  return Claims;
}

/// Runs \p Prog through \p Runner with hooks asserting that every
/// substituted use carries exactly its claimed constant and that every
/// CONSTANTS(p) entry holds on every observed entry to p, adding the
/// checks to \p R and the contradicted claims, in execution order, to
/// \p Failures. Returns the run's trace.
RunResult replayClaims(const ProgramRunner &Runner, const RunOptions &RO,
                       const Program &Prog, const SymbolTable &Symbols,
                       const SubstitutionMap &Substitutions,
                       const EntryClaimList &EntryClaims, OracleResult &R,
                       FailureLog &Failures) {
  std::string SeedText = " (seed " + std::to_string(RO.ReadSeed) + ")";
  ExecHooks Hooks;
  Hooks.OnVarUse = [&](ExprId Id, int64_t Value) {
    auto It = Substitutions.find(Id);
    if (It == Substitutions.end())
      return;
    ++R.SubstitutedUseChecks;
    if (Value != It->second) {
      ++R.ConstantMismatches;
      Failures.add("substituted use #" + std::to_string(Id) + SeedText +
                   ": claimed constant " + std::to_string(It->second) +
                   ", observed " + std::to_string(Value));
    }
  };
  Hooks.OnProcEntry = [&](ProcId Pid, SymbolLookup Lookup) {
    for (const auto &[Sym, Value] : EntryClaims[Pid]) {
      const int64_t *Cell = Lookup(Sym);
      if (!Cell)
        continue;
      ++R.EntryConstantChecks;
      if (*Cell != Value) {
        ++R.ConstantMismatches;
        Failures.add("CONSTANTS(" + Prog.Procs[Pid]->name() + ") entry " +
                     Symbols.symbol(Sym).Name + "=" + std::to_string(Value) +
                     SeedText + ": observed " + std::to_string(*Cell) +
                     " on entry");
      }
    }
  };
  return Runner.run(RO, &Hooks);
}

/// Adds to \p R the checks replayClaims would make on the run \p Obs
/// observed, and returns true; or, when the observation contradicts a
/// claim, adds nothing and returns false (only a replay reports which
/// executions failed, in order).
bool checkObservedClaims(const RunObservation &Obs,
                         const SubstitutionMap &Substitutions,
                         const EntryClaimList &EntryClaims, OracleResult &R) {
  unsigned Uses = 0, Entries = 0;
  for (const auto &[Id, Value] : Substitutions) {
    const RunObservation::Seen &S = Obs.use(Id);
    if (S.contradicts(Value))
      return false;
    Uses += S.Count;
  }
  for (size_t Pid = 0; Pid != EntryClaims.size(); ++Pid)
    for (const auto &[Sym, Value] : EntryClaims[Pid]) {
      const RunObservation::Seen &S = Obs.entry(ProcId(Pid), Sym);
      if (S.contradicts(Value))
        return false;
      Entries += S.Count;
    }
  R.SubstitutedUseChecks += Uses;
  R.EntryConstantChecks += Entries;
  return true;
}

/// Drops the final state of \p R: the oracle compares traces only.
void keepTraceOnly(RunResult &R) {
  R.FinalGlobals.clear();
  R.FinalGlobalArrays.clear();
}

} // namespace

RunObservation::RunObservation(const AstContext &Ctx,
                               const SymbolTable &Symbols)
    : Symbols(Symbols), Uses(Ctx.numExprIds()),
      GlobalIndex(Symbols.size(), -1), Entries(Ctx.program().Procs.size()) {
  const std::vector<SymbolId> &Globals = Symbols.globalScalars();
  for (size_t I = 0; I != Globals.size(); ++I)
    GlobalIndex[Globals[I]] = int32_t(I);
}

ExecHooks RunObservation::hooks() {
  ExecHooks Hooks;
  Hooks.OnVarUse = [this](ExprId Id, int64_t Value) { Uses[Id].add(Value); };
  Hooks.OnProcEntry = [this](ProcId P, SymbolLookup Lookup) {
    enter(P, Lookup);
  };
  return Hooks;
}

void RunObservation::enter(ProcId P, SymbolLookup Lookup) {
  const std::vector<SymbolId> &Formals = Symbols.formals(P);
  const std::vector<SymbolId> &Globals = Symbols.globalScalars();
  std::vector<Seen> &Slots = Entries[P];
  Slots.resize(Formals.size() + Globals.size());
  for (size_t I = 0; I != Formals.size(); ++I)
    if (const int64_t *Cell = Lookup(Formals[I]))
      Slots[I].add(*Cell);
  for (size_t I = 0; I != Globals.size(); ++I)
    if (const int64_t *Cell = Lookup(Globals[I]))
      Slots[Formals.size() + I].add(*Cell);
}

const RunObservation::Seen &RunObservation::use(ExprId Id) const {
  static const Seen Never;
  return Id < Uses.size() ? Uses[Id] : Never;
}

const RunObservation::Seen &RunObservation::entry(ProcId P,
                                                  SymbolId Sym) const {
  static const Seen Never;
  const std::vector<Seen> &Slots = Entries[P];
  if (Slots.empty())
    return Never;
  const Symbol &S = Symbols.symbol(Sym);
  if (S.Kind == SymbolKind::Formal && S.Owner == P)
    return Slots[S.FormalIndex];
  if (GlobalIndex[Sym] >= 0)
    return Slots[Symbols.formals(P).size() + size_t(GlobalIndex[Sym])];
  return Never;
}

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
    : Source(Source), Runs(Runs), Ref(std::make_unique<Traced>()),
      Observed(Runs.ReadSeeds.size()) {
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

const CloneResult &OracleProgram::cloned() {
  if (!Cloned)
    Cloned = cloneForConstants(Source);
  return *Cloned;
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

const RunResult &OracleProgram::trace(Traced &P, size_t SeedIdx,
                                     const ExecHooks *Hooks) {
  P.Traces.resize(Runs.ReadSeeds.size());
  std::optional<RunResult> &Run = P.Traces[SeedIdx];
  if (!Run) {
    if (!P.Runner)
      P.Runner.emplace(P.Parsed.Ctx->program(), P.Parsed.Symbols,
                       Runs.Engine);
    RunOptions RO;
    RO.Limits = Runs.Limits;
    RO.ReadSeed = Runs.ReadSeeds[SeedIdx];
    Run = P.Runner->run(RO, Hooks);
    keepTraceOnly(*Run);
  }
  return *Run;
}

const RunResult &OracleProgram::reference(size_t SeedIdx) {
  std::optional<RunObservation> &Obs = Observed[SeedIdx];
  if (Obs)
    return trace(*Ref, SeedIdx);
  Obs.emplace(*Ref->Parsed.Ctx, Ref->Parsed.Symbols);
  ExecHooks Hooks = Obs->hooks();
  return trace(*Ref, SeedIdx, &Hooks);
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

OracleResult OracleProgram::validate(const OracleChecks &Checks) {
  if (!parseError().empty())
    return validate(PipelineResult(), Checks);
  return validate(analyze(Checks.Pipeline), Checks);
}

OracleResult OracleProgram::validate(const PipelineResult &Run,
                                     const OracleChecks &Checks) {
  OracleResult R;
  FailureLog Failures;
  // Validating analyzes on no session: free the shared one's caches
  // before the runs below allocate their own.
  Session.reset();

  // Step 0: the reference program, and the run whose claims are checked.
  if (!parseError().empty()) {
    R.Error = "source does not parse: " + parseError();
    return R;
  }
  if (!Run.Ok) {
    R.Error = "pipeline failed: " + Run.Error;
    return R;
  }
  // A run that folded no branch analyzed the reference program, ids and
  // all, so its claims are checked against the reference observation.
  // One that folded describes its own dead-code-eliminated clone, which
  // shares the reference SymbolTable; its claims replay on that clone.
  const SymbolTable &Symbols = Ref->Parsed.Symbols;
  std::optional<ProgramRunner> FoldedRunner;
  if (Run.FoldedProgram)
    FoldedRunner.emplace(Run.FoldedProgram->program(), Symbols, Runs.Engine);
  const Program &Analyzed = Run.FoldedProgram
                                ? Run.FoldedProgram->program()
                                : Ref->Parsed.Ctx->program();
  EntryClaimList EntryClaims = resolveEntryClaims(Run, Symbols);

  // Steps 3 and 4 prep: the derived programs must reparse cleanly.
  Traced *Transformed = nullptr, *InlinedProg = nullptr,
         *ClonedProg = nullptr;
  if (Checks.CheckTransformedSource) {
    Transformed = &derived(Run.TransformedSource);
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
    const CloneResult &CR = cloned();
    if (!CR.Ok) {
      Failures.add("cloning transform failed: " + CR.Error);
    } else {
      ClonedProg = &derived(CR.Source);
      if (!ClonedProg->Parsed.ok())
        Failures.add("cloned program does not reparse: " +
                     ClonedProg->Parsed.Error);
    }
  }

  for (size_t SeedIdx = 0; SeedIdx != Runs.ReadSeeds.size(); ++SeedIdx) {
    uint64_t Seed = Runs.ReadSeeds[SeedIdx];
    const RunResult &RefRun = reference(SeedIdx);
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

    // Step 2: check every claim against the analyzed program's run. On
    // the reference program that run is the observed one, unless the
    // observation contradicts a claim.
    {
      std::optional<RunResult> Replayed;
      if (FoldedRunner ||
          !checkObservedClaims(*Observed[SeedIdx], Run.Substitutions,
                               EntryClaims, R)) {
        RunOptions RO;
        RO.Limits = Runs.Limits;
        RO.ReadSeed = Seed;
        Replayed = replayClaims(FoldedRunner ? *FoldedRunner : *Ref->Runner,
                                RO, Analyzed, Symbols, Run.Substitutions,
                                EntryClaims, R, Failures);
      }
      ++R.RunsExecuted;
      compare("analyzed/DCE'd program trace", Replayed ? *Replayed : RefRun);
    }

    // Steps 3 and 4: the textually substituted source, the inliner and
    // the cloning transform.
    for (auto [What, Prog] :
         {std::pair<const char *, Traced *>{"transformed-source trace",
                                            Transformed},
          {"inlined program trace", InlinedProg},
          {"cloned program trace", ClonedProg}}) {
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
