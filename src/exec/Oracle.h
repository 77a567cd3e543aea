//===- exec/Oracle.h - Translation-validation oracle ------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ground-truth checking for the analyzer and its transforms, in the
/// spirit of value-context validation (Padhye & Khedker) and the GVN
/// correctness-checking tradition: execute the program and its
/// transformed versions on the same READ input stream and require
/// identical observable behavior, and replay the analyzed program
/// checking every claim the analysis made against the values actually
/// observed.
///
/// Concretely, validating one configuration:
///
///  1. runs the original program as parsed (the reference trace);
///  2. re-runs the analyzed program (the DCE'd one when complete
///     propagation folded a branch) with hooks asserting that every
///     substituted use carries exactly its claimed constant and that
///     every CONSTANTS(p) entry holds on every observed entry to p, and
///     compares its trace to the reference;
///  3. reparses the EmitTransformedSource output and compares its trace;
///  4. optionally applies the same trace check to the procedure
///     integrator (Inliner) and the cloning transform.
///
/// Traces must agree exactly — same PRINT values, same termination
/// status — unless a run hit a resource limit (step or call-depth
/// budget), in which case the truncated trace must be a prefix of the
/// other (resource limits are budget artifacts, not semantics).
///
/// OracleProgram holds the work that does not depend on the
/// configuration, so validating many configurations of one program (the
/// fuzzer validates ten per candidate) does it once: the reference parse
/// and its Sema, an AnalysisSession over that parse, the reference runner
/// and one observed reference run per READ seed, the cloning transform's
/// output, and the parse, runner and traces of every derived program
/// (transformed, inlined and cloned sources), keyed by source text.
/// OracleProgram::analyze decides which session a configuration runs on,
/// so a caller validating many configurations analyzes each through it
/// and hands the result to validate(Run, ...); OracleRuns fixes how every
/// run executes once, at construction, and OracleChecks says what one
/// validation checks.
///
/// Step 1's run is hooked: it records a RunObservation (the first value,
/// count and constancy of every substituted-use site and of every formal
/// and global on every procedure entry), and its trace is the reference
/// trace. A configuration that folded no branch analyzed the reference
/// program itself (same ids), so step 2 needs no run of its own: its
/// claims are checked against that observation in time linear in the
/// number of claims. Only when the observation contradicts a claim is
/// step 2's hooked run made for real, so the failures are reported in
/// execution order. A configuration that folded describes its own
/// dead-code-eliminated clone (PipelineResult::FoldedProgram), and its
/// claims replay on that clone. An observation or trace served from the
/// cache counts as the run it replaces, so every OracleResult (counters,
/// Ok and Error) is the one a lone validateTranslation of that
/// configuration reports.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_EXEC_ORACLE_H
#define IPCP_EXEC_ORACLE_H

#include "exec/ExecEngine.h"
#include "exec/Interpreter.h"
#include "ipcp/Cloning.h"
#include "ipcp/Inliner.h"
#include "ipcp/Pipeline.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ipcp {

/// How every run of a validation executes.
struct OracleRuns {
  /// Resource bounds applied to every run.
  RunLimits Limits;
  /// Which engine executes the runs. The bytecode VM is the hot-path
  /// default; the AST interpreter remains available as the differential
  /// reference (the check-vm tests pin oracle results identical under
  /// both).
  ExecEngine Engine = ExecEngine::Vm;
  /// READ streams to execute under; every check runs once per seed.
  std::vector<uint64_t> ReadSeeds = {1, 2};
};

/// What one validation checks.
struct OracleChecks {
  /// The analyzer configuration under validation.
  PipelineOptions Pipeline;
  /// Validate the reparsed EmitTransformedSource output (step 3).
  bool CheckTransformedSource = true;
  /// Validate the procedure integrator's output (step 4).
  bool CheckInliner = false;
  /// Validate the cloning transform's output (step 4). Note: cloning
  /// runs its own analyzer internally; this is the costliest check.
  bool CheckCloning = false;
};

/// Parameters of one validation.
struct OracleOptions : OracleRuns, OracleChecks {};

/// Outcome of one validation.
struct OracleResult {
  /// True when every executed check passed.
  bool Ok = false;
  /// Failure descriptions (empty when Ok). At most a handful are kept.
  std::string Error;

  unsigned RunsExecuted = 0;
  unsigned TraceComparisons = 0;
  /// Observed evaluations of substituted uses checked against their
  /// claimed constants.
  unsigned SubstitutedUseChecks = 0;
  /// Observed procedure entries checked against CONSTANTS(p) entries.
  unsigned EntryConstantChecks = 0;

  /// Trace/status disagreements between the reference and a transform.
  unsigned TraceDivergences = 0;
  /// Substituted-use or CONSTANTS(p) values contradicted by execution.
  unsigned ConstantMismatches = 0;
};

/// What one run showed at every point a claim can name: each scalar use
/// that reports through ExecHooks::OnVarUse, and on every procedure entry
/// each formal of the entered procedure and each global scalar. Per point
/// it keeps the first value, how often the point ran and whether it ever
/// showed another value, which is all a claim check needs: a claim of
/// constant C at a point holds on every execution unless the point ran
/// and either varied or first showed a value other than C.
class RunObservation {
public:
  /// The values one point showed.
  struct Seen {
    int64_t First = 0;
    /// How often the point ran (wrapping like OracleResult's counters).
    unsigned Count = 0;
    bool Any = false;
    bool Varied = false;

    void add(int64_t Value) {
      if (!Any) {
        Any = true;
        First = Value;
      } else if (Value != First) {
        Varied = true;
      }
      ++Count;
    }
    /// True when some execution of the point showed a value other than
    /// \p Claim.
    bool contradicts(int64_t Claim) const {
      return Any && (Varied || First != Claim);
    }
  };

  /// An empty observation of a run of \p Ctx's program, which
  /// \p Symbols checks; both must outlive it.
  RunObservation(const AstContext &Ctx, const SymbolTable &Symbols);
  RunObservation(const RunObservation &) = delete;
  RunObservation &operator=(const RunObservation &) = delete;

  /// Hooks that record into this observation, which must outlive them.
  /// An entry records the symbols the engine's lookup resolves; one it
  /// resolves to null is not counted.
  ExecHooks hooks();

  /// The values use \p Id showed.
  const Seen &use(ExprId Id) const;
  /// The values \p Sym, a formal of \p P or a global scalar, showed on
  /// entries to \p P.
  const Seen &entry(ProcId P, SymbolId Sym) const;

private:
  void enter(ProcId P, SymbolLookup Lookup);

  const SymbolTable &Symbols;
  std::vector<Seen> Uses;
  /// Each global scalar's position in globalScalars(), or -1.
  std::vector<int32_t> GlobalIndex;
  /// Per procedure: its formals, then the global scalars. Empty until
  /// the procedure is first entered.
  std::vector<std::vector<Seen>> Entries;
};

/// One program under validation, with the work every configuration's
/// validation shares (see the file comment).
class OracleProgram {
public:
  /// Parses and checks \p Source; every validation of it runs under
  /// \p Runs.
  OracleProgram(std::string_view Source, const OracleRuns &Runs);
  ~OracleProgram();
  OracleProgram(const OracleProgram &) = delete;
  OracleProgram &operator=(const OracleProgram &) = delete;

  /// Empty when the source parsed and checked, else its diagnostics.
  /// The members below require an empty parseError().
  const std::string &parseError() const;

  /// The procedure integrator's output for the reference program, made
  /// on first use.
  const InlineResult &inlined();

  /// The cloning transform's output for the source, at its default
  /// bounds, made on first use. A CheckCloning validation checks it.
  const CloneResult &cloned();

  /// Analyzes the reference program under \p Pipeline, with
  /// EmitTransformedSource set, ready for validate(Run, ...). MOD
  /// configurations share one session, so each reuses what the others
  /// cached; a no-MOD one, whose caches no other configuration reads,
  /// runs on a throwaway session. The reference program is never
  /// mutated. Validating frees the shared session, so analyze every
  /// configuration first: one analyzed after a validation starts cold.
  PipelineResult analyze(const PipelineOptions &Pipeline);

  /// Validates \p Run, an analyze(Checks.Pipeline) result, without
  /// parsing or analyzing anything. A run that folded a branch replays
  /// its claims on its own FoldedProgram.
  OracleResult validate(const PipelineResult &Run, const OracleChecks &Checks);

  /// Analyzes Checks.Pipeline and validates it.
  OracleResult validate(const OracleChecks &Checks);

private:
  struct Traced;

  /// The cached parse and traces of a derived program.
  Traced &derived(const std::string &Text);
  /// \p P's trace under the seed at \p SeedIdx, run on first use
  /// (under \p Hooks, when given).
  const RunResult &trace(Traced &P, size_t SeedIdx,
                         const ExecHooks *Hooks = nullptr);
  /// The reference trace under the seed at \p SeedIdx; the run that
  /// takes it records Observed[SeedIdx].
  const RunResult &reference(size_t SeedIdx);

  std::string Source;
  OracleRuns Runs;
  std::unique_ptr<Traced> Ref;
  std::unique_ptr<AnalysisSession> Session;
  /// Indexed like ReadSeeds; each is filled by the run that takes that
  /// seed's reference trace.
  std::vector<std::optional<RunObservation>> Observed;
  std::optional<InlineResult> Inlined;
  std::optional<CloneResult> Cloned;
  std::map<std::string, std::unique_ptr<Traced>, std::less<>> Derived;
};

/// Validates \p Source under \p Opts: a one-configuration use of
/// OracleProgram. Returns Ok=false with a diagnostic in Error if the
/// source does not parse, the pipeline fails, a transformed program does
/// not reparse, or any executed check fails.
OracleResult validateTranslation(std::string_view Source,
                                 const OracleOptions &Opts);

} // namespace ipcp

#endif // IPCP_EXEC_ORACLE_H
