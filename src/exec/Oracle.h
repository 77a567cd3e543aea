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
/// and its trace per READ seed, and the parse, runner and traces of every
/// derived program (transformed, inlined and cloned sources), keyed by
/// source text. OracleProgram::analyze decides which session a
/// configuration runs on, so a caller validating many configurations
/// analyzes each through it and hands the result to validate(Run, ...);
/// OracleRuns fixes how every run executes once, at construction, and
/// OracleChecks says what one validation checks. A configuration that
/// folded no branch analyzed the reference program itself (same ids),
/// so step 2 replays its claims through a hooked run of the shared
/// reference runner, once per distinct set of claims; one that folded
/// is re-analyzed in place on a private parse, and its claims replay on
/// that DCE'd program. A trace or replay served from the cache counts as
/// the run it replaces, so every OracleResult — counters, Ok and Error —
/// is the one a lone validateTranslation of that configuration reports.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_EXEC_ORACLE_H
#define IPCP_EXEC_ORACLE_H

#include "exec/ExecEngine.h"
#include "exec/Interpreter.h"
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

  /// Analyzes the reference program under \p Pipeline, with
  /// EmitTransformedSource set, ready for validate(Run, ...). MOD
  /// configurations share one session, so each reuses what the others
  /// cached; a no-MOD one, whose caches no other configuration reads,
  /// runs on a throwaway session. The reference program is never
  /// mutated. Validating frees the shared session, so analyze every
  /// configuration first: one analyzed after a validation starts cold.
  PipelineResult analyze(const PipelineOptions &Pipeline);

  /// Validates \p Run, an analyze(Checks.Pipeline) result. A run that
  /// folded a branch is analyzed again, in place on a private parse,
  /// and its claims replay on that DCE'd program.
  OracleResult validate(const PipelineResult &Run, const OracleChecks &Checks);

  /// Analyzes Checks.Pipeline and validates it. Under complete
  /// propagation, which may fold, the analysis runs straight in place
  /// on a private parse.
  OracleResult validate(const OracleChecks &Checks);

private:
  struct Traced;
  struct ClaimSet;

  /// The cached parse and traces of a derived program.
  Traced &derived(const std::string &Text);
  /// \p P's trace under the seed at \p SeedIdx, run on first use.
  const RunResult &trace(Traced &P, size_t SeedIdx);
  /// Validates \p SessionRun, or, when it is null or folded a branch, a
  /// run of Checks.Pipeline in place on a private parse.
  OracleResult check(const PipelineResult *SessionRun,
                     const OracleChecks &Checks);

  std::string Source;
  OracleRuns Runs;
  std::unique_ptr<Traced> Ref;
  std::unique_ptr<AnalysisSession> Session;
  std::optional<InlineResult> Inlined;
  std::map<std::string, std::unique_ptr<Traced>, std::less<>> Derived;
  std::vector<std::unique_ptr<ClaimSet>> ClaimSets;
};

/// Validates \p Source under \p Opts: a one-configuration use of
/// OracleProgram. Returns Ok=false with a diagnostic in Error if the
/// source does not parse, the pipeline fails, a transformed program does
/// not reparse, or any executed check fails.
OracleResult validateTranslation(std::string_view Source,
                                 const OracleOptions &Opts);

} // namespace ipcp

#endif // IPCP_EXEC_ORACLE_H
