//===- ipcp/Pipeline.h - Whole-program analysis driver ----------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top of the public API: runs the complete analyzer over MiniFort
/// source under one configuration and reports everything the paper's
/// experiments measure. Every column of Tables 2 and 3 is one
/// PipelineOptions setting:
///
///   Table 2: Kind x UseReturnJumpFunctions (UseMod on)
///   Table 3: {Polynomial, no MOD} / {Polynomial, MOD} /
///            {Polynomial, MOD, CompletePropagation} /
///            {IntraproceduralOnly}
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_PIPELINE_H
#define IPCP_IPCP_PIPELINE_H

#include "ipcp/JumpFunctionBuilder.h"
#include "ipcp/Solver.h"
#include "ipcp/Substitution.h"
#include "lang/Sema.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ipcp {
class AnalysisSession;
class CancelToken;
class FuzzFeedback;
class ThreadPool;

/// One analyzer configuration: the jump-function configuration (Kind,
/// return JFs, MOD, and the gated-SSA, precision and copy tiers; see
/// JumpFunctionOptions) plus the propagation-level settings below. The
/// external spellings of every field live in ipcp/AnalysisConfig.h.
struct PipelineOptions : JumpFunctionOptions {
  /// Iterate {propagate, dead-code eliminate, reset to TOP} to a fixed
  /// point — the paper's "complete propagation" (Table 3, column 3).
  /// The folds apply to a private clone (PipelineResult::FoldedProgram).
  bool CompletePropagation = false;
  /// Skip the interprocedural phases entirely: SCCP per procedure with
  /// BOTTOM entries but MOD-aware call effects (Table 3, column 4).
  bool IntraproceduralOnly = false;
  /// Convergence bound for CompletePropagation: the maximum number of
  /// propagate/DCE rounds before the pipeline gives up with Result.Error
  /// set (a real runtime check, not an assertion — it must hold in
  /// Release builds too). The paper observed convergence after a single
  /// round; the default is a generous safety net.
  unsigned MaxDceRounds = 16;
  /// Fixpoint strategy for the interprocedural solver.
  SolverStrategy Strategy = SolverStrategy::Worklist;
  /// Also render the transformed source with constants substituted.
  bool EmitTransformedSource = false;
  /// Worker threads for the per-procedure phases (SSA, value numbering,
  /// jump-function generation, substitution counting). 1 = serial; 0 =
  /// one per hardware thread. The interprocedural solver's fixpoint
  /// always runs serially, and results are bit-identical at any count
  /// (see README "Threading model").
  unsigned Threads = 1;
  /// Externally owned worker pool. When set, the pipeline fans out over
  /// this pool instead of spawning its own and Threads is ignored — the
  /// suite runner injects one shared pool so N cells don't create N
  /// pools (hardware oversubscription). Must outlive the run.
  ThreadPool *Pool = nullptr;
  /// Optional analyzer-behavior coverage sink (support/FuzzFeedback.h).
  /// The solver records per-lowering features into it and the pipeline
  /// adds its run-level counters; the coverage-guided fuzzer uses the
  /// resulting bitmap for corpus retention. Never changes any result.
  /// Must outlive the run. Only meaningful for serial runs (the sink is
  /// not thread-safe; the phases that record are serial anyway).
  FuzzFeedback *Feedback = nullptr;
  /// Optional cooperative cancellation (support/Cancellation.h). Polled
  /// at every phase boundary, at every complete-propagation round, and
  /// inside the solver's fixpoint loops; an expired token abandons the
  /// run with Result.Cancelled set (the analysis server's per-request
  /// deadline machinery). Must outlive the run.
  const CancelToken *Cancel = nullptr;
};

/// Wall-clock cost of each pipeline phase, in milliseconds. Accumulated
/// across complete-propagation rounds. The only PipelineResult fields
/// that legitimately vary between reruns or thread counts.
struct PhaseTimings {
  double FrontendMs = 0;      ///< Parse + sema (runPipeline entry only).
  double LowerMs = 0;         ///< CFG lowering + call graph + MOD/REF.
  double JumpFunctionsMs = 0; ///< Stages 1 and 2 (parallelizable).
  double SolveMs = 0;         ///< Interprocedural fixpoint (serial).
  double SubstituteMs = 0;    ///< Seeded SCCP + counting (parallelizable).
  double TotalMs = 0;         ///< Everything, including DCE and printing.
};

/// Everything one run reports.
struct PipelineResult {
  bool Ok = false;
  /// Diagnostics text when !Ok.
  std::string Error;
  /// True when the run was abandoned because PipelineOptions::Cancel
  /// expired (deadline or explicit cancel). Ok is false and every other
  /// field is partial/meaningless.
  bool Cancelled = false;

  /// The paper's headline metric: constants substituted into the code.
  unsigned SubstitutedConstants = 0;
  /// Executable prints with a known constant operand (transform-stable
  /// effectiveness metric; see comparison_wz).
  unsigned ConstantPrints = 0;
  /// CONSTANTS entries for globals the procedure never references —
  /// "known but irrelevant" in Metzger & Stroud's terms (§4.1), the very
  /// reason the paper counts substitutions rather than set sizes.
  unsigned KnownButIrrelevant = 0;
  /// Per-procedure breakdown, indexed by ProcId.
  std::vector<unsigned> PerProcSubstituted;
  /// Procedure names, indexed by ProcId.
  std::vector<std::string> ProcNames;
  /// CONSTANTS(p) rendered as (symbol name, value), per procedure.
  std::vector<std::vector<std::pair<std::string, int64_t>>> Constants;
  /// Procedures never invoked (all VAL cells remained TOP).
  std::vector<std::string> NeverCalled;

  /// Complete propagation: how many DCE rounds ran (0 when the first
  /// propagation already found no foldable branch) and how many branches
  /// they folded.
  unsigned DceRounds = 0;
  unsigned FoldedBranches = 0;

  JumpFunctionStats JfStats;
  unsigned SolverProcVisits = 0;
  unsigned SolverJfEvaluations = 0;
  unsigned SolverCellLowerings = 0;
  /// Value-context memo effectiveness (see SolveResult::MemoHits):
  /// procedure visits served by replaying recorded evaluations.
  /// SolverJfEvaluations includes the replayed ones, so it stays the
  /// comparable effort metric with or without memoization. 64-bit and
  /// warmth-dependent: a warm session's shared memo legitimately hits
  /// more than a cold run's, so these two fields — alone in a
  /// PipelineResult besides Timings — are excluded from determinism
  /// fingerprints and rendered replies.
  uint64_t SolverMemoHits = 0;
  uint64_t SolverMemoMisses = 0;

  /// By-reference aliasing (analysis/RefAlias.h): distinct may-alias
  /// pairs found, and (procedure, symbol) entries the analyses had to
  /// treat as unknowable because an aliased store could rewrite them.
  size_t AliasPairs = 0;
  size_t AliasUnstableSymbols = 0;
  /// FlowSensitiveAlias only: (instruction point, symbol) facts the
  /// baseline masked but the flow-sensitive analysis proved clean.
  size_t AliasPointsRefined = 0;
  /// OptimisticVn only: phi merges the pessimistic pass would have given
  /// up on that converged to a usable value (JfStats.NumGvnPhiMerges).
  size_t GvnPhiMerges = 0;
  /// CopyPropagation only: array loads copy propagation resolved to a
  /// literal or a stable symbol's entry value, program-wide under the
  /// active MOD setting (analysis/CopyProp.h).
  size_t CopyLoadsResolved = 0;

  /// VarRefExpr id -> proven constant, for every substituted use. Keyed
  /// on the analyzed AST: FoldedProgram when set, else the session's
  /// program.
  SubstitutionMap Substitutions;

  /// Complete propagation: the dead-code-eliminated program the final
  /// round analyzed, an id-preserving clone of the session's program
  /// whose symbols are the session's SymbolTable. Null when nothing
  /// folded.
  std::shared_ptr<const AstContext> FoldedProgram;

  /// Transformed source (only when EmitTransformedSource).
  std::string TransformedSource;

  /// Per-phase wall-clock timings. Excluded from determinism
  /// comparisons — every other field is bit-identical across thread
  /// counts and solver strategies.
  PhaseTimings Timings;
};

/// Parses, checks, and analyzes \p Source under \p Opts.
PipelineResult runPipeline(std::string_view Source,
                           const PipelineOptions &Opts);

/// Runs the analysis phases against a (possibly shared, possibly warm)
/// AnalysisSession. Lowered IR, call graph, MOD/REF, SSA, and the
/// configuration-independent jump-function base come from the session's
/// caches; the result is byte-identical to a run on a cold session
/// (timings excepted). It never mutates the session's program, so any
/// number of runs, of any configuration, may share one session
/// concurrently.
///
/// Complete propagation keeps that contract. Its first round is an
/// ordinary run on the shared, warm session — for the default
/// configuration it is exactly the plain polynomial run, hitting the
/// same jump-function base, solver memo and substitution memo. Only if
/// dead-code elimination would fold a branch does the run clone the
/// program (cloneProgramResolved keeps ids, so the round's decisions
/// apply to the clone unchanged) and fold the clone. Each fold continues
/// on a fresh private session over the clone that adopts the previous
/// session's lowering of the procedures the fold left clean, under the
/// MaxDceRounds bound. The final clone is returned as FoldedProgram.
PipelineResult runPipelineOnSession(AnalysisSession &Session,
                                    const PipelineOptions &Opts);

} // namespace ipcp

#endif // IPCP_IPCP_PIPELINE_H
