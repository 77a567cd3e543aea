//===- ipcp/JumpFunctionBuilder.h - Jump function generation ----*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the jump functions for a whole program, following the
/// paper's four-stage execution (§4.1):
///
///   1. return jump functions, in a bottom-up walk over the call graph
///      (SSA + value numbering per procedure, discarded afterwards);
///   2. forward jump functions for every call site, using the return
///      jump functions built in stage 1;
///   (stages 3 and 4 — propagation and recording — live in Solver and
///   Pipeline).
///
/// MOD information is a parameter: with UseMod=false the builder assumes
/// every call clobbers every global and by-reference actual — the
/// "without MOD" column of Table 3. Return jump functions are still
/// built in that mode (the paper's column 1 uses them), but their own
/// generation then also runs under worst-case kills, so only procedures
/// without calls keep precise ones; this reproduces the paper's
/// observation that "the presence of any call in a routine eliminated
/// potential constants along paths leaving the call site".
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_JUMPFUNCTIONBUILDER_H
#define IPCP_IPCP_JUMPFUNCTIONBUILDER_H

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/RefAlias.h"
#include "analysis/Sccp.h"
#include "ipcp/JumpFunction.h"

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace ipcp {
class AnalysisSession;
class CopyPropInfo;
class FlowAliasInfo;
class ThreadPool;
}

namespace ipcp {

/// Configuration of one jump-function generation run (the part of a
/// PipelineOptions that changes the jump functions built).
struct JumpFunctionOptions {
  JumpFunctionKind Kind = JumpFunctionKind::Polynomial;
  /// Build and use return jump functions (§3.2).
  bool UseReturnJumpFunctions = true;
  /// Use interprocedural MOD summaries; false = worst-case call effects.
  bool UseMod = true;
  /// Build jump functions over gated SSA (paper §4.2): two-way join phis
  /// with evaluable predicates become gamma selectors, so constants
  /// behind statically-decidable branches propagate without iterated
  /// dead-code elimination. Only strengthens the polynomial kind.
  bool UseGatedSsa = false;
  /// Replace the whole-procedure by-reference alias masks with
  /// flow-/context-sensitive per-point gating (analysis/FlowAlias.h): a
  /// symbol in an alias pair only reads as Opaque at points where an
  /// aliased store may actually have happened. Strictly refines the
  /// baseline masking.
  bool FlowSensitiveAlias = false;
  /// Number values with Pai-style optimistic iteration instead of the
  /// pessimistic single pass: phis optimistically ignore not-yet-known
  /// inputs and re-evaluate to a fixpoint, recovering merges the single
  /// pass gives up on. Strictly refines the pessimistic numbering.
  bool OptimisticVn = false;
  /// Run array-cell copy propagation (analysis/CopyProp.h): array loads
  /// whose cell provably holds a literal or the entry value of a stable
  /// parameter resolve instead of staying Opaque, so jump functions carry
  /// the recovered facts as ordinary constants, pass-throughs and
  /// polynomial leaves.
  /// Strictly refines every kind above IntraConst; byte-identical off.
  bool CopyPropagation = false;

  /// True when the two configurations build identical jump functions.
  bool operator==(const JumpFunctionOptions &) const = default;
};

/// Aggregate statistics over one generation run (feeds the §3.1.5 cost
/// discussion benches).
struct JumpFunctionStats {
  size_t NumForward = 0;
  size_t NumForwardConst = 0;
  size_t NumForwardPassThrough = 0;
  size_t NumForwardPoly = 0;
  size_t NumForwardBottom = 0;
  size_t TotalPolySupport = 0;
  size_t MaxPolySupport = 0;
  size_t NumReturn = 0;
  size_t NumReturnConst = 0;
  size_t NumReturnPoly = 0;
  size_t NumReturnBottom = 0;
  /// Optimistic numbering only: phi merges that ignored an unavailable
  /// input and still converged to a non-Opaque value.
  size_t NumGvnPhiMerges = 0;

  /// Mean |support| over non-trivial polynomial forward jump functions;
  /// the paper observes this "approaches 1" in practice (§3.1.5).
  double avgPolySupport() const {
    return NumForwardPoly ? double(TotalPolySupport) / double(NumForwardPoly)
                          : 0.0;
  }
};

/// The jump functions of one call site.
struct CallSiteJumpFunctions {
  /// One forward jump function per callee formal, in parameter order.
  std::vector<JumpFunction> Args;
  /// One forward jump function per global scalar, parallel to
  /// SymbolTable::globalScalars() (globals are implicit parameters).
  std::vector<JumpFunction> Globals;
};

/// Per-procedure strings derived from one fixed set of return jump
/// functions, each computed once on first use: the substitution memo's
/// return-jump-function key component (ipcp/Substitution.h). One instance
/// lives in each session jump-function base, shared by every
/// configuration whose return jump functions are copies of that base's.
/// Thread-safe; a lost race computes the same bytes twice and keeps the
/// first.
class ReturnJfKeys {
public:
  const std::string &get(ProcId P,
                         const std::function<std::string()> &Compute);

private:
  std::mutex M;
  std::unordered_map<ProcId, std::unique_ptr<const std::string>> Keys;
};

/// All jump functions of one program, plus evaluation helpers.
class ProgramJumpFunctions {
public:
  JumpFunctionOptions Options;

  /// PerSite[p] is parallel to CallGraph::callSitesIn(p); empty for
  /// procedures unreachable from the entry.
  std::vector<std::vector<CallSiteJumpFunctions>> PerSite;

  /// ReturnJfs[p] maps each symbol in MOD(p) (formals of p and globals)
  /// to its return jump function.
  std::vector<std::unordered_map<SymbolId, JumpFunction>> ReturnJfs;

  JumpFunctionStats Stats;

  /// Set by session builds: the key cache of the jump-function base
  /// ReturnJfs was copied from. Null for session-less builds, whose keys
  /// are computed per run.
  ReturnJfKeys *RjfKeys = nullptr;

  /// The return jump function of \p Callee for callee-side symbol
  /// \p CalleeKey, or null.
  const JumpFunction *returnJf(ProcId Callee, SymbolId CalleeKey) const;

  /// Maps a killed caller-side symbol at \p Call to the callee-side key
  /// its return jump function is indexed by: the bound formal for a
  /// by-reference actual, the global itself otherwise. Returns nullopt
  /// for ambiguous bindings (a symbol passed twice, or a global that is
  /// also passed by reference), which are treated conservatively.
  static std::optional<SymbolId> calleeKeyForKill(const Instr &Call,
                                                  SymbolId Killed,
                                                  const SymbolTable &Symbols);
};

/// Runs stages 1 and 2. \p MRI must be non-null iff Opts.UseMod.
///
/// With a non-null \p Pool the per-procedure work (SSA, value numbering,
/// classification) runs across the pool's workers; the result is
/// bit-identical to the serial run. Stage 1's bottom-up dependency —
/// value numbering reads the return jump functions of callees built
/// earlier in CallGraph::bottomUpOrder(), and reads not-yet-built ones
/// as absent — is preserved by scheduling call-adjacent procedures into
/// ordered waves (see callAdjacencyWaves); stage 2 has no cross-procedure
/// dependency at all. Statistics are accumulated per procedure and folded
/// in the serial order.
/// \p Aliases supplies by-reference alias pairs (analysis/RefAlias.h);
/// the value numbering treats symbols it marks unstable as Opaque, so no
/// jump function transmits a value that an aliased store could rewrite.
/// Null means "no aliasing", only sound for programs that never pass a
/// modified variable by reference. With Opts.FlowSensitiveAlias,
/// \p FlowAliases must also be non-null; the numbering then gates only
/// the reads at dirty program points instead of masking whole symbols.
///
/// With a non-null \p Session the builder memoizes everything that does
/// not depend on the forward jump-function Kind: SSA comes from the
/// session's per-procedure cache, and the stage-1 return jump functions
/// plus the value numberings built along the way are computed once per
/// (UseMod, UseReturnJumpFunctions, UseGatedSsa, FlowSensitiveAlias,
/// OptimisticVn) and reused by every later configuration — stage 2 only
/// rebuilds the numbering of recursive procedures, whose stage-1
/// numbering saw an incomplete view of their SCC's return jump
/// functions. The result is byte-identical to the session-less build.
/// With Opts.CopyPropagation, \p CopyFacts must be non-null; value
/// numbering then resolves the loads copy propagation proves.
ProgramJumpFunctions buildJumpFunctions(const Module &M,
                                        const SymbolTable &Symbols,
                                        const CallGraph &CG,
                                        const ModRefInfo *MRI,
                                        const JumpFunctionOptions &Opts,
                                        const RefAliasInfo *Aliases = nullptr,
                                        ThreadPool *Pool = nullptr,
                                        AnalysisSession *Session = nullptr,
                                        const FlowAliasInfo *FlowAliases =
                                            nullptr,
                                        const CopyPropInfo *CopyFacts =
                                            nullptr);

/// The same build over \p Session's program, with every input the
/// analysis itself uses taken from the session's caches: MOD/REF (when
/// Opts.UseMod), the by-reference alias facts, and the flow-alias and
/// copy facts when their flags are set. Every caller that wants "the jump
/// functions this configuration analyzes with" — the pipeline and
/// --dump-jf — goes through here.
ProgramJumpFunctions buildJumpFunctions(AnalysisSession &Session,
                                        const JumpFunctionOptions &Opts,
                                        ThreadPool *Pool = nullptr);

/// Partitions \p Order (a serial processing order over procedures) into
/// waves such that running each wave's members concurrently, with a
/// barrier between waves, observes exactly the serial schedule's
/// cross-procedure reads: for every call edge between two procedures, the
/// one later in \p Order lands in a strictly later wave, so the earlier
/// one's output is either fully built (earlier wave) or untouched (later
/// wave) whenever an adjacent procedure looks at it. Procedures not
/// call-adjacent carry no constraint and pack into early waves. Returned
/// waves hold indices into \p Order; concatenated they are a permutation
/// of it. Exposed for testing.
std::vector<std::vector<size_t>>
callAdjacencyWaves(const CallGraph &CG, const std::vector<ProcId> &Order);

/// Kill-value callback for ValueNumbering: evaluates the callee's return
/// jump function with the intraprocedural constants flowing into the
/// call (paper §3.2: "evaluated exactly twice at each call site").
KillValueFn makeVnKillFn(const ProgramJumpFunctions &Jfs,
                         const SymbolTable &Symbols);

/// Kill-value callback for Sccp: the same evaluation against lattice
/// values, used by the constant-substitution pass.
SccpKillFn makeSccpKillFn(const ProgramJumpFunctions &Jfs,
                          const SymbolTable &Symbols);

} // namespace ipcp

#endif // IPCP_IPCP_JUMPFUNCTIONBUILDER_H
