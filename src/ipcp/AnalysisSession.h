//===- ipcp/AnalysisSession.h - Incremental per-program caches --*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An AnalysisSession owns every analysis artifact derivable from one
/// checked program — lowered IR, call graph, MOD/REF and alias
/// summaries, per-procedure SSA and value numberings, and the
/// configuration-independent "base" of a jump-function build — and hands
/// them out memoized, so that
///
///   * the thirteen suite configurations of one program share one frontend,
///     one Module, and one SSA/VN per (procedure, UseMod) instead of
///     rebuilding them per cell (Tables 2/3 rerun the same programs);
///   * complete-propagation rounds re-lower only the procedures the
///     dead-code eliminator actually mutated (its dirty-set): the next
///     round's session over the folded clone adoptLowering()s the rest;
///   * the expensive stage-1 value numberings (Pai: GVN dominates the
///     analysis cost) are reused by stage 2 and by later configurations
///     whenever provably identical to a fresh build.
///
/// The cache-validity reasoning, enforced by the cold-vs-warm
/// fingerprint tests:
///
///   * SSA depends on (Function, SymbolTable, kill oracle); the oracle
///     depends only on whether MOD summaries are in use, so slots are
///     keyed (ProcId, UseMod).
///   * A jump-function base — stage-1 return jump functions plus the
///     value numberings built along the way — depends on every
///     jump-function flag (the JumpFunctions rows of
///     ipcp/AnalysisConfig.h) but NOT on the forward jump-function kind,
///     which only classifies stage-2 output.
///   * A stage-1 value numbering equals a stage-2 rebuild only for
///     non-recursive procedures (bottom-up order guarantees their
///     callees' return jump functions were complete); recursive ones are
///     rebuilt per configuration (JumpFunctionBuilder enforces this).
///   * adoptLowering() takes only the lowered Functions of clean
///     procedures: a mutated body can change MOD sets, and through them
///     the kill sets — hence SSA — of every caller, so everything
///     downstream of lowering is rebuilt.
///
/// The substitution memo (stage 4, Padhye & Khedker's value contexts
/// applied to the seeded SCCP of ipcp/Substitution.h) keys one
/// procedure P's result on exactly the inputs that SCCP reads:
///
///   * P and MOD presence — together they fix P's lowered Function and
///     SSA (kill sets come from the MOD-dependent kill oracle), and the
///     session's alias, flow-alias and copy facts under that setting;
///   * the alias gating Sccp actually applies, after its own collapse of
///     trivial facts: none, P's unstable mask (only when some entry is
///     set), or P's per-point flow facts (only when non-trivial). Which
///     mask or facts is pinned by P and MOD presence, so the tag suffices;
///   * whether P's copy facts are non-trivial, for the same reason;
///   * the entry seeds: P's non-BOTTOM VAL cells in symbol order (an
///     absent seed reads as BOTTOM, so the intraprocedural run — no
///     solve — keys as the empty list);
///   * the exact JumpFunction::appendFingerprint bytes of each return
///     jump function P's call-site kills consult, by kill position. A
///     missing one, an ambiguous binding and a run without return jump
///     functions all read as BOTTOM and add nothing. These are keyed by
///     content, not by jump-function-base identity, so a session-less
///     build keys exactly like a session one; a session build computes
///     them once per (base, procedure) (ReturnJfKeys).
///
/// Nothing else reaches the SCCP, so a replayed count, constant-print
/// count, substitution-map slice and branch-decision set is exactly what
/// a fresh run would compute. Expression and statement ids in the
/// replayed maps are those of this session's AST, which never changes:
/// a session's program is read-only, so each memo lives exactly as long
/// as its session.
///
/// Every accessor is thread-safe (the shared-suite runner analyzes one
/// session from many cells concurrently); only adoptLowering(), on a
/// fresh session, requires exclusive use of it. Locking is
/// per artifact so that cells of one program do not queue behind each
/// other: CoreMutex guards the module and the whole-program summaries,
/// while each SSA bundle (per procedure and UseMod) and each
/// jump-function base (per key) lives in a slot with its own lock. A
/// slot's lock is held while its artifact is built, so every artifact
/// is built exactly once, and artifacts under distinct keys build
/// concurrently. The only nesting is a jump-function base's build, which
/// takes CoreMutex and SSA slot locks (one at a time) under its slot
/// lock.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_ANALYSISSESSION_H
#define IPCP_IPCP_ANALYSISSESSION_H

#include "analysis/CallGraph.h"
#include "analysis/CopyProp.h"
#include "analysis/FlowAlias.h"
#include "analysis/ModRef.h"
#include "analysis/RefAlias.h"
#include "analysis/ValueNumbering.h"
#include "ipcp/JumpFunctionBuilder.h"
#include "ipcp/Substitution.h"
#include "ipcp/ValueContextMemo.h"
#include "ir/Dominators.h"
#include "ir/Function.h"
#include "ir/Ssa.h"
#include "lang/Ast.h"
#include "lang/Sema.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace ipcp {

/// Snapshot of a session's cache-effectiveness counters (plain values;
/// the live counters are atomics). Feeds the driver's `--time` batch
/// report, perfbench's hit rates and the cache tests.
struct SessionStats {
  uint64_t ProcsLowered = 0;   ///< buildFunction calls (initial + re-lowers).
  uint64_t ProcsRelowered = 0; ///< Subset lowered after adoptLowering().
  uint64_t SsaBuilt = 0;       ///< SSA bundles constructed.
  uint64_t SsaReused = 0;      ///< ssa() calls served from the cache.
  uint64_t VnBuilt = 0;        ///< Value numberings constructed.
  uint64_t VnReused = 0;       ///< Stage-2 uses of a cached numbering.
  uint64_t JfBasesBuilt = 0;   ///< Jump-function bases constructed.
  uint64_t JfBasesReused = 0;  ///< jfBase() calls served from the cache.
  uint64_t SolverMemoHits = 0;   ///< Value-context memo replays (all solves).
  uint64_t SolverMemoMisses = 0; ///< Contexts evaluated fresh (all solves).
  uint64_t SubstMemoHits = 0;    ///< Procedure substitutions replayed.
  uint64_t SubstMemoMisses = 0;  ///< Procedure substitutions computed.

  /// Field-wise sum (aggregating the sessions of a batch).
  SessionStats &operator+=(const SessionStats &O) {
    ProcsLowered += O.ProcsLowered;
    ProcsRelowered += O.ProcsRelowered;
    SsaBuilt += O.SsaBuilt;
    SsaReused += O.SsaReused;
    VnBuilt += O.VnBuilt;
    VnReused += O.VnReused;
    JfBasesBuilt += O.JfBasesBuilt;
    JfBasesReused += O.JfBasesReused;
    SolverMemoHits += O.SolverMemoHits;
    SolverMemoMisses += O.SolverMemoMisses;
    SubstMemoHits += O.SubstMemoHits;
    SubstMemoMisses += O.SubstMemoMisses;
    return *this;
  }
};

/// Memoizing home of every analysis artifact of one checked program.
class AnalysisSession {
public:
  /// The session keeps references to both arguments; they must outlive
  /// it, and \p Ctx must already be checked by Sema against \p Symbols.
  AnalysisSession(const AstContext &Ctx, const SymbolTable &Symbols);
  ~AnalysisSession();

  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  /// The analyzed program.
  const AstContext &ast() const { return Ctx; }
  const SymbolTable &symbols() const { return Symbols; }

  /// The lowered Module, lowering only procedures with no current
  /// Function (initially: all; after adoptLowering(From, Dirty): Dirty
  /// only).
  const Module &module();

  /// The call graph of module() (built on demand).
  const CallGraph &callGraph();

  /// MOD/REF summaries, or null when \p UseMod is false — matching the
  /// "MRI present iff UseMod" contract of the analysis passes.
  const ModRefInfo *modRef(bool UseMod);

  /// By-reference alias summaries under the given MOD setting.
  const RefAliasInfo &refAlias(bool UseMod);

  /// Flow-/context-sensitive alias facts under the given MOD setting
  /// (analysis/FlowAlias.h), built on first use over the baseline
  /// summaries of the same setting.
  const FlowAliasInfo &flowAlias(bool UseMod);

  /// Copy-propagation facts (analysis/CopyProp.h) under the given MOD
  /// setting, built on first use over the MOD and baseline alias
  /// summaries of the same setting.
  const CopyPropInfo &copyProp(bool UseMod);

  /// The call kill oracle under the given MOD setting.
  const SsaForm::KillOracle &killOracle(bool UseMod);

  /// Dominator tree + SSA of one procedure (SSA retains references to
  /// both the Function and the tree it was built over).
  struct SsaBundle {
    DominatorTree DT;
    SsaForm Ssa;
    SsaBundle(const Function &F, const SymbolTable &Symbols,
              const SsaForm::KillOracle &Kills)
        : DT(F), Ssa(F, Symbols, DT, Kills) {}
  };

  /// The SSA bundle of \p P under the given MOD setting, built on first
  /// use.
  const SsaBundle &ssa(ProcId P, bool UseMod);

  /// A cached value numbering and the arena backing its expressions.
  struct VnBundle {
    VnContext Ctx;
    std::optional<ValueNumbering> VN;
  };

  /// The configuration-independent base of a jump-function build: the
  /// stage-1 return jump functions (Skeleton.ReturnJfs, with stage-1
  /// stats in Skeleton.Stats) and the per-procedure value numberings
  /// whose reuse is provably sound (null entries must be rebuilt).
  struct JfBase {
    ProgramJumpFunctions Skeleton;
    std::vector<std::unique_ptr<VnBundle>> Vn;
    /// The substitution-memo keys of Skeleton.ReturnJfs, per procedure.
    mutable ReturnJfKeys RjfKeys;
  };

  /// The base keyed by every jump-function flag of \p Opts except the
  /// kind, running \p Build on first use under that key's slot lock:
  /// concurrent callers with the same key wait for the one build, while
  /// bases of distinct keys build in parallel.
  const JfBase &jfBase(const JumpFunctionOptions &Opts,
                       const std::function<void(JfBase &)> &Build);

  /// The session-shared value-context memo: every solve over this
  /// session records and replays jump-function evaluations here, so warm
  /// suite cells and repeat serve requests (same program, different
  /// config) reuse each other's contexts. Thread-safe.
  ValueContextMemo &solverMemo() { return VcMemo; }

  /// The session-shared substitution memo (see the file comment for its
  /// key). Thread-safe.
  SubstitutionMemo &substitutionMemo() { return SubstMemo; }

  /// For a fresh session over an id-preserving clone of \p From's program
  /// whose bodies differ only in \p Dirty (DeadCodeElim's dirty-set, on
  /// every complete-propagation fold): starts this module from copies of
  /// From's lowered Functions of every other procedure, so module()
  /// lowers exactly Dirty. Requires exclusive use of this session; From
  /// is only read.
  void adoptLowering(AnalysisSession &From, const std::vector<ProcId> &Dirty);

  /// Snapshot of the cache counters.
  SessionStats stats() const;

  /// Live counters, bumped by the session and by JumpFunctionBuilder's
  /// cached stage 2.
  struct Counters {
    std::atomic<uint64_t> ProcsLowered{0};
    std::atomic<uint64_t> ProcsRelowered{0};
    std::atomic<uint64_t> SsaBuilt{0};
    std::atomic<uint64_t> SsaReused{0};
    std::atomic<uint64_t> VnBuilt{0};
    std::atomic<uint64_t> VnReused{0};
    std::atomic<uint64_t> JfBasesBuilt{0};
    std::atomic<uint64_t> JfBasesReused{0};
  };
  Counters &counters() { return C; }

private:
  /// Callers hold CoreMutex.
  const Module &moduleLocked();
  const ModRefInfo *modRefLocked(bool UseMod);
  const SsaForm::KillOracle &killOracleLocked(bool UseMod);

  const AstContext &Ctx;
  const SymbolTable &Symbols;
  const size_t NumProcs;

  /// Guards the module and the whole-program summaries below.
  std::mutex CoreMutex;
  Module Mod;
  bool AllLowered = false;
  /// Set by adoptLowering(): every later lowering is a re-lowering.
  bool AdoptedLowering = false;
  std::optional<CallGraph> CG;
  bool MriBuilt = false;
  std::optional<ModRefInfo> Mri;
  std::optional<RefAliasInfo> Aliases[2];    // [UseMod]
  std::optional<FlowAliasInfo> FlowAliases[2];   // [UseMod]
  std::optional<CopyPropInfo> CopyProps[2];      // [UseMod]
  std::optional<SsaForm::KillOracle> Oracles[2]; // [UseMod]

  /// Per-(procedure, UseMod) SSA slots; each has its own lock so
  /// concurrent cells build distinct procedures in parallel.
  struct SsaSlot {
    std::mutex M;
    std::unique_ptr<SsaBundle> B;
  };
  std::unique_ptr<SsaSlot[]> SsaSlots;

  /// Jump-function-base slots keyed by jumpFunctionFlagBits
  /// (ipcp/AnalysisConfig.h); like SsaSlot, each has its own lock.
  /// JfMutex guards only the key -> slot map (whose nodes never move).
  struct JfSlot {
    std::mutex M;
    std::unique_ptr<JfBase> B;
  };
  std::mutex JfMutex;
  std::unordered_map<unsigned, JfSlot> JfSlots;

  ValueContextMemo VcMemo;
  SubstitutionMemo SubstMemo;

  Counters C;
};

} // namespace ipcp

#endif // IPCP_IPCP_ANALYSISSESSION_H
