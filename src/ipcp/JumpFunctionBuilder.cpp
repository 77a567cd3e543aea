//===- ipcp/JumpFunctionBuilder.cpp - Jump function generation ------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/JumpFunctionBuilder.h"

#include "analysis/CopyProp.h"
#include "analysis/FlowAlias.h"
#include "ipcp/AnalysisSession.h"
#include "ir/Dominators.h"
#include "support/ThreadPool.h"

#include <cassert>

using namespace ipcp;

const std::string &
ReturnJfKeys::get(ProcId P, const std::function<std::string()> &Compute) {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (auto It = Keys.find(P); It != Keys.end())
      return *It->second;
  }
  auto Fresh = std::make_unique<const std::string>(Compute());
  std::lock_guard<std::mutex> Lock(M);
  // The string's heap node never moves, so the reference outlives the
  // lock.
  return *Keys.try_emplace(P, std::move(Fresh)).first->second;
}

const JumpFunction *ProgramJumpFunctions::returnJf(ProcId Callee,
                                                   SymbolId CalleeKey) const {
  if (Callee >= ReturnJfs.size())
    return nullptr;
  auto It = ReturnJfs[Callee].find(CalleeKey);
  return It == ReturnJfs[Callee].end() ? nullptr : &It->second;
}

std::optional<SymbolId>
ProgramJumpFunctions::calleeKeyForKill(const Instr &Call, SymbolId Killed,
                                       const SymbolTable &Symbols) {
  assert(Call.Op == Opcode::Call);
  const auto &Formals = Symbols.formals(Call.Callee);
  std::optional<SymbolId> Key;
  unsigned Bindings = 0;
  for (uint32_t I = 0, E = static_cast<uint32_t>(Call.Args.size());
       I != E && I < Formals.size(); ++I) {
    const Operand &Actual = Call.Args[I];
    if (Actual.isVar() && Actual.Sym == Killed) {
      ++Bindings;
      Key = Formals[I];
    }
  }
  const Symbol &S = Symbols.symbol(Killed);
  if (S.Kind == SymbolKind::Global) {
    // A global that is also passed by reference can be written through
    // either name: conservatively unknown.
    if (Bindings != 0)
      return std::nullopt;
    return Killed;
  }
  // A symbol passed in two positions aliases itself: unknown.
  if (Bindings != 1)
    return std::nullopt;
  return Key;
}

namespace {

/// Evaluates the return jump function covering \p Killed at \p Call under
/// a caller-side environment that maps each callee-side support symbol to
/// a lattice value.
LatticeValue evalReturnJf(const ProgramJumpFunctions &Jfs,
                          const SymbolTable &Symbols, const Instr &Call,
                          SymbolId Killed,
                          const std::function<LatticeValue(SymbolId)>
                              &CalleeSideEnv) {
  auto Key = ProgramJumpFunctions::calleeKeyForKill(Call, Killed, Symbols);
  if (!Key)
    return LatticeValue::bottom();
  const JumpFunction *Rjf = Jfs.returnJf(Call.Callee, *Key);
  if (!Rjf)
    return LatticeValue::bottom();
  return Rjf->eval(CalleeSideEnv);
}

/// Builds the callee-side environment for return-jump-function evaluation
/// at a call site: a callee formal maps to the value of the bound actual,
/// a global maps to the value of the global flowing into the call.
/// Values that are not constants become BOTTOM — the paper's rule that a
/// return jump function depending on the *calling* procedure's
/// parameters never evaluates to a constant (§3.2).
template <typename ActualFn, typename GlobalFn>
std::function<LatticeValue(SymbolId)>
makeCalleeSideEnv(const SymbolTable &Symbols, ProcId Callee,
                  ActualFn Actual, GlobalFn Global) {
  return [&Symbols, Callee, Actual, Global](SymbolId Sym) -> LatticeValue {
    const Symbol &S = Symbols.symbol(Sym);
    if (S.Kind == SymbolKind::Formal) {
      assert(S.Owner == Callee && "support symbol from the wrong procedure");
      (void)Callee;
      return Actual(S.FormalIndex);
    }
    assert(S.Kind == SymbolKind::Global && "unexpected support symbol");
    return Global(Sym);
  };
}

LatticeValue constOrBottom(const VnExpr *E) {
  return E->isConst() ? LatticeValue::constant(E->ConstValue)
                      : LatticeValue::bottom();
}

} // namespace

KillValueFn ipcp::makeVnKillFn(const ProgramJumpFunctions &Jfs,
                               const SymbolTable &Symbols) {
  return [&Jfs, &Symbols](const Instr &Call, SymbolId Killed,
                          const CallSiteValues &Values)
             -> std::optional<int64_t> {
    auto Env = makeCalleeSideEnv(
        Symbols, Call.Callee,
        [&](uint32_t Idx) { return constOrBottom(Values.actual(Idx)); },
        [&](SymbolId G) { return constOrBottom(Values.global(G)); });
    LatticeValue V = evalReturnJf(Jfs, Symbols, Call, Killed, Env);
    if (V.isConst())
      return V.value();
    return std::nullopt;
  };
}

SccpKillFn ipcp::makeSccpKillFn(const ProgramJumpFunctions &Jfs,
                                const SymbolTable &Symbols) {
  return [&Jfs, &Symbols](const Instr &Call, SymbolId Killed,
                          const SccpCallValues &Values) -> LatticeValue {
    auto Env = makeCalleeSideEnv(
        Symbols, Call.Callee,
        [&](uint32_t Idx) { return Values.actual(Idx); },
        [&](SymbolId G) { return Values.global(G); });
    LatticeValue V = evalReturnJf(Jfs, Symbols, Call, Killed, Env);
    // TOP can only arise from a TOP input, i.e. an unreached value; the
    // kill is then also unreached and TOP is the correct optimistic
    // answer.
    return V;
  };
}

std::vector<std::vector<size_t>>
ipcp::callAdjacencyWaves(const CallGraph &CG,
                         const std::vector<ProcId> &Order) {
  std::vector<uint32_t> Pos(CG.numProcs(), UINT32_MAX);
  for (size_t I = 0; I != Order.size(); ++I)
    Pos[Order[I]] = static_cast<uint32_t>(I);

  std::vector<uint32_t> Wave(CG.numProcs(), 0);
  std::vector<std::vector<size_t>> Waves;
  for (size_t I = 0; I != Order.size(); ++I) {
    ProcId P = Order[I];
    uint32_t W = 0;
    // Both call directions constrain: a pos-earlier callee must be fully
    // built before P runs; a pos-earlier caller must have finished its
    // read-as-absent lookup of P before P starts writing.
    auto Consider = [&](ProcId Q) {
      if (Q == P || Pos[Q] == UINT32_MAX || Pos[Q] >= I)
        return;
      W = std::max(W, Wave[Q] + 1);
    };
    for (const CallSite &S : CG.callSitesIn(P))
      Consider(S.Callee);
    for (const CallSite &S : CG.callSitesOf(P))
      Consider(S.Caller);
    Wave[P] = W;
    if (W >= Waves.size())
      Waves.resize(W + 1);
    Waves[W].push_back(I);
  }
  return Waves;
}

namespace {

/// Shared read-only inputs of the per-procedure builders.
struct BuildContext {
  const Module &M;
  const SymbolTable &Symbols;
  const CallGraph &CG;
  const ModRefInfo *MRI;
  const JumpFunctionOptions &Opts;
  const SsaForm::KillOracle &KillOracle;
  const KillValueFn *VnKillFnPtr;
  const RefAliasInfo *Aliases;
  const FlowAliasInfo *FlowAliases;
  const CopyPropInfo *CopyFacts;
  ProgramJumpFunctions &Jfs;
  AnalysisSession *Session;

  const std::vector<uint8_t> *unstableMask(ProcId P) const {
    return Aliases ? &Aliases->unstableMask(P) : nullptr;
  }

  /// The precision options of procedure \p P's numbering: in
  /// flow-sensitive mode the per-point dirty facts replace the
  /// whole-procedure mask (at most one of the two is set); copy facts
  /// compose with either.
  VnPrecision precision(ProcId P) const {
    VnPrecision Prec;
    if (Opts.FlowSensitiveAlias && FlowAliases)
      Prec.Flow = &FlowAliases->proc(P);
    else
      Prec.Unstable = unstableMask(P);
    Prec.Optimistic = Opts.OptimisticVn;
    if (Opts.CopyPropagation && CopyFacts)
      Prec.Copy = &CopyFacts->proc(P);
    return Prec;
  }
};

/// Dominator tree + SSA of one procedure: the session's cached bundle,
/// or a locally built pair kept alive by the out-params.
struct SsaView {
  const DominatorTree *DT;
  const SsaForm *Ssa;
};

SsaView getSsa(const BuildContext &BC, ProcId P,
               std::optional<DominatorTree> &LocalDT,
               std::optional<SsaForm> &LocalSsa) {
  if (BC.Session) {
    const AnalysisSession::SsaBundle &B =
        BC.Session->ssa(P, BC.Opts.UseMod);
    return {&B.DT, &B.Ssa};
  }
  const Function &F = BC.M.function(P);
  LocalDT.emplace(F);
  LocalSsa.emplace(F, BC.Symbols, *LocalDT, BC.KillOracle);
  return {&*LocalDT, &*LocalSsa};
}

/// Stage 1 for one procedure: fills Jfs.ReturnJfs[P]. Reads only the
/// ReturnJfs of call-adjacent procedures (via VnKillFnPtr), which wave
/// scheduling keeps race-free. Returns the stat deltas. With a non-null
/// \p CacheInto the value numbering is constructed inside it (and kept
/// for stage-2 reuse) instead of on the stack.
JumpFunctionStats buildReturnJfsForProc(const BuildContext &BC, ProcId P,
                                        AnalysisSession::VnBundle *CacheInto) {
  JumpFunctionStats Stats;
  std::optional<DominatorTree> LocalDT;
  std::optional<SsaForm> LocalSsa;
  SsaView View = getSsa(BC, P, LocalDT, LocalSsa);
  const SsaForm &Ssa = *View.Ssa;
  std::optional<VnContext> LocalCtx;
  std::optional<ValueNumbering> LocalVN;
  auto &VnSlot = CacheInto ? CacheInto->VN : LocalVN;
  VnSlot.emplace(Ssa, BC.Symbols,
                 CacheInto ? CacheInto->Ctx : LocalCtx.emplace(),
                 BC.VnKillFnPtr, BC.Opts.UseGatedSsa ? View.DT : nullptr,
                 BC.precision(P));
  const ValueNumbering &VN = *VnSlot;
  Stats.NumGvnPhiMerges += VN.numOptimisticPhiMerges();
  if (BC.Session)
    BC.Session->counters().VnBuilt.fetch_add(1, std::memory_order_relaxed);

  auto &Out = BC.Jfs.ReturnJfs[P];
  const auto &ExitSyms = Ssa.exitSymbols();
  for (uint32_t I = 0, E = static_cast<uint32_t>(ExitSyms.size()); I != E;
       ++I) {
    SymbolId Sym = ExitSyms[I];
    // With MOD: only modified symbols need an RJF (unmodified ones
    // are never killed). Without MOD: everything may be killed, so
    // every exit symbol gets one (identity RJFs recover pass-through
    // values at worst-case kills).
    if (BC.MRI && !BC.MRI->mods(P, Sym))
      continue;
    JumpFunction Rjf;
    if (Ssa.hasExitEnv()) {
      const VnExpr *Exit = VN.exitExpr(I);
      Rjf = JumpFunction::classify(JumpFunctionKind::Polynomial, Exit,
                                   /*IsLiteralOperand=*/false,
                                   BC.Opts.UseGatedSsa);
    }
    ++Stats.NumReturn;
    switch (Rjf.form()) {
    case JumpFunction::Form::Const:
      ++Stats.NumReturnConst;
      break;
    case JumpFunction::Form::Bottom:
      ++Stats.NumReturnBottom;
      break;
    default:
      ++Stats.NumReturnPoly;
      break;
    }
    Out.emplace(Sym, std::move(Rjf));
  }
  return Stats;
}

/// Stage 2 for one procedure: fills Jfs.PerSite[P]. Reads only the fully
/// built ReturnJfs, so every procedure is independent. Returns the stat
/// deltas. \p CachedVN, when non-null, is a numbering from the session's
/// jump-function base that is provably identical to a fresh build (see
/// buildJumpFunctions); null means build one locally.
JumpFunctionStats buildForwardJfsForProc(const BuildContext &BC, ProcId P,
                                         const ValueNumbering *CachedVN) {
  JumpFunctionStats Stats;
  const Function &F = BC.M.function(P);

  // The literal kind needs no intraprocedural analysis at all — "a
  // textual scan of the call sites provides all the required
  // information" (§3.1.5) — so it skips SSA and value numbering
  // entirely; every other kind pays for them.
  bool LiteralOnly = BC.Opts.Kind == JumpFunctionKind::Literal;
  std::optional<DominatorTree> LocalDT;
  std::optional<SsaForm> LocalSsa;
  std::optional<VnContext> Ctx;
  std::optional<ValueNumbering> LocalVN;
  const SsaForm *Ssa = nullptr;
  const ValueNumbering *VN = nullptr;
  if (!LiteralOnly) {
    if (CachedVN) {
      VN = CachedVN;
      Ssa = &CachedVN->ssa();
      if (BC.Session)
        BC.Session->counters().VnReused.fetch_add(1,
                                                  std::memory_order_relaxed);
    } else {
      SsaView View = getSsa(BC, P, LocalDT, LocalSsa);
      Ssa = View.Ssa;
      Ctx.emplace();
      LocalVN.emplace(*Ssa, BC.Symbols, *Ctx, BC.VnKillFnPtr,
                      BC.Opts.UseGatedSsa ? View.DT : nullptr,
                      BC.precision(P));
      VN = &*LocalVN;
      if (BC.Session)
        BC.Session->counters().VnBuilt.fetch_add(1,
                                                 std::memory_order_relaxed);
    }
    // Count as a fresh build would: a cached numbering is provably
    // identical to the rebuild it stands in for.
    Stats.NumGvnPhiMerges += VN->numOptimisticPhiMerges();
  }

  auto recordStats = [&](const JumpFunction &J) {
    ++Stats.NumForward;
    switch (J.form()) {
    case JumpFunction::Form::Const:
      ++Stats.NumForwardConst;
      break;
    case JumpFunction::Form::PassThrough:
      ++Stats.NumForwardPassThrough;
      break;
    case JumpFunction::Form::Poly:
      ++Stats.NumForwardPoly;
      Stats.TotalPolySupport += J.support().size();
      Stats.MaxPolySupport =
          std::max(Stats.MaxPolySupport, J.support().size());
      break;
    case JumpFunction::Form::Bottom:
      ++Stats.NumForwardBottom;
      break;
    }
  };

  auto &Sites = BC.Jfs.PerSite[P];
  for (const CallSite &S : BC.CG.callSitesIn(P)) {
    const Instr &Call = F.block(S.Block).Instrs[S.InstrIdx];
    CallSiteJumpFunctions SiteJfs;

    const auto &Formals = BC.Symbols.formals(S.Callee);
    for (uint32_t I = 0, E = static_cast<uint32_t>(Formals.size()); I != E;
         ++I) {
      JumpFunction J;
      if (I < Call.Args.size()) {
        if (LiteralOnly) {
          if (Call.Args[I].isConst())
            J = JumpFunction::constant(Call.Args[I].ConstValue);
        } else {
          const VnExpr *ArgExpr = VN->exprOfOperand(S.Block, S.InstrIdx, I);
          J = JumpFunction::classify(BC.Opts.Kind, ArgExpr,
                                     Call.Args[I].isConst(),
                                     BC.Opts.UseGatedSsa);
        }
      }
      recordStats(J);
      SiteJfs.Args.push_back(std::move(J));
    }

    const auto &Globals = BC.Symbols.globalScalars();
    for (uint32_t GI = 0, GE = static_cast<uint32_t>(Globals.size());
         GI != GE; ++GI) {
      JumpFunction J; // Literal: globals are never literal -> bottom.
      if (!LiteralOnly) {
        J = JumpFunction::classify(BC.Opts.Kind,
                                   VN->globalEnvExpr(S.Block, S.InstrIdx, GI),
                                   /*IsLiteralOperand=*/false,
                                   BC.Opts.UseGatedSsa);
      }
      recordStats(J);
      SiteJfs.Globals.push_back(std::move(J));
    }

    Sites.push_back(std::move(SiteJfs));
  }
  return Stats;
}

void foldStats(JumpFunctionStats &Into, const JumpFunctionStats &S);

/// Runs stage 1 over \p Order, either serially or in call-adjacency
/// waves over \p Pool, folding the per-procedure stat deltas in serial
/// order. \p CacheFor(P) returns the bundle to construct P's value
/// numbering into (null = stack-local).
template <typename CacheForFn>
void runStage1(const BuildContext &BC, ThreadPool *Pool,
               JumpFunctionStats &Into, CacheForFn CacheFor) {
  const auto &Order = BC.CG.bottomUpOrder();
  std::vector<JumpFunctionStats> PerProc(Order.size());
  auto BuildAt = [&](size_t I) {
    ProcId P = Order[I];
    PerProc[I] = buildReturnJfsForProc(BC, P, CacheFor(P));
  };
  if (!Pool) {
    for (size_t I = 0; I != Order.size(); ++I)
      BuildAt(I);
  } else {
    for (const auto &WaveIdx : callAdjacencyWaves(BC.CG, Order))
      parallelFor(Pool, WaveIdx.size(),
                  [&](size_t I) { BuildAt(WaveIdx[I]); });
  }
  for (const JumpFunctionStats &S : PerProc)
    foldStats(Into, S);
}

/// Builds the configuration-independent base shared by every
/// jump-function build with the same (UseMod, UseRjf, UseGatedSsa): the
/// stage-1 return jump functions, and one value numbering per procedure
/// wherever a later stage-2 rebuild would provably reproduce it — every
/// non-recursive procedure when return jump functions are on (bottom-up
/// order guarantees its callees' RJFs were complete when its numbering
/// ran), and every procedure when they are off (the numbering then has
/// no RJF input at all).
void buildJfBase(AnalysisSession::JfBase &B, const Module &M,
                 const SymbolTable &Symbols, const CallGraph &CG,
                 const ModRefInfo *MRI, const JumpFunctionOptions &Opts,
                 const RefAliasInfo *Aliases, const FlowAliasInfo *FlowAliases,
                 const CopyPropInfo *CopyFacts, ThreadPool *Pool,
                 AnalysisSession *Session) {
  B.Skeleton.Options = Opts;
  B.Skeleton.PerSite.resize(M.Functions.size());
  B.Skeleton.ReturnJfs.resize(M.Functions.size());
  B.Vn.resize(M.Functions.size());

  const SsaForm::KillOracle &KillOracle = Session->killOracle(Opts.UseMod);
  KillValueFn VnKillFn = makeVnKillFn(B.Skeleton, Symbols);
  const KillValueFn *VnKillFnPtr =
      Opts.UseReturnJumpFunctions ? &VnKillFn : nullptr;
  BuildContext BC{M,           Symbols, CG,          MRI,        Opts,
                  KillOracle,  VnKillFnPtr, Aliases, FlowAliases, CopyFacts,
                  B.Skeleton,  Session};

  if (Opts.UseReturnJumpFunctions) {
    runStage1(BC, Pool, B.Skeleton.Stats,
              [&](ProcId P) -> AnalysisSession::VnBundle * {
                if (CG.isRecursive(P))
                  return nullptr;
                B.Vn[P] = std::make_unique<AnalysisSession::VnBundle>();
                return B.Vn[P].get();
              });
    return;
  }

  // No stage 1: cache a kill-free numbering per reachable procedure so
  // every configuration sharing this base skips the rebuild.
  const auto &Order = CG.topDownOrder();
  parallelFor(Pool, Order.size(), [&](size_t I) {
    ProcId P = Order[I];
    auto Bundle = std::make_unique<AnalysisSession::VnBundle>();
    const AnalysisSession::SsaBundle &SB = Session->ssa(P, Opts.UseMod);
    Bundle->VN.emplace(SB.Ssa, Symbols, Bundle->Ctx, nullptr,
                       Opts.UseGatedSsa ? &SB.DT : nullptr,
                       BC.precision(P));
    Session->counters().VnBuilt.fetch_add(1, std::memory_order_relaxed);
    B.Vn[P] = std::move(Bundle);
  });
}

void foldStats(JumpFunctionStats &Into, const JumpFunctionStats &S) {
  Into.NumForward += S.NumForward;
  Into.NumForwardConst += S.NumForwardConst;
  Into.NumForwardPassThrough += S.NumForwardPassThrough;
  Into.NumForwardPoly += S.NumForwardPoly;
  Into.NumForwardBottom += S.NumForwardBottom;
  Into.TotalPolySupport += S.TotalPolySupport;
  Into.MaxPolySupport = std::max(Into.MaxPolySupport, S.MaxPolySupport);
  Into.NumReturn += S.NumReturn;
  Into.NumReturnConst += S.NumReturnConst;
  Into.NumReturnPoly += S.NumReturnPoly;
  Into.NumReturnBottom += S.NumReturnBottom;
  Into.NumGvnPhiMerges += S.NumGvnPhiMerges;
}

} // namespace

ProgramJumpFunctions ipcp::buildJumpFunctions(
    const Module &M, const SymbolTable &Symbols, const CallGraph &CG,
    const ModRefInfo *MRI, const JumpFunctionOptions &Opts,
    const RefAliasInfo *Aliases, ThreadPool *Pool, AnalysisSession *Session,
    const FlowAliasInfo *FlowAliases, const CopyPropInfo *CopyFacts) {
  assert((Opts.UseMod == (MRI != nullptr)) &&
         "MOD info must be supplied exactly when UseMod is set");
  assert((!Opts.FlowSensitiveAlias || FlowAliases || !Aliases) &&
         "flow-sensitive mode needs the flow alias facts");
  assert((!Opts.CopyPropagation || CopyFacts) &&
         "copy mode needs the copy propagation facts");

  ProgramJumpFunctions Jfs;
  Jfs.Options = Opts;
  Jfs.PerSite.resize(M.Functions.size());
  Jfs.ReturnJfs.resize(M.Functions.size());

  // Return jump functions are built even without MOD summaries: the
  // bottom-up value numbering then runs under worst-case call effects, so
  // only leaf-ish procedures keep precise return jump functions — which
  // is how the paper's "without MOD" column still benefits from them.
  bool UseRjf = Opts.UseReturnJumpFunctions;

  // With a session, stage 1 lives in the shared base: build it once per
  // (UseMod, UseRjf, UseGatedSsa), then copy the skeleton's return jump
  // functions (JumpFunction is move-only, so clone) and stage-1 stats
  // into this configuration's result.
  const AnalysisSession::JfBase *Base = nullptr;
  if (Session) {
    Base = &Session->jfBase(Opts, [&](AnalysisSession::JfBase &B) {
      buildJfBase(B, M, Symbols, CG, MRI, Opts, Aliases, FlowAliases,
                  CopyFacts, Pool, Session);
    });
    for (size_t P = 0, E = Base->Skeleton.ReturnJfs.size(); P != E; ++P)
      for (const auto &[Sym, J] : Base->Skeleton.ReturnJfs[P])
        Jfs.ReturnJfs[P].emplace(Sym, J.clone());
    Jfs.RjfKeys = &Base->RjfKeys;
    foldStats(Jfs.Stats, Base->Skeleton.Stats);
  }

  SsaForm::KillOracle LocalOracle;
  const SsaForm::KillOracle *KillOracle;
  if (Session) {
    KillOracle = &Session->killOracle(Opts.UseMod);
  } else {
    LocalOracle = makeKillOracle(Symbols, MRI);
    KillOracle = &LocalOracle;
  }
  KillValueFn VnKillFn = makeVnKillFn(Jfs, Symbols);
  const KillValueFn *VnKillFnPtr = UseRjf ? &VnKillFn : nullptr;

  BuildContext BC{M,           Symbols, CG,          MRI,         Opts,
                  *KillOracle, VnKillFnPtr, Aliases, FlowAliases, CopyFacts,
                  Jfs,         Session};

  // Stage 1: return jump functions, bottom-up so callee RJFs are ready
  // when a caller's value numbering wants them. Within a recursive SCC
  // the not-yet-built callee RJFs simply read as bottom (conservative).
  // In parallel mode, call-adjacent procedures run in separate ordered
  // waves so each procedure observes exactly the serial schedule's view
  // of its neighbours' RJF maps. (With a session, the base above already
  // ran this.)
  if (UseRjf && !Session)
    runStage1(BC, Pool, Jfs.Stats,
              [](ProcId) -> AnalysisSession::VnBundle * { return nullptr; });

  // Stage 2: forward jump functions for every call site of every
  // reachable procedure. The RJFs are now read-only, so every procedure
  // is independent: one flat parallelFor. Cached base numberings stand in
  // for a fresh build wherever the base proved them identical.
  {
    const auto &Order = CG.topDownOrder();
    std::vector<JumpFunctionStats> PerProc(Order.size());
    parallelFor(Pool, Order.size(), [&](size_t I) {
      ProcId P = Order[I];
      const ValueNumbering *Cached = nullptr;
      if (Base && P < Base->Vn.size() && Base->Vn[P] && Base->Vn[P]->VN)
        Cached = &*Base->Vn[P]->VN;
      PerProc[I] = buildForwardJfsForProc(BC, P, Cached);
    });
    for (const JumpFunctionStats &S : PerProc)
      foldStats(Jfs.Stats, S);
  }

  return Jfs;
}

ProgramJumpFunctions ipcp::buildJumpFunctions(AnalysisSession &Session,
                                              const JumpFunctionOptions &Opts,
                                              ThreadPool *Pool) {
  const FlowAliasInfo *FlowAliases =
      Opts.FlowSensitiveAlias ? &Session.flowAlias(Opts.UseMod) : nullptr;
  const CopyPropInfo *CopyFacts =
      Opts.CopyPropagation ? &Session.copyProp(Opts.UseMod) : nullptr;
  return buildJumpFunctions(Session.module(), Session.symbols(),
                            Session.callGraph(), Session.modRef(Opts.UseMod),
                            Opts, &Session.refAlias(Opts.UseMod), Pool,
                            &Session, FlowAliases, CopyFacts);
}
