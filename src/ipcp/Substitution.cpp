//===- ipcp/Substitution.cpp - Constant substitution counting -------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/Substitution.h"

#include "analysis/CopyProp.h"
#include "analysis/FlowAlias.h"
#include "analysis/Sccp.h"
#include "ipcp/AnalysisSession.h"
#include "ir/Dominators.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace ipcp;

const ProcSubstitutions *SubstitutionMemo::find(const std::string &Key) {
  Shard &S = shardOf(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Entries.find(Key);
  if (It == S.Entries.end()) {
    MissCount.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  HitCount.fetch_add(1, std::memory_order_relaxed);
  return &It->second;
}

const ProcSubstitutions &
SubstitutionMemo::record(std::string &&Key, ProcSubstitutions &&Value) {
  Shard &S = shardOf(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  return S.Entries.try_emplace(std::move(Key), std::move(Value))
      .first->second;
}

namespace {

void appendU32(std::string &Out, uint32_t V) {
  Out.append(reinterpret_cast<const char *>(&V), sizeof V);
}

/// The return jump functions \p Ssa's call-site kills consult, as
/// (kill position, fingerprint) pairs: exactly what the kill callback
/// can read. An ambiguous binding or an absent function reads as BOTTOM,
/// so it contributes nothing — the same bytes as running without return
/// jump functions at all.
std::string returnJfKey(const ProgramJumpFunctions &Jfs, const SsaForm &Ssa,
                        const SymbolTable &Symbols) {
  std::string Out;
  const Function &F = Ssa.function();
  uint32_t KillPos = 0;
  for (BlockId B = 0, BE = static_cast<BlockId>(F.numBlocks()); B != BE;
       ++B) {
    const auto &Instrs = F.block(B).Instrs;
    for (uint32_t I = 0, IE = static_cast<uint32_t>(Instrs.size()); I != IE;
         ++I) {
      const Instr &In = Instrs[I];
      if (In.Op != Opcode::Call)
        continue;
      for (const auto &[Killed, Def] : Ssa.instrInfo(B, I).Kills) {
        uint32_t Pos = KillPos++;
        auto CalleeKey =
            ProgramJumpFunctions::calleeKeyForKill(In, Killed, Symbols);
        const JumpFunction *Rjf =
            CalleeKey ? Jfs.returnJf(In.Callee, *CalleeKey) : nullptr;
        if (!Rjf)
          continue;
        appendU32(Out, Pos);
        Rjf->appendFingerprint(Out);
      }
    }
  }
  return Out;
}

/// The substitution-memo key of procedure \p P: every input its seeded
/// SCCP reads (see AnalysisSession.h for the argument).
std::string memoKey(ProcId P, bool UseMod, const SolveResult *Solve,
                    const ProgramJumpFunctions *Jfs, const SsaForm &Ssa,
                    const SymbolTable &Symbols, const RefAliasInfo *Aliases,
                    const FlowAliasInfo *FlowAliases,
                    const CopyPropInfo *CopyFacts) {
  std::string Key;
  appendU32(Key, P);
  Key += UseMod ? 'M' : 'm';
  // The gating Sccp will actually apply: trivial flow facts collapse to
  // none, and an all-clear mask gates nothing. Which facts they are is
  // fixed by (P, UseMod) within the session.
  char Gating = 'n';
  if (FlowAliases) {
    if (!FlowAliases->proc(P).trivial())
      Gating = 'f';
  } else if (Aliases && Aliases->anyUnstable(P)) {
    Gating = 'u';
  }
  Key += Gating;
  Key += CopyFacts && !CopyFacts->proc(P).trivial() ? 'C' : 'c';

  // An absent seed reads as BOTTOM, and no solve seeds nothing, so only
  // the non-BOTTOM seeds are keyed, in symbol order, after their count
  // (which keeps the key unambiguous: each seed and each return jump
  // function fingerprint is self-delimiting).
  std::vector<std::pair<SymbolId, LatticeValue>> Seeds;
  if (Solve)
    for (const auto &[Sym, V] : Solve->Val.at(P))
      if (!V.isBottom())
        Seeds.emplace_back(Sym, V);
  std::sort(Seeds.begin(), Seeds.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  appendU32(Key, static_cast<uint32_t>(Seeds.size()));
  for (const auto &[Sym, V] : Seeds) {
    appendU32(Key, Sym);
    if (V.isConst()) {
      int64_t C = V.value();
      Key += 'c';
      Key.append(reinterpret_cast<const char *>(&C), sizeof C);
    } else {
      Key += 't';
    }
  }

  if (Jfs) {
    auto Compute = [&] { return returnJfKey(*Jfs, Ssa, Symbols); };
    Key += Jfs->RjfKeys ? Jfs->RjfKeys->get(P, Compute) : Compute();
  }
  return Key;
}

ProcSubstitutions countProc(const Module &M, const SymbolTable &Symbols,
                            const SolveResult *Solve,
                            const SsaForm::KillOracle &KillOracle,
                            const SccpKillFn *KillFnPtr,
                            const RefAliasInfo *Aliases,
                            const FlowAliasInfo *FlowAliases,
                            const CopyPropInfo *CopyFacts, ProcId P,
                            const SsaForm *CachedSsa) {
  ProcSubstitutions Out;
  const Function &F = M.function(P);
  std::optional<DominatorTree> LocalDT;
  std::optional<SsaForm> LocalSsa;
  if (!CachedSsa) {
    LocalDT.emplace(F);
    LocalSsa.emplace(F, Symbols, *LocalDT, KillOracle);
  }
  const SsaForm &Ssa = CachedSsa ? *CachedSsa : *LocalSsa;

  // Seed the entry lattice with this procedure's CONSTANTS set.
  SccpSeeds Seeds;
  if (Solve)
    for (const auto &[Sym, V] : Solve->Val.at(P))
      Seeds.emplace(Sym, V);

  // Flow-sensitive mode replaces the whole-procedure mask with per-point
  // dirty gating; at most one of the two reaches the SCCP run.
  Sccp Analysis(Ssa, Symbols, Solve ? &Seeds : nullptr, KillFnPtr,
                FlowAliases ? nullptr
                            : (Aliases ? &Aliases->unstableMask(P) : nullptr),
                FlowAliases ? &FlowAliases->proc(P) : nullptr,
                CopyFacts ? &CopyFacts->proc(P) : nullptr);

  for (BlockId B = 0, BE = static_cast<BlockId>(F.numBlocks()); B != BE;
       ++B) {
    if (!Analysis.blockExecutable(B))
      continue;
    const auto &Instrs = F.block(B).Instrs;
    for (uint32_t I = 0, IE = static_cast<uint32_t>(Instrs.size());
         I != IE; ++I) {
      const Instr &In = Instrs[I];
      const InstrSsaInfo &Info = Ssa.instrInfo(B, I);

      // A by-reference actual the callee may modify must stay a
      // variable.
      auto unsubstitutable = [&](const Operand &Op) {
        if (In.Op != Opcode::Call || !Op.isVar())
          return false;
        for (const auto &[Killed, Def] : Info.Kills)
          if (Killed == Op.Sym)
            return true;
        return false;
      };

      if (In.Op == Opcode::Print &&
          Analysis.operandValue(B, I, 0).isConst())
        ++Out.ConstantPrints;

      uint32_t Slot = 0;
      In.forEachUse([&](const Operand &Op) {
        uint32_t S = Slot++;
        if (!Op.isVar() || Op.SourceExpr == 0 || unsubstitutable(Op))
          return;
        // Read through the gate: in flow-sensitive mode a use at a dirty
        // point must not be substituted even when its SSA value is known.
        LatticeValue V = Analysis.operandValue(B, I, S);
        if (!V.isConst())
          return;
        ++Out.Count;
        Out.Map.emplace(Op.SourceExpr, V.value());
      });
    }
  }

  for (auto [StmtId, Taken] : Analysis.constantBranches())
    Out.Branches.emplace(StmtId, Taken);
  return Out;
}

} // namespace

SubstitutionResult ipcp::countSubstitutions(
    const Module &M, const SymbolTable &Symbols, const CallGraph &CG,
    const SolveResult *Solve, const ModRefInfo *MRI,
    const ProgramJumpFunctions *Jfs, const RefAliasInfo *Aliases,
    ThreadPool *Pool, AnalysisSession *Session,
    const FlowAliasInfo *FlowAliases, const CopyPropInfo *CopyFacts) {
  SubstitutionResult Result;
  Result.PerProc.assign(M.Functions.size(), 0);

  SsaForm::KillOracle KillOracle = makeKillOracle(Symbols, MRI);
  SccpKillFn KillFn;
  const SccpKillFn *KillFnPtr = nullptr;
  if (Jfs) {
    KillFn = makeSccpKillFn(*Jfs, Symbols);
    KillFnPtr = &KillFn;
  }

  // Fan the procedures out (each reads only immutable state and writes
  // its own slot), then merge serially in the fixed top-down order. The
  // merged maps are keyed by program-unique expression/statement ids, so
  // the merge is disjoint and the result identical to the serial pass.
  //
  // With a session, each procedure's result is replayed from the memo
  // when its key matches an earlier run's, else computed and recorded.
  const bool UseMod = MRI != nullptr;
  SubstitutionMemo *Memo = Session ? &Session->substitutionMemo() : nullptr;
  const auto &Order = CG.topDownOrder();
  std::vector<const ProcSubstitutions *> PerProc(Order.size());
  std::vector<ProcSubstitutions> Fresh(Memo ? 0 : Order.size());
  parallelFor(Pool, Order.size(), [&](size_t I) {
    ProcId P = Order[I];
    const SsaForm *CachedSsa = Session ? &Session->ssa(P, UseMod).Ssa : nullptr;
    if (!Memo) {
      Fresh[I] = countProc(M, Symbols, Solve, KillOracle, KillFnPtr, Aliases,
                           FlowAliases, CopyFacts, P, CachedSsa);
      PerProc[I] = &Fresh[I];
      return;
    }
    std::string Key = memoKey(P, UseMod, Solve, Jfs, *CachedSsa, Symbols,
                              Aliases, FlowAliases, CopyFacts);
    if (const ProcSubstitutions *Hit = Memo->find(Key)) {
      PerProc[I] = Hit;
      return;
    }
    PerProc[I] = &Memo->record(
        std::move(Key),
        countProc(M, Symbols, Solve, KillOracle, KillFnPtr, Aliases,
                  FlowAliases, CopyFacts, P, CachedSsa));
  });

  for (size_t I = 0; I != Order.size(); ++I) {
    const ProcSubstitutions &PS = *PerProc[I];
    Result.Total += PS.Count;
    Result.PerProc[Order[I]] = PS.Count;
    Result.ConstantPrints += PS.ConstantPrints;
    Result.Map.insert(PS.Map.begin(), PS.Map.end());
    Result.Branches.insert(PS.Branches.begin(), PS.Branches.end());
  }

  return Result;
}
