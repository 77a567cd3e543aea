//===- analysis/CopyProp.cpp - Array-cell copy propagation ----------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/CopyProp.h"

#include "analysis/ModRef.h"
#include "analysis/RefAlias.h"

#include <algorithm>
#include <map>

using namespace ipcp;

namespace {

/// A tracked (array, constant index) cell. std::map keys keep cell ids
/// deterministic across platforms.
using CellKey = std::pair<SymbolId, int64_t>;

/// Per-procedure cells beyond this bound fall back to "no facts", which is
/// sound (loads stay opaque, exactly the classic behaviour).
constexpr size_t MaxCellsPerProc = 256;

/// One element of the cell lattice: TOP (not yet reached), a resolved
/// fact — Const(c) or Copy(s) — or BOTTOM (may hold anything).
struct CellValue {
  enum class Kind : uint8_t { Top, Fact, Bottom };
  Kind K = Kind::Top;
  CellFact Fact;

  static CellValue bottom() { return {Kind::Bottom, {}}; }
  static CellValue of(CellFact F) { return {Kind::Fact, F}; }
  bool operator==(const CellValue &) const = default;

  /// Must-analysis meet: TOP is the identity, equal elements meet to
  /// themselves, everything else falls to BOTTOM.
  static CellValue meet(const CellValue &A, const CellValue &B) {
    if (A.K == Kind::Top)
      return B;
    if (B.K == Kind::Top || A == B)
      return A;
    return bottom();
  }
};

} // namespace

CopyPropInfo::CopyPropInfo(const Module &M, const SymbolTable &Symbols,
                           const ModRefInfo *MRI,
                           const RefAliasInfo &Aliases) {
  size_t NumProcs = M.Functions.size();
  size_t NumSyms = Symbols.size();
  Procs.resize(NumProcs);

  SsaForm::KillOracle Kills = makeKillOracle(Symbols, MRI);

  for (ProcId P = 0; P != NumProcs; ++P) {
    ProcCopyProp &PC = Procs[P];
    const Function &F = M.function(P);
    size_t NumBlocks = F.numBlocks();

    // Pass 1: the tracked cells are exactly the (array, constant index)
    // pairs some store writes; loads only query.
    std::map<CellKey, uint32_t> CellId;
    bool AnyConstLoad = false;
    for (BlockId B = 0; B != static_cast<BlockId>(NumBlocks); ++B) {
      for (const Instr &In : F.block(B).Instrs) {
        if (In.Op == Opcode::Store && In.Src1.isConst())
          CellId.emplace(CellKey{In.Array, In.Src1.ConstValue},
                         static_cast<uint32_t>(CellId.size()));
        else if (In.Op == Opcode::Load && In.Src1.isConst())
          AnyConstLoad = true;
      }
    }
    // Re-number after the emplace race with size(): ids in key order.
    {
      uint32_t Next = 0;
      for (auto &[Key, Id] : CellId)
        Id = Next++;
    }
    if (CellId.empty() || !AnyConstLoad || CellId.size() > MaxCellsPerProc)
      continue;
    size_t NumCells = CellId.size();

    // A copy source must be an interprocedural parameter whose memory value
    // provably equals its entry value everywhere in P: never defined here,
    // never call-killed, and not alias-unstable.
    std::vector<uint8_t> Stable(NumSyms, 0);
    for (SymbolId S = 0; S != NumSyms; ++S) {
      const Symbol &Sym = Symbols.symbol(S);
      Stable[S] = Sym.isScalar() && Sym.isInterproceduralParam() &&
                  (Sym.Kind != SymbolKind::Formal || Sym.Owner == P) &&
                  !Aliases.unstable(P, S);
    }
    for (BlockId B = 0; B != static_cast<BlockId>(NumBlocks); ++B) {
      for (const Instr &In : F.block(B).Instrs) {
        if (const Operand *D = In.def(); D && D->isVar())
          Stable[D->Sym] = 0;
        if (In.Op == Opcode::Call)
          for (SymbolId K : Kills(F, In))
            Stable[K] = 0;
      }
    }

    // Cell kill masks: a non-constant-index store smashes every cell of its
    // array; a call smashes the cells of global arrays the callee may
    // modify (all of them without MOD). Local arrays survive calls — arrays
    // cannot be actuals and locals are fresh per activation.
    std::vector<std::vector<uint32_t>> ArrayCells(NumSyms);
    for (const auto &[Key, Id] : CellId)
      ArrayCells[Key.first].push_back(Id);
    auto calleeKillsArray = [&](ProcId Callee, SymbolId Array) {
      if (Symbols.symbol(Array).Kind != SymbolKind::GlobalArray)
        return false;
      return !MRI || MRI->mods(Callee, Array);
    };

    using State = std::vector<CellValue>;
    auto meetInto = [](State &Dst, const State &Src) {
      for (size_t I = 0, E = Dst.size(); I != E; ++I)
        Dst[I] = CellValue::meet(Dst[I], Src[I]);
    };
    auto transfer = [&](const Instr &In, State &Cur) {
      if (In.Op == Opcode::Store) {
        if (In.Src1.isConst()) {
          auto It = CellId.find({In.Array, In.Src1.ConstValue});
          CellValue Gen = CellValue::bottom();
          if (In.Src2.isConst())
            Gen = CellValue::of({InvalidSymbol, In.Src2.ConstValue});
          else if (In.Src2.isVar() && Stable[In.Src2.Sym])
            Gen = CellValue::of({In.Src2.Sym, 0});
          Cur[It->second] = Gen;
        } else {
          for (uint32_t C : ArrayCells[In.Array])
            Cur[C] = CellValue::bottom();
        }
      } else if (In.Op == Opcode::Call) {
        for (const auto &[Key, Id] : CellId)
          if (calleeKillsArray(In.Callee, Key.first))
            Cur[Id] = CellValue::bottom();
      }
    };

    // Forward must-dataflow: interior blocks start optimistic (TOP), the
    // entry starts all-BOTTOM (array contents are unknown at entry), joins
    // meet, RPO iteration to a fixpoint.
    std::vector<BlockId> Rpo = F.reversePostOrder();
    std::vector<State> InState(NumBlocks, State(NumCells)),
        OutState(NumBlocks, State(NumCells));
    BlockId Entry = Rpo.empty() ? 0 : Rpo.front();
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BlockId B : Rpo) {
        State In(NumCells, B == Entry ? CellValue::bottom() : CellValue());
        if (B != Entry)
          for (BlockId Pred : F.block(B).Preds)
            meetInto(In, OutState[Pred]);
        State Cur = In;
        for (const Instr &I : F.block(B).Instrs)
          transfer(I, Cur);
        if (In != InState[B] || Cur != OutState[B]) {
          InState[B] = std::move(In);
          OutState[B] = std::move(Cur);
          Changed = true;
        }
      }
    }

    // Publish per-load facts from the stabilized pre-states.
    for (BlockId B : Rpo) {
      State Cur = InState[B];
      const auto &Instrs = F.block(B).Instrs;
      for (uint32_t I = 0, E = static_cast<uint32_t>(Instrs.size()); I != E;
           ++I) {
        const Instr &In = Instrs[I];
        if (In.Op == Opcode::Load && In.Src1.isConst()) {
          auto It = CellId.find({In.Array, In.Src1.ConstValue});
          if (It != CellId.end() &&
              Cur[It->second].K == CellValue::Kind::Fact) {
            PC.Facts.emplace(ProcCopyProp::key(B, I), Cur[It->second].Fact);
            ++NumResolvedLoads;
          }
        }
        transfer(In, Cur);
      }
    }
  }
}
