//===- analysis/ModRef.cpp - Interprocedural MOD/REF summaries ------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/ModRef.h"

#include <algorithm>
#include <cassert>

using namespace ipcp;

ModRefInfo::ModRefInfo(const Module &M, const SymbolTable &Symbols,
                       const CallGraph &CG) {
  size_t NumProcs = M.Functions.size();
  size_t NumSyms = Symbols.size();
  Mod.assign(NumProcs, std::vector<uint8_t>(NumSyms, 0));
  Ref.assign(NumProcs, std::vector<uint8_t>(NumSyms, 0));

  // True for symbols that belong in a summary set: formals of the
  // summarized procedure, global scalars, and arrays.
  auto summarizable = [&](ProcId P, SymbolId Sym) {
    const Symbol &S = Symbols.symbol(Sym);
    switch (S.Kind) {
    case SymbolKind::Global:
    case SymbolKind::GlobalArray:
      return true;
    case SymbolKind::Formal:
      return S.Owner == P;
    case SymbolKind::Local:
    case SymbolKind::LocalArray:
      return false;
    }
    return false;
  };

  // Direct effects (ignoring calls).
  for (ProcId P = 0; P != NumProcs; ++P) {
    const Function &F = M.function(P);
    for (BlockId B = 0, BE = static_cast<BlockId>(F.numBlocks()); B != BE;
         ++B) {
      for (const Instr &In : F.block(B).Instrs) {
        if (const Operand *Def = In.def(); Def && Def->isVar())
          if (summarizable(P, Def->Sym))
            Mod[P][Def->Sym] = 1;
        if (In.Op == Opcode::Store && summarizable(P, In.Array))
          Mod[P][In.Array] = 1;
        if (In.Op == Opcode::Load && summarizable(P, In.Array))
          Ref[P][In.Array] = 1;
        In.forEachUse([&](const Operand &Op) {
          if (Op.isVar() && summarizable(P, Op.Sym))
            Ref[P][Op.Sym] = 1;
        });
      }
    }
  }

  // Close over call-site bindings: worklist over procedures whose summary
  // changed, propagating into their callers.
  std::vector<uint8_t> InWork(NumProcs, 1);
  std::vector<ProcId> Work;
  for (ProcId P = 0; P != NumProcs; ++P)
    Work.push_back(P);

  while (!Work.empty()) {
    ++Iterations;
    ProcId Callee = Work.back();
    Work.pop_back();
    InWork[Callee] = 0;

    for (const CallSite &S : CG.callSitesOf(Callee)) {
      ProcId Caller = S.Caller;
      const Function &F = M.function(Caller);
      const Instr &Call = F.block(S.Block).Instrs[S.InstrIdx];
      assert(Call.Op == Opcode::Call && Call.Callee == Callee);
      bool Changed = false;
      auto raise = [&](std::vector<std::vector<uint8_t>> &Sets,
                       SymbolId Sym) {
        if (!Sets[Caller][Sym] && summarizable(Caller, Sym)) {
          Sets[Caller][Sym] = 1;
          Changed = true;
        }
      };

      // Formal effects map through the by-reference actuals. Note that a
      // modified local actual does not enter the caller's summary (locals
      // are not visible to the caller's callers) but is still handled by
      // computeCallKills below.
      const auto &Formals = Symbols.formals(Callee);
      for (uint32_t I = 0, E = static_cast<uint32_t>(Formals.size());
           I != E && I < Call.Args.size(); ++I) {
        const Operand &Actual = Call.Args[I];
        if (!Actual.isVar())
          continue;
        if (Mod[Callee][Formals[I]])
          raise(Mod, Actual.Sym);
        if (Ref[Callee][Formals[I]])
          raise(Ref, Actual.Sym);
      }
      // Global effects propagate directly.
      for (const auto *Globals :
           {&Symbols.globalScalars(), &Symbols.globalArrays()})
        for (SymbolId G : *Globals) {
          if (Mod[Callee][G])
            raise(Mod, G);
          if (Ref[Callee][G])
            raise(Ref, G);
        }

      if (Changed && !InWork[Caller]) {
        InWork[Caller] = 1;
        Work.push_back(Caller);
      }
    }
  }
}

std::vector<SymbolId> ModRefInfo::modSet(ProcId P) const {
  std::vector<SymbolId> Out;
  for (SymbolId S = 0, E = static_cast<SymbolId>(Mod[P].size()); S != E; ++S)
    if (Mod[P][S])
      Out.push_back(S);
  return Out;
}

std::vector<SymbolId> ModRefInfo::refSet(ProcId P) const {
  std::vector<SymbolId> Out;
  for (SymbolId S = 0, E = static_cast<SymbolId>(Ref[P].size()); S != E; ++S)
    if (Ref[P][S])
      Out.push_back(S);
  return Out;
}

std::vector<SymbolId> ipcp::computeCallKills(const Function &F,
                                             const Instr &Call,
                                             const SymbolTable &Symbols,
                                             const ModRefInfo *MRI) {
  (void)F;
  assert(Call.Op == Opcode::Call && "kill query on a non-call");
  std::vector<SymbolId> Kills;
  // Each symbol is killed once: the actuals' kills come first, and only
  // they can repeat a symbol (globalScalars() has no duplicates), so a
  // short linear search over them dedupes.
  auto add = [&](SymbolId Sym, size_t SearchEnd) {
    if (std::find(Kills.begin(), Kills.begin() + SearchEnd, Sym) ==
        Kills.begin() + SearchEnd)
      Kills.push_back(Sym);
  };

  const auto &Formals = Symbols.formals(Call.Callee);
  for (uint32_t I = 0, E = static_cast<uint32_t>(Formals.size());
       I != E && I < Call.Args.size(); ++I) {
    const Operand &Actual = Call.Args[I];
    if (!Actual.isVar())
      continue; // Expression actuals bind to by-value temporaries.
    if (!MRI || MRI->mods(Call.Callee, Formals[I]))
      add(Actual.Sym, Kills.size());
  }
  size_t NumActualKills = Kills.size();
  for (SymbolId G : Symbols.globalScalars())
    if (!MRI || MRI->mods(Call.Callee, G))
      add(G, NumActualKills);
  return Kills;
}

SsaForm::KillOracle ipcp::makeKillOracle(const SymbolTable &Symbols,
                                         const ModRefInfo *MRI) {
  return [&Symbols, MRI](const Function &F, const Instr &Call) {
    return computeCallKills(F, Call, Symbols, MRI);
  };
}
