//===- analysis/RefAlias.cpp - Call-by-reference alias analysis -----------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/RefAlias.h"

#include <algorithm>

using namespace ipcp;

namespace {

/// Sorted-unique symbol set; the binding sets are tiny (one entry per
/// distinct variable actual reaching a formal).
using LocSet = std::vector<SymbolId>;

bool insertLoc(LocSet &Set, SymbolId Sym) {
  auto It = std::lower_bound(Set.begin(), Set.end(), Sym);
  if (It != Set.end() && *It == Sym)
    return false;
  Set.insert(It, Sym);
  return true;
}

bool unionInto(LocSet &Into, const LocSet &From) {
  bool Changed = false;
  for (SymbolId Sym : From)
    Changed |= insertLoc(Into, Sym);
  return Changed;
}

bool intersects(const LocSet &A, const LocSet &B) {
  auto AI = A.begin();
  auto BI = B.begin();
  while (AI != A.end() && BI != B.end()) {
    if (*AI == *BI)
      return true;
    if (*AI < *BI)
      ++AI;
    else
      ++BI;
  }
  return false;
}

} // namespace

RefAliasInfo::RefAliasInfo(const Module &M, const SymbolTable &Symbols,
                           const ModRefInfo *MRI) {
  size_t NumProcs = M.Functions.size();
  size_t NumSyms = Symbols.size();
  Unstable.assign(NumProcs, std::vector<uint8_t>(NumSyms, 0));
  AnyUnstable.assign(NumProcs, 0);

  // Bind[P][I]: the variable locations (globals, caller locals and
  // caller formals, program-wide unique SymbolIds) that formal I of
  // procedure P may be bound to by reference at some call site.
  // Expression actuals bind to by-value temporaries and contribute
  // nothing. A formal actual binds the callee formal to the forwarded
  // formal itself and forwards its binding set, so the sets close
  // transitively over call chains — the formal is needed even when its
  // own set is empty (the caller was bound to an expression): `call
  // w2(p1, p1)` must still make w2's two formals alias. Every call site
  // in the module participates (reachability would only shrink the sets,
  // and conservatism is free here).
  std::vector<std::vector<LocSet>> Bind(NumProcs);
  for (ProcId P = 0; P != NumProcs; ++P)
    Bind[P].resize(Symbols.formals(P).size());

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (ProcId Caller = 0; Caller != NumProcs; ++Caller) {
      const Function &F = M.function(Caller);
      for (BlockId B = 0, BE = static_cast<BlockId>(F.numBlocks()); B != BE;
           ++B) {
        for (const Instr &In : F.block(B).Instrs) {
          if (In.Op != Opcode::Call)
            continue;
          auto &CalleeBind = Bind[In.Callee];
          for (uint32_t I = 0,
                        E = static_cast<uint32_t>(
                            std::min(In.Args.size(), CalleeBind.size()));
               I != E; ++I) {
            const Operand &Actual = In.Args[I];
            if (!Actual.isVar())
              continue;
            const Symbol &S = Symbols.symbol(Actual.Sym);
            if (S.Kind == SymbolKind::Formal) {
              Changed |= insertLoc(CalleeBind[I], Actual.Sym);
              Changed |=
                  unionInto(CalleeBind[I], Bind[Caller][S.FormalIndex]);
            } else if (S.isScalar()) {
              Changed |= insertLoc(CalleeBind[I], Actual.Sym);
            }
          }
        }
      }
    }
  }

  // A pair is unstable when either member may be modified within the
  // procedure (directly or through its calls). Without MOD summaries the
  // modification side is unknown, so every pair is unstable.
  auto mayMod = [&](ProcId P, SymbolId Sym) {
    return !MRI || MRI->mods(P, Sym);
  };
  for (ProcId P = 0; P != NumProcs; ++P) {
    const auto &Formals = Symbols.formals(P);
    auto markPair = [&](SymbolId A, SymbolId B) {
      ++NumAliasPairs;
      if (!mayMod(P, A) && !mayMod(P, B))
        return;
      for (SymbolId S : {A, B})
        if (!Unstable[P][S]) {
          Unstable[P][S] = 1;
          ++NumUnstable;
        }
      AnyUnstable[P] = 1;
    };
    for (uint32_t I = 0, E = static_cast<uint32_t>(Formals.size()); I != E;
         ++I) {
      for (SymbolId Loc : Bind[P][I])
        if (Symbols.symbol(Loc).Kind == SymbolKind::Global)
          markPair(Formals[I], Loc);
      for (uint32_t J = I + 1; J != E; ++J)
        if (intersects(Bind[P][I], Bind[P][J]))
          markPair(Formals[I], Formals[J]);
    }
  }
}
