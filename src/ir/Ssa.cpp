//===- ir/Ssa.cpp - SSA overlay over the quad CFG -------------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Ssa.h"

#include <cassert>

using namespace ipcp;

std::vector<SymbolId> ipcp::noCallKills(const Function &, const Instr &) {
  return {};
}

namespace ipcp {

/// Performs phi placement and renaming for one SsaForm.
class SsaBuilder {
public:
  SsaBuilder(SsaForm &Ssa, const SymbolTable &Symbols,
             const DominatorTree &DT, const SsaForm::KillOracle &Kills)
      : Ssa(Ssa), F(Ssa.F), Symbols(Symbols), DT(DT), Kills(Kills) {}

  void run() {
    collectScalars();
    Ssa.BlockPhis.assign(F.numBlocks(), {});
    Ssa.InstrInfo.assign(F.numBlocks(), {});
    for (BlockId B = 0, E = static_cast<BlockId>(F.numBlocks()); B != E; ++B)
      Ssa.InstrInfo[B].resize(F.block(B).Instrs.size());
    TempSsa.assign(F.numTemps(), InvalidSsa);
    precomputeKills();
    placePhis();
    rename();
    buildUseLists();
  }

private:
  /// Dense per-function index of each scalar symbol visible here. The
  /// table is a flat array keyed by SymbolId (symbol ids are dense per
  /// program); this lookup sits on the renaming inner loop.
  uint32_t scalarIndex(SymbolId Sym) const {
    uint32_t Idx = ScalarIdx[Sym];
    assert(Idx != UINT32_MAX && "symbol not visible in this function");
    return Idx;
  }

  void collectScalars() {
    ProcId P = F.proc();
    ScalarIdx.assign(Symbols.size(), UINT32_MAX);
    auto add = [&](SymbolId Id) {
      if (ScalarIdx[Id] == UINT32_MAX) {
        ScalarIdx[Id] = static_cast<uint32_t>(Scalars.size());
        Scalars.push_back(Id);
      }
    };
    for (SymbolId Id : Symbols.formals(P))
      add(Id);
    for (SymbolId Id : Symbols.locals(P))
      add(Id);
    for (SymbolId Id : Symbols.globalScalars())
      add(Id);

    Ssa.ExitSymbols = Symbols.formals(P);
    Ssa.ExitSymbols.insert(Ssa.ExitSymbols.end(),
                           Symbols.globalScalars().begin(),
                           Symbols.globalScalars().end());
  }

  /// Evaluates the kill oracle once per call; the result is reused by phi
  /// placement and renaming so both see identical kill sets.
  void precomputeKills() {
    CallKillSets.assign(F.numBlocks(), {});
    for (BlockId B = 0, E = static_cast<BlockId>(F.numBlocks()); B != E;
         ++B) {
      const auto &Instrs = F.block(B).Instrs;
      CallKillSets[B].resize(Instrs.size());
      for (uint32_t I = 0, IE = static_cast<uint32_t>(Instrs.size());
           I != IE; ++I)
        if (Instrs[I].Op == Opcode::Call)
          CallKillSets[B][I] = Kills(F, Instrs[I]);
    }
  }

  SsaId newDef(SsaDef Def) {
    Ssa.Defs.push_back(Def);
    return static_cast<SsaId>(Ssa.Defs.size() - 1);
  }

  void placePhis() {
    size_t NumScalars = Scalars.size();
    // Def blocks per scalar.
    std::vector<std::vector<BlockId>> DefBlocks(NumScalars);
    for (BlockId B : DT.reversePostOrder()) {
      for (uint32_t I = 0, E = static_cast<uint32_t>(F.block(B).Instrs.size());
           I != E; ++I) {
        const Instr &In = F.block(B).Instrs[I];
        if (const Operand *Def = In.def(); Def && Def->isVar())
          DefBlocks[scalarIndex(Def->Sym)].push_back(B);
        for (SymbolId Killed : CallKillSets[B][I])
          DefBlocks[scalarIndex(Killed)].push_back(B);
      }
    }

    // Iterated dominance frontier per scalar (standard worklist).
    std::vector<uint32_t> HasPhi(F.numBlocks(), UINT32_MAX);
    for (uint32_t SI = 0; SI != NumScalars; ++SI) {
      std::vector<BlockId> Work = DefBlocks[SI];
      while (!Work.empty()) {
        BlockId B = Work.back();
        Work.pop_back();
        if (!DT.isReachable(B))
          continue;
        for (BlockId Join : DT.frontier(B)) {
          if (HasPhi[Join] == SI)
            continue;
          HasPhi[Join] = SI;
          Phi P;
          P.Sym = Scalars[SI];
          P.Incoming.assign(F.block(Join).Preds.size(), InvalidSsa);
          Ssa.BlockPhis[Join].push_back(std::move(P));
          Work.push_back(Join);
        }
      }
    }
  }

  void rename() {
    size_t NumScalars = Scalars.size();
    std::vector<std::vector<SsaId>> Stacks(NumScalars);

    // Entry values for every visible scalar.
    for (uint32_t SI = 0; SI != NumScalars; ++SI) {
      SsaDef D;
      D.Kind = SsaDefKind::Entry;
      D.Sym = Scalars[SI];
      D.Block = F.entry();
      SsaId Id = newDef(D);
      Stacks[SI].push_back(Id);
      Ssa.EntryDefs.push_back({Scalars[SI], Id});
    }

    // Iterative dominator-tree walk. The scalar indices pushed per block
    // live in one shared stack segmented by frame (PushedBase), not in a
    // per-frame heap vector.
    struct Frame {
      BlockId Block;
      size_t NextChild;
      size_t PushedBase; // First entry of this frame in PushedStorage.
    };
    std::vector<uint32_t> PushedStorage;
    std::vector<Frame> Stack;
    Stack.push_back({F.entry(), 0, 0});
    processBlock(F.entry(), Stacks, PushedStorage);

    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      const auto &Kids = DT.children(Top.Block);
      if (Top.NextChild < Kids.size()) {
        BlockId Child = Kids[Top.NextChild++];
        Stack.push_back({Child, 0, PushedStorage.size()});
        processBlock(Child, Stacks, PushedStorage);
        continue;
      }
      while (PushedStorage.size() > Top.PushedBase) {
        Stacks[PushedStorage.back()].pop_back();
        PushedStorage.pop_back();
      }
      Stack.pop_back();
    }
  }

  void processBlock(BlockId B, std::vector<std::vector<SsaId>> &Stacks,
                    std::vector<uint32_t> &Pushed) {
    auto pushDef = [&](SymbolId Sym, SsaId Id) {
      uint32_t SI = scalarIndex(Sym);
      Stacks[SI].push_back(Id);
      Pushed.push_back(SI);
    };
    auto top = [&](SymbolId Sym) -> SsaId {
      return Stacks[scalarIndex(Sym)].back();
    };

    // Phi definitions first.
    auto &Phis = Ssa.BlockPhis[B];
    for (uint32_t PI = 0, PE = static_cast<uint32_t>(Phis.size()); PI != PE;
         ++PI) {
      SsaDef D;
      D.Kind = SsaDefKind::Phi;
      D.Sym = Phis[PI].Sym;
      D.Block = B;
      D.PhiIdx = PI;
      SsaId Id = newDef(D);
      Phis[PI].Def = Id;
      pushDef(Phis[PI].Sym, Id);
    }

    auto &Instrs = F.block(B).Instrs;
    for (uint32_t I = 0, E = static_cast<uint32_t>(Instrs.size()); I != E;
         ++I) {
      const Instr &In = Instrs[I];
      InstrSsaInfo &Info = Ssa.InstrInfo[B][I];

      // Uses read the pre-instruction environment.
      In.forEachUse([&](const Operand &Op) {
        switch (Op.Kind) {
        case OperandKind::Var:
          Info.UseSsa.push_back(top(Op.Sym));
          break;
        case OperandKind::Temp:
          assert(TempSsa[Op.Temp] != InvalidSsa &&
                 "temporary used before definition");
          Info.UseSsa.push_back(TempSsa[Op.Temp]);
          break;
        default:
          Info.UseSsa.push_back(InvalidSsa);
          break;
        }
      });

      if (In.Op == Opcode::Call) {
        // Values of globals flowing into the call (pre-kill).
        for (SymbolId G : Symbols.globalScalars())
          Info.GlobalEnv.push_back(top(G));
        // The call defines fresh values for everything it may modify.
        for (SymbolId Killed : CallKillSets[B][I]) {
          SsaDef D;
          D.Kind = SsaDefKind::CallKill;
          D.Sym = Killed;
          D.Block = B;
          D.InstrIdx = I;
          SsaId Id = newDef(D);
          Info.Kills.push_back({Killed, Id});
          pushDef(Killed, Id);
        }
      } else if (const Operand *Def = In.def()) {
        if (Def->isVar()) {
          SsaDef D;
          D.Kind = SsaDefKind::InstrDef;
          D.Sym = Def->Sym;
          D.Block = B;
          D.InstrIdx = I;
          SsaId Id = newDef(D);
          Info.DefSsa = Id;
          pushDef(Def->Sym, Id);
        } else {
          assert(Def->isTemp() && "definition of a constant?");
          SsaDef D;
          D.Kind = SsaDefKind::TempDef;
          D.Temp = Def->Temp;
          D.Block = B;
          D.InstrIdx = I;
          SsaId Id = newDef(D);
          Info.DefSsa = Id;
          TempSsa[Def->Temp] = Id;
        }
      }

      if (In.Op == Opcode::Ret) {
        Ssa.HasExitEnv = true;
        for (SymbolId Sym : Ssa.ExitSymbols)
          Ssa.ExitEnv.push_back(top(Sym));
      }
    }

    // Fill phi inputs of successors.
    for (BlockId Succ : F.block(B).Succs) {
      const auto &Preds = F.block(Succ).Preds;
      for (auto &P : Ssa.BlockPhis[Succ]) {
        SsaId Incoming = top(P.Sym);
        for (uint32_t PI = 0, PE = static_cast<uint32_t>(Preds.size());
             PI != PE; ++PI)
          if (Preds[PI] == B)
            P.Incoming[PI] = Incoming;
      }
    }
  }

  void buildUseLists() {
    Ssa.Uses.assign(Ssa.Defs.size(), {});
    auto addUse = [&](SsaId Id, SsaUse Use) {
      if (Id != InvalidSsa)
        Ssa.Uses[Id].push_back(Use);
    };
    for (BlockId B = 0, E = static_cast<BlockId>(F.numBlocks()); B != E;
         ++B) {
      const auto &Phis = Ssa.BlockPhis[B];
      for (uint32_t PI = 0, PE = static_cast<uint32_t>(Phis.size());
           PI != PE; ++PI)
        for (uint32_t S = 0, SE = static_cast<uint32_t>(
                                  Phis[PI].Incoming.size());
             S != SE; ++S)
          addUse(Phis[PI].Incoming[S],
                 {SsaUse::PhiUse, B, PI, S});
      const auto &Infos = Ssa.InstrInfo[B];
      for (uint32_t I = 0, IE = static_cast<uint32_t>(Infos.size()); I != IE;
           ++I) {
        const InstrSsaInfo &Info = Infos[I];
        const uint32_t NumOps = static_cast<uint32_t>(Info.UseSsa.size());
        for (uint32_t S = 0; S != NumOps; ++S)
          addUse(Info.UseSsa[S], {SsaUse::InstrUse, B, I, S});
        // A call that kills something reads every global flowing into it
        // (the killed values are recovered from return jump functions
        // over them), so each GlobalEnv value is a use too, in the slots
        // past the operands.
        if (Info.Kills.empty())
          continue;
        for (uint32_t G = 0, GE = static_cast<uint32_t>(Info.GlobalEnv.size());
             G != GE; ++G)
          addUse(Info.GlobalEnv[G], {SsaUse::InstrUse, B, I, NumOps + G});
      }
    }
  }

  SsaForm &Ssa;
  const Function &F;
  const SymbolTable &Symbols;
  const DominatorTree &DT;
  const SsaForm::KillOracle &Kills;

  std::vector<SymbolId> Scalars;
  std::vector<uint32_t> ScalarIdx; // SymbolId -> dense index, UINT32_MAX if absent.
  std::vector<SsaId> TempSsa;
  std::vector<std::vector<std::vector<SymbolId>>> CallKillSets;
};

} // namespace ipcp

SsaForm::SsaForm(const Function &F, const SymbolTable &Symbols,
                 const DominatorTree &DT, const KillOracle &Kills)
    : F(F) {
  SsaBuilder Builder(*this, Symbols, DT, Kills);
  Builder.run();
}

SsaId SsaForm::entryValue(SymbolId Sym) const {
  for (const auto &[S, Id] : EntryDefs)
    if (S == Sym)
      return Id;
  assert(false && "symbol has no entry value in this function");
  return InvalidSsa;
}

size_t SsaForm::numPhis() const {
  size_t N = 0;
  for (const auto &Phis : BlockPhis)
    N += Phis.size();
  return N;
}
