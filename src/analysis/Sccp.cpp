//===- analysis/Sccp.cpp - Sparse conditional constant propagation --------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Sccp.h"

#include "analysis/CopyProp.h"
#include "analysis/FlowAlias.h"

#include <cassert>

using namespace ipcp;

LatticeValue SccpCallValues::actual(uint32_t Idx) const {
  const Instr &In = S.ssa().function().block(Block).Instrs[InstrIdx];
  const InstrSsaInfo &Info = S.ssa().instrInfo(Block, InstrIdx);
  assert(Idx < In.Args.size() && "actual index out of range");
  return S.operandValueImpl(In, Info, Block, InstrIdx, Idx);
}

LatticeValue SccpCallValues::global(SymbolId G) const {
  const InstrSsaInfo &Info = S.ssa().instrInfo(Block, InstrIdx);
  const auto &Globals = S.symbols().globalScalars();
  for (uint32_t Idx = 0, E = static_cast<uint32_t>(Globals.size()); Idx != E;
       ++Idx)
    if (Globals[Idx] == G) {
      if (S.dirtyRead(Block, InstrIdx, G))
        return LatticeValue::bottom();
      return S.Values[Info.GlobalEnv.at(Idx)];
    }
  assert(false && "not a global scalar");
  return LatticeValue::bottom();
}

bool Sccp::dirtyRead(BlockId B, uint32_t InstrIdx, SymbolId Sym) const {
  return Flow && Flow->dirtyAt(B, InstrIdx, Sym);
}

Sccp::Sccp(const SsaForm &Ssa, const SymbolTable &Symbols,
           const SccpSeeds *Seeds, const SccpKillFn *KillFn,
           const std::vector<uint8_t> *Unstable, const ProcFlowAlias *Flow,
           const ProcCopyProp *Copy)
    : Ssa(Ssa), Symbols(Symbols), KillFn(KillFn), Unstable(Unstable),
      Flow(Flow && !Flow->trivial() ? Flow : nullptr),
      Copy(Copy && !Copy->trivial() ? Copy : nullptr) {
  const Function &F = Ssa.function();
  Values.assign(Ssa.numValues(), LatticeValue::top());
  ExecBlock.assign(F.numBlocks(), 0);
  ExecEdge.resize(F.numBlocks());
  for (BlockId B = 0, E = static_cast<BlockId>(F.numBlocks()); B != E; ++B)
    ExecEdge[B].assign(F.block(B).Succs.size(), 0);

  // Seed entry values. Formals and globals default to BOTTOM (arbitrary
  // caller) unless the seed map says otherwise; locals are uninitialized
  // and also BOTTOM. Unstable symbols stay BOTTOM even when seeded: the
  // entry value is only trustworthy until the first store through an
  // aliased name, which the def chains below cannot witness.
  for (auto [Sym, Id] : Ssa.entryDefs()) {
    LatticeValue V = LatticeValue::bottom();
    if (Seeds) {
      if (auto It = Seeds->find(Sym); It != Seeds->end())
        V = It->second;
    }
    if (!Symbols.symbol(Sym).isInterproceduralParam() || isUnstable(Sym))
      V = LatticeValue::bottom();
    Values[Id] = V;
    if (this->Copy)
      EntryDefOf.emplace(Sym, Id);
  }

  ExecBlock[F.entry()] = 1;
  visitBlock(F.entry());

  while (!EdgeWork.empty() || !SsaWork.empty()) {
    while (!SsaWork.empty()) {
      SsaId Id = SsaWork.back();
      SsaWork.pop_back();
      for (const SsaUse &Use : Ssa.usesOf(Id)) {
        if (!ExecBlock[Use.Block])
          continue;
        if (Use.Kind == SsaUse::PhiUse)
          visitPhi(Use.Block, Use.Index);
        else
          visitInstr(Use.Block, Use.Index);
      }
    }
    while (!EdgeWork.empty()) {
      auto [From, SuccIdx] = EdgeWork.back();
      EdgeWork.pop_back();
      BlockId To = Ssa.function().block(From).Succs[SuccIdx];
      if (!ExecBlock[To]) {
        ExecBlock[To] = 1;
        visitBlock(To);
      } else {
        // New edge into an already-live block: phi inputs may improve.
        for (uint32_t PI = 0,
                      PE = static_cast<uint32_t>(Ssa.phis(To).size());
             PI != PE; ++PI)
          visitPhi(To, PI);
      }
    }
  }
}

void Sccp::setValue(SsaId Id, LatticeValue V) {
  // Monotonic: only ever lower.
  LatticeValue New = Values[Id].meet(V);
  if (New != Values[Id]) {
    Values[Id] = New;
    SsaWork.push_back(Id);
  }
}

bool Sccp::edgeIntoExecutable(BlockId Pred, BlockId Succ) const {
  const auto &Succs = Ssa.function().block(Pred).Succs;
  for (uint32_t I = 0, E = static_cast<uint32_t>(Succs.size()); I != E; ++I)
    if (Succs[I] == Succ && ExecEdge[Pred][I])
      return true;
  return false;
}

void Sccp::markEdgeExecutable(BlockId From, uint32_t SuccIdx) {
  if (ExecEdge[From][SuccIdx])
    return;
  ExecEdge[From][SuccIdx] = 1;
  EdgeWork.push_back({From, SuccIdx});
}

void Sccp::visitBlock(BlockId B) {
  for (uint32_t PI = 0, PE = static_cast<uint32_t>(Ssa.phis(B).size());
       PI != PE; ++PI)
    visitPhi(B, PI);
  for (uint32_t I = 0,
                E = static_cast<uint32_t>(Ssa.function().block(B).Instrs.size());
       I != E; ++I)
    visitInstr(B, I);
}

void Sccp::visitPhi(BlockId B, uint32_t PhiIdx) {
  const Phi &P = Ssa.phis(B)[PhiIdx];
  if (isUnstable(P.Sym)) {
    setValue(P.Def, LatticeValue::bottom());
    return;
  }
  const auto &Preds = Ssa.function().block(B).Preds;
  LatticeValue Merged = LatticeValue::top();
  for (uint32_t I = 0, E = static_cast<uint32_t>(P.Incoming.size()); I != E;
       ++I) {
    if (!ExecBlock[Preds[I]] || !edgeIntoExecutable(Preds[I], B))
      continue;
    Merged = Merged.meet(Values[P.Incoming[I]]);
  }
  setValue(P.Def, Merged);
}

LatticeValue Sccp::operandValueImpl(const Instr &In,
                                    const InstrSsaInfo &Info, BlockId B,
                                    uint32_t InstrIdx, uint32_t Slot) const {
  LatticeValue Result = LatticeValue::bottom();
  uint32_t Cur = 0;
  bool Found = false;
  In.forEachUse([&](const Operand &Op) {
    if (Cur == Slot) {
      Found = true;
      if (Op.isConst())
        Result = LatticeValue::constant(Op.ConstValue);
      else if (dirtyRead(B, InstrIdx, Op.Sym))
        // The reaching SSA value may have been overwritten through an
        // aliased name on some path to this read.
        Result = LatticeValue::bottom();
      else
        Result = Values[Info.UseSsa[Cur]];
    }
    ++Cur;
  });
  assert(Found && "operand slot out of range");
  (void)Found;
  return Result;
}

LatticeValue Sccp::operandValue(BlockId B, uint32_t InstrIdx,
                                uint32_t Slot) const {
  const Instr &In = Ssa.function().block(B).Instrs[InstrIdx];
  return operandValueImpl(In, Ssa.instrInfo(B, InstrIdx), B, InstrIdx, Slot);
}

void Sccp::visitInstr(BlockId B, uint32_t InstrIdx) {
  const Instr &In = Ssa.function().block(B).Instrs[InstrIdx];
  const InstrSsaInfo &Info = Ssa.instrInfo(B, InstrIdx);
  auto use = [&](uint32_t Slot) {
    return operandValueImpl(In, Info, B, InstrIdx, Slot);
  };

  // A value computed into an unstable symbol is immediately unreliable:
  // the next store through an aliased name rewrites it invisibly. Only
  // Copy/Unary/Binary/Load/Read carry a DefSsa, so returning here never
  // skips control-flow handling.
  if (Info.DefSsa != InvalidSsa && isUnstable(Ssa.def(Info.DefSsa).Sym)) {
    setValue(Info.DefSsa, LatticeValue::bottom());
    return;
  }

  switch (In.Op) {
  case Opcode::Copy:
    setValue(Info.DefSsa, use(0));
    break;
  case Opcode::Unary: {
    LatticeValue V = use(0);
    if (V.isConst())
      setValue(Info.DefSsa,
               LatticeValue::constant(evalUnaryOp(In.UnOp, V.value())));
    else
      setValue(Info.DefSsa, V);
    break;
  }
  case Opcode::Binary: {
    LatticeValue L = use(0), R = use(1);
    if (L.isConst() && R.isConst()) {
      int64_t Result;
      if (evalBinaryOp(In.BinOp, L.value(), R.value(), Result))
        setValue(Info.DefSsa, LatticeValue::constant(Result));
      else
        setValue(Info.DefSsa, LatticeValue::bottom()); // Division by zero.
    } else if (L.isBottom() || R.isBottom()) {
      setValue(Info.DefSsa, LatticeValue::bottom());
    }
    // Else at least one TOP: stay optimistic.
    break;
  }
  case Opcode::Load:
    // A load whose cell the copy-propagation dataflow resolves takes the
    // literal / the entry value of its stable source (constant when the
    // solver seeded the source). Entry values are fixed at construction,
    // so this resolution is stable across re-visits.
    if (const CellFact *CF = Copy ? Copy->factAt(B, InstrIdx) : nullptr) {
      if (CF->isConst()) {
        setValue(Info.DefSsa, LatticeValue::constant(CF->Value));
      } else {
        auto It = EntryDefOf.find(CF->Sym);
        setValue(Info.DefSsa, It != EntryDefOf.end()
                                  ? Values[It->second]
                                  : LatticeValue::bottom());
      }
      break;
    }
    setValue(Info.DefSsa, LatticeValue::bottom());
    break;
  case Opcode::Read:
    setValue(Info.DefSsa, LatticeValue::bottom());
    break;
  case Opcode::Call: {
    SccpCallValues CallVals(*this, B, InstrIdx);
    for (auto [Killed, Def] : Info.Kills) {
      LatticeValue V = KillFn && *KillFn && !isUnstable(Killed)
                           ? (*KillFn)(In, Killed, CallVals)
                           : LatticeValue::bottom();
      setValue(Def, V);
    }
    break;
  }
  case Opcode::Branch: {
    LatticeValue Cond = use(0);
    if (Cond.isConst()) {
      markEdgeExecutable(B, Cond.value() != 0 ? 0 : 1);
    } else if (Cond.isBottom()) {
      markEdgeExecutable(B, 0);
      markEdgeExecutable(B, 1);
    }
    // TOP: no edge executes yet.
    break;
  }
  case Opcode::Jump:
    markEdgeExecutable(B, 0);
    break;
  case Opcode::Store:
  case Opcode::Print:
  case Opcode::Ret:
    break;
  }
}

std::vector<std::pair<StmtId, bool>> Sccp::constantBranches() const {
  std::vector<std::pair<StmtId, bool>> Result;
  const Function &F = Ssa.function();
  for (BlockId B = 0, E = static_cast<BlockId>(F.numBlocks()); B != E; ++B) {
    if (!ExecBlock[B])
      continue;
    const auto &Instrs = F.block(B).Instrs;
    for (uint32_t I = 0, IE = static_cast<uint32_t>(Instrs.size()); I != IE;
         ++I) {
      const Instr &In = Instrs[I];
      if (In.Op != Opcode::Branch || In.SourceStmt == 0)
        continue;
      LatticeValue Cond = operandValue(B, I, 0);
      if (Cond.isConst())
        Result.push_back({In.SourceStmt, Cond.value() != 0});
    }
  }
  return Result;
}

size_t Sccp::numConstants() const {
  size_t N = 0;
  for (const LatticeValue &V : Values)
    N += V.isConst();
  return N;
}
