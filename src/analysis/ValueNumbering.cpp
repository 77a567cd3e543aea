//===- analysis/ValueNumbering.cpp - SSA value numbering ------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/ValueNumbering.h"

#include "analysis/CopyProp.h"
#include "analysis/FlowAlias.h"

#include <cassert>

using namespace ipcp;

//===----------------------------------------------------------------------===//
// VnContext
//===----------------------------------------------------------------------===//

const VnExpr *VnContext::intern(VnExpr Proto) {
  Key K;
  K.Kind = Proto.Kind;
  switch (Proto.Kind) {
  case VnKind::Const:
    K.A = Proto.ConstValue;
    K.B = 0;
    break;
  case VnKind::Param:
    K.A = Proto.Param;
    K.B = 0;
    break;
  case VnKind::Unary:
    K.A = static_cast<int64_t>(Proto.UOp);
    K.B = Proto.Lhs->Id;
    break;
  case VnKind::Binary:
    K.A = static_cast<int64_t>(Proto.BOp);
    K.B = (static_cast<uint64_t>(Proto.Lhs->Id) << 32) | Proto.Rhs->Id;
    break;
  case VnKind::Gamma:
    K.A = Proto.Cond->Id;
    K.B = (static_cast<uint64_t>(Proto.Lhs->Id) << 32) | Proto.Rhs->Id;
    break;
  case VnKind::Opaque:
    assert(false && "opaque nodes are not interned");
    break;
  }
  if (auto It = Table.find(K); It != Table.end())
    return It->second;
  Proto.Id = static_cast<uint32_t>(Exprs.size());
  Exprs.push_back(Proto);
  const VnExpr *E = &Exprs.back();
  Table.emplace(K, E);
  return E;
}

const VnExpr *VnContext::getConst(int64_t Value) {
  VnExpr E;
  E.Kind = VnKind::Const;
  E.ConstValue = Value;
  return intern(E);
}

const VnExpr *VnContext::getParam(SymbolId Sym) {
  VnExpr E;
  E.Kind = VnKind::Param;
  E.Param = Sym;
  return intern(E);
}

const VnExpr *VnContext::makeOpaque() {
  VnExpr E;
  E.Kind = VnKind::Opaque;
  E.OpaqueId = NextOpaque++;
  E.Id = static_cast<uint32_t>(Exprs.size());
  Exprs.push_back(E);
  return &Exprs.back();
}

const VnExpr *VnContext::getUnary(UnaryOp Op, const VnExpr *Operand) {
  assert(Operand && "null operand");
  if (Operand->isConst())
    return getConst(evalUnaryOp(Op, Operand->ConstValue));
  // --x == x.
  if (Op == UnaryOp::Neg && Operand->Kind == VnKind::Unary &&
      Operand->UOp == UnaryOp::Neg)
    return Operand->Lhs;
  VnExpr E;
  E.Kind = VnKind::Unary;
  E.UOp = Op;
  E.Lhs = Operand;
  return intern(E);
}

static bool isCommutative(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Mul:
  case BinaryOp::CmpEq:
  case BinaryOp::CmpNe:
  case BinaryOp::LogicalAnd:
  case BinaryOp::LogicalOr:
    return true;
  default:
    return false;
  }
}

const VnExpr *VnContext::getBinary(BinaryOp Op, const VnExpr *Lhs,
                                   const VnExpr *Rhs) {
  assert(Lhs && Rhs && "null operand");

  if (Lhs->isConst() && Rhs->isConst()) {
    int64_t Result;
    if (!evalBinaryOp(Op, Lhs->ConstValue, Rhs->ConstValue, Result))
      return makeOpaque(); // Division by a constant zero.
    return getConst(Result);
  }

  // Algebraic identities that keep pass-through values recognizable.
  auto constOf = [](const VnExpr *E, int64_t C) {
    return E->isConst() && E->ConstValue == C;
  };
  switch (Op) {
  case BinaryOp::Add:
    if (constOf(Lhs, 0))
      return Rhs;
    if (constOf(Rhs, 0))
      return Lhs;
    break;
  case BinaryOp::Sub:
    if (constOf(Rhs, 0))
      return Lhs;
    if (Lhs == Rhs && !Lhs->isOpaque())
      return getConst(0);
    break;
  case BinaryOp::Mul:
    if (constOf(Lhs, 1))
      return Rhs;
    if (constOf(Rhs, 1))
      return Lhs;
    if (constOf(Lhs, 0) || constOf(Rhs, 0))
      return getConst(0);
    break;
  case BinaryOp::Div:
    if (constOf(Rhs, 1))
      return Lhs;
    break;
  case BinaryOp::Mod:
    if (constOf(Rhs, 1))
      return getConst(0);
    break;
  case BinaryOp::LogicalAnd:
    if (constOf(Lhs, 0) || constOf(Rhs, 0))
      return getConst(0);
    break;
  case BinaryOp::LogicalOr:
    if ((Lhs->isConst() && Lhs->ConstValue != 0) ||
        (Rhs->isConst() && Rhs->ConstValue != 0))
      return getConst(1);
    break;
  default:
    break;
  }

  if (isCommutative(Op) && Lhs->Id > Rhs->Id)
    std::swap(Lhs, Rhs);

  VnExpr E;
  E.Kind = VnKind::Binary;
  E.BOp = Op;
  E.Lhs = Lhs;
  E.Rhs = Rhs;
  return intern(E);
}

const VnExpr *VnContext::getGamma(const VnExpr *Cond,
                                  const VnExpr *TrueArm,
                                  const VnExpr *FalseArm) {
  assert(Cond && TrueArm && FalseArm && "null gamma operand");
  if (Cond->isConst())
    return Cond->ConstValue != 0 ? TrueArm : FalseArm;
  if (TrueArm == FalseArm)
    return TrueArm;
  VnExpr E;
  E.Kind = VnKind::Gamma;
  E.Cond = Cond;
  E.Lhs = TrueArm;
  E.Rhs = FalseArm;
  // Opaque arms are legitimate in gated expressions, but opaque nodes
  // are not interned; hash-consing on their Ids is still sound because
  // each opaque Id is unique.
  return intern(E);
}

//===----------------------------------------------------------------------===//
// Expression helpers
//===----------------------------------------------------------------------===//

bool ipcp::isParamExpr(const VnExpr *E) {
  switch (E->Kind) {
  case VnKind::Const:
  case VnKind::Param:
    return true;
  case VnKind::Opaque:
    return false;
  case VnKind::Unary:
    return isParamExpr(E->Lhs);
  case VnKind::Binary:
    return isParamExpr(E->Lhs) && isParamExpr(E->Rhs);
  case VnKind::Gamma:
    return isParamExpr(E->Cond) && isParamExpr(E->Lhs) &&
           isParamExpr(E->Rhs);
  }
  return false;
}

bool ipcp::isGatedParamExpr(const VnExpr *E) {
  switch (E->Kind) {
  case VnKind::Const:
  case VnKind::Param:
    return true;
  case VnKind::Opaque:
    return false;
  case VnKind::Unary:
    return isGatedParamExpr(E->Lhs);
  case VnKind::Binary:
    return isGatedParamExpr(E->Lhs) && isGatedParamExpr(E->Rhs);
  case VnKind::Gamma:
    // The predicate must be evaluable; either arm may be unknowable (it
    // only matters when selected).
    return isParamExpr(E->Cond) &&
           (E->Lhs->isOpaque() || isGatedParamExpr(E->Lhs)) &&
           (E->Rhs->isOpaque() || isGatedParamExpr(E->Rhs));
  }
  return false;
}

void ipcp::collectSupport(const VnExpr *E, std::vector<SymbolId> &Support) {
  switch (E->Kind) {
  case VnKind::Const:
  case VnKind::Opaque:
    return;
  case VnKind::Param:
    for (SymbolId S : Support)
      if (S == E->Param)
        return;
    Support.push_back(E->Param);
    return;
  case VnKind::Unary:
    collectSupport(E->Lhs, Support);
    return;
  case VnKind::Binary:
    collectSupport(E->Lhs, Support);
    collectSupport(E->Rhs, Support);
    return;
  case VnKind::Gamma:
    collectSupport(E->Cond, Support);
    collectSupport(E->Lhs, Support);
    collectSupport(E->Rhs, Support);
    return;
  }
}

std::string ipcp::vnExprToString(const VnExpr *E,
                                 const SymbolTable &Symbols) {
  switch (E->Kind) {
  case VnKind::Const:
    return std::to_string(E->ConstValue);
  case VnKind::Param:
    return Symbols.symbol(E->Param).Name;
  case VnKind::Opaque:
    return "opaque#" + std::to_string(E->OpaqueId);
  case VnKind::Unary:
    return std::string(unaryOpSpelling(E->UOp)) + "(" +
           vnExprToString(E->Lhs, Symbols) + ")";
  case VnKind::Binary:
    return "(" + vnExprToString(E->Lhs, Symbols) + " " +
           binaryOpSpelling(E->BOp) + " " +
           vnExprToString(E->Rhs, Symbols) + ")";
  case VnKind::Gamma:
    return "gamma(" + vnExprToString(E->Cond, Symbols) + ", " +
           vnExprToString(E->Lhs, Symbols) + ", " +
           vnExprToString(E->Rhs, Symbols) + ")";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// CallSiteValues
//===----------------------------------------------------------------------===//

const VnExpr *CallSiteValues::actual(uint32_t Idx) const {
  return VN.exprOfOperand(Block, InstrIdx, Idx);
}

const VnExpr *CallSiteValues::global(SymbolId G) const {
  // GlobalEnv is parallel to the symbol table's global scalar list.
  const auto &Globals = VN.symbols().globalScalars();
  for (uint32_t Idx = 0, E = static_cast<uint32_t>(Globals.size()); Idx != E;
       ++Idx)
    if (Globals[Idx] == G)
      return VN.globalEnvExpr(Block, InstrIdx, Idx);
  assert(false && "not a global scalar");
  return nullptr;
}

//===----------------------------------------------------------------------===//
// ValueNumbering
//===----------------------------------------------------------------------===//

namespace {

/// For a two-predecessor join \p B controlled by the conditional branch
/// in idom(B), maps each predecessor to the branch arm (true/false) it
/// belongs to. Fails (returns false) for joins that are not simple
/// diamonds/triangles — loop headers in particular.
bool mapPredsToArms(const Function &F, const DominatorTree &DT, BlockId B,
                    BlockId &BranchBlock, bool ArmIsTrue[2]) {
  const auto &Preds = F.block(B).Preds;
  if (Preds.size() != 2)
    return false;
  BlockId D = DT.idom(B);
  if (D == InvalidBlock || D == B)
    return false;
  const auto &DInstrs = F.block(D).Instrs;
  if (DInstrs.empty() || DInstrs.back().Op != Opcode::Branch)
    return false;
  BlockId TrueSucc = F.block(D).Succs[0];
  BlockId FalseSucc = F.block(D).Succs[1];
  for (int I = 0; I != 2; ++I) {
    BlockId P = Preds[I];
    if (!DT.isReachable(P))
      return false;
    if (P == D) {
      // Triangle: the branch edge reaches the join directly.
      if (B == TrueSucc && B != FalseSucc)
        ArmIsTrue[I] = true;
      else if (B == FalseSucc && B != TrueSucc)
        ArmIsTrue[I] = false;
      else
        return false;
    } else if (TrueSucc != B && DT.dominates(TrueSucc, P)) {
      ArmIsTrue[I] = true;
    } else if (FalseSucc != B && DT.dominates(FalseSucc, P)) {
      ArmIsTrue[I] = false;
    } else {
      return false;
    }
  }
  if (ArmIsTrue[0] == ArmIsTrue[1])
    return false; // Both preds on the same arm: not a gate.
  BranchBlock = D;
  return true;
}

} // namespace

ValueNumbering::ValueNumbering(const SsaForm &Ssa,
                               const SymbolTable &Symbols, VnContext &Ctx,
                               const KillValueFn *KillFn,
                               const DominatorTree *GatedDT,
                               const std::vector<uint8_t> *Unstable)
    : ValueNumbering(Ssa, Symbols, Ctx, KillFn, GatedDT,
                     VnPrecision{Unstable, nullptr, false}) {}

ValueNumbering::ValueNumbering(const SsaForm &Ssa,
                               const SymbolTable &Symbols, VnContext &Ctx,
                               const KillValueFn *KillFn,
                               const DominatorTree *GatedDT,
                               const VnPrecision &Prec)
    : Ssa(Ssa), Symbols(Symbols), Ctx(Ctx),
      Flow(Prec.Flow && !Prec.Flow->trivial() ? Prec.Flow : nullptr),
      Copy(Prec.Copy && !Prec.Copy->trivial() ? Prec.Copy : nullptr) {
  ExprOf.assign(Ssa.numValues(), nullptr);
  if (Flow)
    buildFlowGates();
  if (Prec.Optimistic)
    numberOptimistic(KillFn, GatedDT, Prec.Unstable);
  else
    numberPessimistic(KillFn, GatedDT, Prec.Unstable);

  // Unreachable definitions (e.g. phis in a preserved-but-unreachable
  // exit block) get opaque values so exprOf() is total.
  for (const VnExpr *&E : ExprOf)
    if (!E)
      E = Ctx.makeOpaque();
}

/// Pre-allocates one Opaque gate for every dirty read point: operand
/// slots, per-call global environments, and the exit environment. Filling
/// the tables up front (in deterministic block order) keeps the numbering
/// itself allocation-order-stable across optimistic passes and lets
/// concurrent post-construction readers resolve gated reads without ever
/// touching the context.
void ValueNumbering::buildFlowGates() {
  const Function &F = Ssa.function();
  const auto &Globals = Symbols.globalScalars();
  for (BlockId B = 0, BE = static_cast<BlockId>(F.numBlocks()); B != BE;
       ++B) {
    const auto &Instrs = F.block(B).Instrs;
    for (uint32_t I = 0, E = static_cast<uint32_t>(Instrs.size()); I != E;
         ++I) {
      const Instr &In = Instrs[I];
      uint32_t Slot = 0;
      In.forEachUse([&](const Operand &Op) {
        if (Op.isVar() && Flow->dirtyAt(B, I, Op.Sym))
          OperandGates.emplace(GateKey{B, I, Slot}, Ctx.makeOpaque());
        ++Slot;
      });
      if (In.Op == Opcode::Call) {
        const InstrSsaInfo &Info = Ssa.instrInfo(B, I);
        for (uint32_t GI = 0,
                      GE = static_cast<uint32_t>(Info.GlobalEnv.size());
             GI != GE; ++GI)
          if (Flow->dirtyAt(B, I, Globals[GI]))
            GlobalGates.emplace(GateKey{B, I, GI}, Ctx.makeOpaque());
      }
    }
  }
  if (Ssa.hasExitEnv()) {
    const auto &ExitSyms = Ssa.exitSymbols();
    ExitGates.assign(ExitSyms.size(), nullptr);
    for (uint32_t I = 0, E = static_cast<uint32_t>(ExitSyms.size()); I != E;
         ++I)
      if (Flow->dirtyAtExit(ExitSyms[I]))
        ExitGates[I] = Ctx.makeOpaque();
  }
}

const VnExpr *ValueNumbering::operandGate(BlockId B, uint32_t InstrIdx,
                                          uint32_t Slot) const {
  if (!Flow)
    return nullptr;
  auto It = OperandGates.find(GateKey{B, InstrIdx, Slot});
  return It != OperandGates.end() ? It->second : nullptr;
}

void ValueNumbering::numberPessimistic(const KillValueFn *KillFn,
                                       const DominatorTree *GatedDT,
                                       const std::vector<uint8_t> *Unstable) {
  const Function &F = Ssa.function();

  auto unstable = [&](SymbolId Sym) {
    return Unstable && Sym != InvalidSymbol && (*Unstable)[Sym];
  };

  // Entry values: formals and globals are Params; uninitialized locals
  // are unknowable, as are symbols in a modified by-reference alias pair
  // (their entry value is only the location's value until the first
  // store through the other name).
  for (auto [Sym, Id] : Ssa.entryDefs()) {
    const Symbol &S = Symbols.symbol(Sym);
    ExprOf[Id] = S.isInterproceduralParam() && !unstable(Sym)
                     ? Ctx.getParam(Sym)
                     : Ctx.makeOpaque();
  }

  auto operandExpr = [&](const Operand &Op, SsaId Use) -> const VnExpr * {
    if (Op.isConst())
      return Ctx.getConst(Op.ConstValue);
    assert(Use != InvalidSsa && "variable operand without SSA id");
    assert(ExprOf[Use] && "use before def in RPO walk");
    return ExprOf[Use];
  };

  // In gated mode, a failed phi merge at a two-way join becomes a Gamma
  // over the controlling branch's predicate expression.
  auto tryGamma = [&](BlockId B, const Phi &P) -> const VnExpr * {
    if (!GatedDT)
      return nullptr;
    BlockId BranchBlock = InvalidBlock;
    bool ArmIsTrue[2];
    if (!mapPredsToArms(F, *GatedDT, B, BranchBlock, ArmIsTrue))
      return nullptr;
    const auto &BranchInstrs = F.block(BranchBlock).Instrs;
    uint32_t BranchIdx = static_cast<uint32_t>(BranchInstrs.size() - 1);
    const VnExpr *Cond = exprOfOperand(BranchBlock, BranchIdx, 0);
    // The predicate must be evaluable during propagation. (Optimistic
    // passes may see a still-unnumbered predicate; no gamma then.)
    if (!Cond || !isParamExpr(Cond))
      return nullptr;
    const VnExpr *Arms[2];
    for (int I = 0; I != 2; ++I) {
      SsaId In = P.Incoming[I];
      Arms[I] = In != InvalidSsa && ExprOf[In] ? ExprOf[In] : nullptr;
      if (!Arms[I])
        return nullptr; // Back edge: a mu, not a gamma.
    }
    const VnExpr *TrueArm = ArmIsTrue[0] ? Arms[0] : Arms[1];
    const VnExpr *FalseArm = ArmIsTrue[0] ? Arms[1] : Arms[0];
    return Ctx.getGamma(Cond, TrueArm, FalseArm);
  };

  std::vector<BlockId> Rpo = F.reversePostOrder();
  // Operand-expression scratch, reused across instructions (hoisted out
  // of the inner loop so numbering does not allocate per instruction).
  std::vector<const VnExpr *> Ops;
  for (BlockId B : Rpo) {
    // Phis: available-and-equal inputs collapse; anything else is opaque
    // (pessimistic value numbering), or a Gamma in gated mode.
    for (const Phi &P : Ssa.phis(B)) {
      if (unstable(P.Sym)) {
        ExprOf[P.Def] = Ctx.makeOpaque();
        continue;
      }
      const VnExpr *Merged = nullptr;
      bool Known = true;
      for (SsaId In : P.Incoming) {
        const VnExpr *E = In == InvalidSsa ? nullptr : ExprOf[In];
        if (!E) {
          Known = false; // Back edge not yet numbered.
          break;
        }
        if (E->isOpaque()) {
          Known = false;
          break;
        }
        if (!Merged)
          Merged = E;
        else if (Merged != E)
          Known = false;
        if (!Known)
          break;
      }
      if (Known && Merged) {
        ExprOf[P.Def] = Merged;
        continue;
      }
      if (const VnExpr *Gated = tryGamma(B, P)) {
        ExprOf[P.Def] = Gated;
        continue;
      }
      ExprOf[P.Def] = Ctx.makeOpaque();
    }

    const auto &Instrs = F.block(B).Instrs;
    for (uint32_t I = 0, E = static_cast<uint32_t>(Instrs.size()); I != E;
         ++I) {
      const Instr &In = Instrs[I];
      const InstrSsaInfo &Info = Ssa.instrInfo(B, I);

      // Gather operand expressions in slot order. A read gated dirty by
      // the flow-sensitive alias facts resolves to its gate Opaque: the
      // reaching SSA value may be stale at this point.
      Ops.clear();
      uint32_t Slot = 0;
      In.forEachUse([&](const Operand &Op) {
        const VnExpr *Gate = operandGate(B, I, Slot);
        Ops.push_back(Gate ? Gate : operandExpr(Op, Info.UseSsa[Slot]));
        ++Slot;
      });

      // A value stored into an unstable symbol is unreliable the moment
      // it lands: the next store through an aliased name rewrites it.
      if (Info.DefSsa != InvalidSsa &&
          unstable(Ssa.def(Info.DefSsa).Sym)) {
        ExprOf[Info.DefSsa] = Ctx.makeOpaque();
        continue;
      }

      switch (In.Op) {
      case Opcode::Copy:
        ExprOf[Info.DefSsa] = Ops[0];
        break;
      case Opcode::Unary:
        ExprOf[Info.DefSsa] = Ctx.getUnary(In.UnOp, Ops[0]);
        break;
      case Opcode::Binary:
        ExprOf[Info.DefSsa] = Ctx.getBinary(In.BinOp, Ops[0], Ops[1]);
        break;
      case Opcode::Load:
        // A load whose cell the copy-propagation dataflow resolves is the
        // literal / the entry value of the stable source, not an Opaque.
        if (const CellFact *CF = Copy ? Copy->factAt(B, I) : nullptr) {
          ExprOf[Info.DefSsa] =
              CF->isConst() ? Ctx.getConst(CF->Value) : Ctx.getParam(CF->Sym);
          break;
        }
        ExprOf[Info.DefSsa] = Ctx.makeOpaque();
        break;
      case Opcode::Read:
        ExprOf[Info.DefSsa] = Ctx.makeOpaque();
        break;
      case Opcode::Call: {
        CallSiteValues Values(*this, B, I);
        for (auto [Killed, Def] : Info.Kills) {
          std::optional<int64_t> C;
          if (KillFn && *KillFn && !unstable(Killed))
            C = (*KillFn)(In, Killed, Values);
          ExprOf[Def] = C ? Ctx.getConst(*C) : Ctx.makeOpaque();
        }
        break;
      }
      case Opcode::Store:
      case Opcode::Print:
      case Opcode::Branch:
      case Opcode::Jump:
      case Opcode::Ret:
        break;
      }
    }
  }
}

/// Pai-style optimistic iteration: every value starts at TOP (null) and
/// reverse-postorder passes re-evaluate until nothing changes. Phi merges
/// skip TOP inputs (the optimistic assumption that an unresolved path
/// will agree); a value whose re-evaluation disagrees with what it
/// already holds is pinned to its stable per-id Opaque, so each value
/// changes at most twice and the iteration terminates. Values still TOP
/// at the fixpoint are unreachable and are filled with Opaques by the
/// constructor tail.
void ValueNumbering::numberOptimistic(const KillValueFn *KillFn,
                                      const DominatorTree *GatedDT,
                                      const std::vector<uint8_t> *Unstable) {
  const Function &F = Ssa.function();

  auto unstable = [&](SymbolId Sym) {
    return Unstable && Sym != InvalidSymbol && (*Unstable)[Sym];
  };

  OpaqueSlots.assign(Ssa.numValues(), nullptr);
  auto opaqueFor = [&](SsaId Id) {
    if (!OpaqueSlots[Id])
      OpaqueSlots[Id] = Ctx.makeOpaque();
    return OpaqueSlots[Id];
  };

  // Three-level descent per id: TOP (null) adopts the first value; a
  // re-evaluation that disagrees pins the id to its stable Opaque; a
  // pinned id never changes again.
  auto setExpr = [&](SsaId Id, const VnExpr *E) -> bool {
    if (ExprOf[Id] == E)
      return false;
    if (!ExprOf[Id]) {
      ExprOf[Id] = E;
      return true;
    }
    if (OpaqueSlots[Id] && ExprOf[Id] == OpaqueSlots[Id])
      return false;
    ExprOf[Id] = opaqueFor(Id);
    return true;
  };

  for (auto [Sym, Id] : Ssa.entryDefs()) {
    const Symbol &S = Symbols.symbol(Sym);
    ExprOf[Id] = S.isInterproceduralParam() && !unstable(Sym)
                     ? Ctx.getParam(Sym)
                     : opaqueFor(Id);
  }

  auto operandExpr = [&](const Operand &Op, SsaId Use) -> const VnExpr * {
    if (Op.isConst())
      return Ctx.getConst(Op.ConstValue);
    assert(Use != InvalidSsa && "variable operand without SSA id");
    return ExprOf[Use]; // May still be TOP (null) mid-iteration.
  };

  auto tryGamma = [&](BlockId B, const Phi &P) -> const VnExpr * {
    if (!GatedDT)
      return nullptr;
    BlockId BranchBlock = InvalidBlock;
    bool ArmIsTrue[2];
    if (!mapPredsToArms(F, *GatedDT, B, BranchBlock, ArmIsTrue))
      return nullptr;
    const auto &BranchInstrs = F.block(BranchBlock).Instrs;
    uint32_t BranchIdx = static_cast<uint32_t>(BranchInstrs.size() - 1);
    const VnExpr *Cond = exprOfOperand(BranchBlock, BranchIdx, 0);
    if (!Cond || !isParamExpr(Cond))
      return nullptr;
    const VnExpr *Arms[2];
    for (int I = 0; I != 2; ++I) {
      SsaId In = P.Incoming[I];
      Arms[I] = In != InvalidSsa ? ExprOf[In] : nullptr;
      if (!Arms[I])
        return nullptr;
    }
    const VnExpr *TrueArm = ArmIsTrue[0] ? Arms[0] : Arms[1];
    const VnExpr *FalseArm = ArmIsTrue[0] ? Arms[1] : Arms[0];
    return Ctx.getGamma(Cond, TrueArm, FalseArm);
  };

  // SawTop[phi def]: the phi's merge skipped a TOP input on some pass —
  // exactly the merges the pessimistic single pass turns Opaque.
  std::vector<uint8_t> SawTop(Ssa.numValues(), 0);

  std::vector<BlockId> Rpo = F.reversePostOrder();
  std::vector<const VnExpr *> Ops;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : Rpo) {
      for (const Phi &P : Ssa.phis(B)) {
        if (unstable(P.Sym)) {
          Changed |= setExpr(P.Def, opaqueFor(P.Def));
          continue;
        }
        const VnExpr *Merged = nullptr;
        bool SawOpaque = false, Conflict = false, SkippedTop = false;
        for (SsaId In : P.Incoming) {
          const VnExpr *E = In == InvalidSsa ? nullptr : ExprOf[In];
          if (!E) {
            SkippedTop = true; // Optimistic: assume the path will agree.
            continue;
          }
          if (E->isOpaque()) {
            SawOpaque = true;
            break;
          }
          if (!Merged)
            Merged = E;
          else if (Merged != E) {
            Conflict = true;
            break;
          }
        }
        if (SkippedTop)
          SawTop[P.Def] = 1;
        if (!SawOpaque && !Conflict) {
          if (Merged)
            Changed |= setExpr(P.Def, Merged);
          // All inputs TOP: stay TOP.
          continue;
        }
        if (const VnExpr *Gated = tryGamma(B, P)) {
          Changed |= setExpr(P.Def, Gated);
          continue;
        }
        Changed |= setExpr(P.Def, opaqueFor(P.Def));
      }

      const auto &Instrs = F.block(B).Instrs;
      for (uint32_t I = 0, E = static_cast<uint32_t>(Instrs.size()); I != E;
           ++I) {
        const Instr &In = Instrs[I];
        const InstrSsaInfo &Info = Ssa.instrInfo(B, I);

        Ops.clear();
        bool OpsReady = true;
        uint32_t Slot = 0;
        In.forEachUse([&](const Operand &Op) {
          const VnExpr *Gate = operandGate(B, I, Slot);
          const VnExpr *E = Gate ? Gate : operandExpr(Op, Info.UseSsa[Slot]);
          OpsReady &= E != nullptr;
          Ops.push_back(E);
          ++Slot;
        });

        if (Info.DefSsa != InvalidSsa &&
            unstable(Ssa.def(Info.DefSsa).Sym)) {
          Changed |= setExpr(Info.DefSsa, opaqueFor(Info.DefSsa));
          continue;
        }

        switch (In.Op) {
        case Opcode::Copy:
          if (OpsReady)
            Changed |= setExpr(Info.DefSsa, Ops[0]);
          break;
        case Opcode::Unary:
          if (OpsReady)
            Changed |= setExpr(Info.DefSsa, Ctx.getUnary(In.UnOp, Ops[0]));
          break;
        case Opcode::Binary:
          if (OpsReady) {
            const VnExpr *E = Ctx.getBinary(In.BinOp, Ops[0], Ops[1]);
            // A constant division by zero numbers to a fresh Opaque on
            // every pass; use the def's stable one so a re-evaluation
            // agrees instead of pinning the def (and its users) Opaque.
            if (E->isOpaque() && E != Ops[0] && E != Ops[1])
              E = opaqueFor(Info.DefSsa);
            Changed |= setExpr(Info.DefSsa, E);
          }
          break;
        case Opcode::Load:
          if (const CellFact *CF = Copy ? Copy->factAt(B, I) : nullptr) {
            Changed |= setExpr(Info.DefSsa, CF->isConst()
                                                ? Ctx.getConst(CF->Value)
                                                : Ctx.getParam(CF->Sym));
            break;
          }
          Changed |= setExpr(Info.DefSsa, opaqueFor(Info.DefSsa));
          break;
        case Opcode::Read:
          Changed |= setExpr(Info.DefSsa, opaqueFor(Info.DefSsa));
          break;
        case Opcode::Call: {
          // The kill callback reads actuals and the global environment
          // lazily; evaluate only once every input it could read has
          // left TOP (at the fixpoint every reachable call is ready).
          bool EnvReady = OpsReady;
          for (uint32_t GI = 0,
                        GE = static_cast<uint32_t>(Info.GlobalEnv.size());
               EnvReady && GI != GE; ++GI)
            EnvReady = globalEnvExpr(B, I, GI) != nullptr;
          if (!EnvReady)
            break;
          CallSiteValues Values(*this, B, I);
          for (auto [Killed, Def] : Info.Kills) {
            std::optional<int64_t> C;
            if (KillFn && *KillFn && !unstable(Killed))
              C = (*KillFn)(In, Killed, Values);
            Changed |= setExpr(Def, C ? Ctx.getConst(*C) : opaqueFor(Def));
          }
          break;
        }
        case Opcode::Store:
        case Opcode::Print:
        case Opcode::Branch:
        case Opcode::Jump:
        case Opcode::Ret:
          break;
        }
      }
    }
  }

  for (BlockId B : Rpo)
    for (const Phi &P : Ssa.phis(B))
      if (SawTop[P.Def] && ExprOf[P.Def] && !ExprOf[P.Def]->isOpaque())
        ++NumOptimisticPhiMerges;
}

const VnExpr *ValueNumbering::exprOfOperand(BlockId B, uint32_t InstrIdx,
                                            uint32_t Slot) const {
  if (const VnExpr *Gate = operandGate(B, InstrIdx, Slot))
    return Gate;
  const Instr &In = Ssa.function().block(B).Instrs[InstrIdx];
  const InstrSsaInfo &Info = Ssa.instrInfo(B, InstrIdx);
  const VnExpr *Result = nullptr;
  bool Found = false;
  uint32_t Cur = 0;
  In.forEachUse([&](const Operand &Op) {
    if (Cur == Slot) {
      Found = true;
      if (Op.isConst())
        Result = Ctx.getConst(Op.ConstValue);
      else
        Result = ExprOf[Info.UseSsa[Cur]];
    }
    ++Cur;
  });
  assert(Found && "operand slot out of range");
  (void)Found;
  return Result;
}

const VnExpr *ValueNumbering::globalEnvExpr(BlockId B, uint32_t InstrIdx,
                                            uint32_t GlobalIdx) const {
  if (Flow) {
    auto It = GlobalGates.find(GateKey{B, InstrIdx, GlobalIdx});
    if (It != GlobalGates.end())
      return It->second;
  }
  const InstrSsaInfo &Info = Ssa.instrInfo(B, InstrIdx);
  return ExprOf[Info.GlobalEnv.at(GlobalIdx)];
}

const VnExpr *ValueNumbering::exitExpr(uint32_t ExitIdx) const {
  if (ExitIdx < ExitGates.size() && ExitGates[ExitIdx])
    return ExitGates[ExitIdx];
  return ExprOf[Ssa.exitEnv().at(ExitIdx)];
}
