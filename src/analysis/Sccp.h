//===- analysis/Sccp.h - Sparse conditional constant propagation -*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wegman–Zadeck sparse conditional constant propagation (paper reference
/// [16]) over the SSA overlay, with two IPCP-specific extensions:
///
///  * the entry lattice is seedable — seeding it with a procedure's
///    CONSTANTS set turns this pass into the paper's constant
///    *substitution* engine, while an all-BOTTOM seed gives the purely
///    intraprocedural baseline of Table 3 column 4;
///  * the value a call assigns to each symbol it may modify is supplied
///    by a callback, which is how constant-valued return jump functions
///    re-enter the intraprocedural world.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_ANALYSIS_SCCP_H
#define IPCP_ANALYSIS_SCCP_H

#include "ipcp/Lattice.h"
#include "ir/Ssa.h"

#include <functional>
#include <unordered_map>
#include <vector>

namespace ipcp {

class ProcCopyProp;
class ProcFlowAlias;
class Sccp;

/// Lattice values flowing into one call site, handed to the kill-value
/// callback.
class SccpCallValues {
public:
  SccpCallValues(const Sccp &S, BlockId Block, uint32_t InstrIdx)
      : S(S), Block(Block), InstrIdx(InstrIdx) {}

  /// Lattice value of the \p Idx-th actual.
  LatticeValue actual(uint32_t Idx) const;
  /// Lattice value of global scalar \p G flowing into the call.
  LatticeValue global(SymbolId G) const;

private:
  const Sccp &S;
  BlockId Block;
  uint32_t InstrIdx;
};

/// Decides the post-call lattice value of a symbol the call may modify.
/// A null callback means every kill is BOTTOM.
using SccpKillFn = std::function<LatticeValue(
    const Instr &Call, SymbolId Killed, const SccpCallValues &Values)>;

/// Entry-lattice seed: values for formals/globals on procedure entry.
/// Symbols absent from the map start at BOTTOM (unknown caller).
using SccpSeeds = std::unordered_map<SymbolId, LatticeValue>;

/// One SCCP run over one procedure.
class Sccp {
public:
  /// Runs to fixpoint. \p Seeds and \p KillFn may be null. \p Unstable,
  /// when non-null, is a SymbolId-indexed mask of symbols involved in a
  /// modified by-reference alias pair (see analysis/RefAlias.h); every
  /// definition of such a symbol — entry value included — is forced to
  /// BOTTOM, since a store through the aliased name changes it without a
  /// definition the SSA form can see. \p Flow, when non-null, replaces
  /// that whole-procedure masking with per-point gating (at most one of
  /// the two is set): definitions and seeds stay precise, and only
  /// *reads* at points where the symbol is dirty (analysis/FlowAlias.h)
  /// resolve to BOTTOM. \p Copy, when non-null, supplies copy-propagation
  /// facts (analysis/CopyProp.h): a Load whose cell resolves takes the
  /// literal / the (seeded) entry value of the stable source symbol
  /// instead of BOTTOM — the substitution-side half of the copy lattice.
  Sccp(const SsaForm &Ssa, const SymbolTable &Symbols,
       const SccpSeeds *Seeds, const SccpKillFn *KillFn,
       const std::vector<uint8_t> *Unstable = nullptr,
       const ProcFlowAlias *Flow = nullptr,
       const ProcCopyProp *Copy = nullptr);

  const SsaForm &ssa() const { return Ssa; }
  const SymbolTable &symbols() const { return Symbols; }

  /// Final lattice value of \p Id. TOP means the definition was never
  /// reached along any executable path.
  LatticeValue value(SsaId Id) const { return Values.at(Id); }

  /// Lattice value of source-operand \p Slot of an instruction (resolves
  /// Const operands).
  LatticeValue operandValue(BlockId B, uint32_t InstrIdx,
                            uint32_t Slot) const;

  /// True if any executable path reaches \p B.
  bool blockExecutable(BlockId B) const { return ExecBlock.at(B); }

  /// True if the CFG edge \p SuccIdx out of \p B ever executes.
  bool edgeExecutable(BlockId B, uint32_t SuccIdx) const {
    return ExecEdge.at(B).at(SuccIdx);
  }

  /// Branches (in executable blocks) whose condition folded to a
  /// constant, as (source statement id, taken-is-true) pairs — the input
  /// to dead-code elimination.
  std::vector<std::pair<StmtId, bool>> constantBranches() const;

  /// Statistics: number of lattice cells that ended Const.
  size_t numConstants() const;

private:
  friend class SccpCallValues;

  void markEdgeExecutable(BlockId From, uint32_t SuccIdx);
  void visitBlock(BlockId B);
  void visitPhi(BlockId B, uint32_t PhiIdx);
  void visitInstr(BlockId B, uint32_t InstrIdx);
  void setValue(SsaId Id, LatticeValue V);
  LatticeValue operandValueImpl(const Instr &In, const InstrSsaInfo &Info,
                                BlockId B, uint32_t InstrIdx,
                                uint32_t Slot) const;
  bool edgeIntoExecutable(BlockId Pred, BlockId Succ) const;

  /// True if \p Sym is in a modified by-reference alias pair.
  bool isUnstable(SymbolId Sym) const {
    return Unstable && Sym != InvalidSymbol && (*Unstable)[Sym];
  }

  /// Flow-gated mode: true when reading \p Sym just before instruction
  /// \p InstrIdx of \p B may observe a value overwritten through an
  /// aliased name.
  bool dirtyRead(BlockId B, uint32_t InstrIdx, SymbolId Sym) const;

  const SsaForm &Ssa;
  const SymbolTable &Symbols;
  const SccpKillFn *KillFn;
  const std::vector<uint8_t> *Unstable;
  const ProcFlowAlias *Flow;
  const ProcCopyProp *Copy;
  /// Entry SSA value of each symbol (filled only in copy mode): the value
  /// a load resolved to stable symbol s takes.
  std::unordered_map<SymbolId, SsaId> EntryDefOf;

  std::vector<LatticeValue> Values;
  std::vector<uint8_t> ExecBlock;
  std::vector<std::vector<uint8_t>> ExecEdge;
  std::vector<std::pair<BlockId, uint32_t>> EdgeWork;
  std::vector<SsaId> SsaWork;
};

} // namespace ipcp

#endif // IPCP_ANALYSIS_SCCP_H
