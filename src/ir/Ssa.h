//===- ir/Ssa.h - SSA overlay over the quad CFG -----------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SSA construction in the style of Cytron et al. (paper reference [8]),
/// built as an *overlay*: the quad CFG is immutable and the SSA form maps
/// every variable def and use to a dense SsaId. The analyzer follows the
/// paper's discipline of building SSA per procedure, using it, and
/// discarding it (§4.1).
///
/// Two IPCP-specific features live here:
///  * Call instructions define fresh SSA values for every scalar the
///    callee may modify. The kill set is supplied by a callback so the
///    same construction serves the with-MOD, without-MOD, and
///    worst-case configurations of the study.
///  * Each call records the SSA values of all global scalars flowing into
///    it, and each function records the SSA values of its formals and the
///    globals reaching the exit. These snapshots are what forward and
///    return jump functions are generated from.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_SSA_H
#define IPCP_IR_SSA_H

#include "ir/Dominators.h"
#include "ir/Function.h"
#include "support/SmallVec.h"

#include <functional>
#include <vector>

namespace ipcp {

/// Id of an SSA value within one function.
using SsaId = uint32_t;
/// Sentinel for "no SSA value" (e.g. the slot of a Const operand).
inline constexpr SsaId InvalidSsa = UINT32_MAX;

/// How an SSA value is defined.
enum class SsaDefKind : uint8_t {
  Entry,    ///< Value of a symbol on entry to the function.
  Phi,      ///< Phi node at a join point.
  InstrDef, ///< Destination of a Copy/Unary/Binary/Load/Read.
  CallKill, ///< Value of a symbol after a call that may modify it.
  TempDef,  ///< Destination of an instruction writing a temporary.
};

/// Where and how one SSA value is defined.
struct SsaDef {
  SsaDefKind Kind;
  /// Defined symbol; InvalidSymbol for TempDef.
  SymbolId Sym = InvalidSymbol;
  /// Defined temporary (TempDef only).
  TempId Temp = 0;
  /// Defining block (for Entry: the entry block).
  BlockId Block = InvalidBlock;
  /// Defining instruction index within Block (InstrDef/CallKill/TempDef).
  uint32_t InstrIdx = 0;
  /// Index into the block's phi list (Phi only).
  uint32_t PhiIdx = 0;
};

/// A phi node: one per (join block, symbol) where needed.
struct Phi {
  SymbolId Sym;
  SsaId Def = InvalidSsa;
  /// Incoming values, parallel to the block's Preds list.
  SmallVec<SsaId, 2> Incoming;
};

/// One (killed symbol, fresh SSA value) entry of a call's kill set.
/// A plain aggregate rather than std::pair so it stays trivially
/// copyable (std::pair's assignment operator is not trivial).
struct KillDef {
  SymbolId Sym;
  SsaId Def;
};

/// SSA facts attached to one instruction. The per-instruction arrays use
/// inline storage: almost every instruction has at most two operands and
/// joins have at most two predecessors, so the whole overlay builds and
/// tears down without per-instruction heap traffic.
struct InstrSsaInfo {
  /// SSA values of the source operands, parallel to Instr::forEachUse
  /// slot order. InvalidSsa for Const operands.
  SmallVec<SsaId, 2> UseSsa;
  /// SSA value defined by Dst (InstrDef/TempDef), or InvalidSsa.
  SsaId DefSsa = InvalidSsa;
  /// For calls: the symbols the call may modify, each with the fresh SSA
  /// value it defines (CallKill defs).
  SmallVec<KillDef, 2> Kills;
  /// For calls: SSA values of all global scalars flowing *into* the call,
  /// parallel to SymbolTable::globalScalars().
  SmallVec<SsaId, 4> GlobalEnv;
};

/// One SSA use site, for def-use chains.
struct SsaUse {
  enum UseKind : uint8_t { InstrUse, PhiUse };
  UseKind Kind;
  BlockId Block;
  uint32_t Index; ///< Instruction index or phi index.
  /// Operand slot or phi incoming index. A call's GlobalEnv value i
  /// uses slot UseSsa.size() + i.
  uint32_t Slot;
};

/// The SSA overlay for one function.
class SsaForm {
public:
  /// Returns the scalar symbols a call instruction may modify, in a
  /// deterministic order. This is where interprocedural MOD information
  /// (or its absence) enters the intraprocedural analyses.
  using KillOracle =
      std::function<std::vector<SymbolId>(const Function &, const Instr &)>;

  /// Builds SSA for \p F. \p Kills supplies call kill sets.
  SsaForm(const Function &F, const SymbolTable &Symbols,
          const DominatorTree &DT, const KillOracle &Kills);

  const Function &function() const { return F; }

  /// All SSA defs; SsaIds index this densely.
  const std::vector<SsaDef> &defs() const { return Defs; }
  const SsaDef &def(SsaId Id) const { return Defs.at(Id); }
  size_t numValues() const { return Defs.size(); }

  /// Phi nodes of \p B.
  const std::vector<Phi> &phis(BlockId B) const { return BlockPhis.at(B); }

  /// SSA facts for instruction \p InstrIdx of block \p B.
  const InstrSsaInfo &instrInfo(BlockId B, uint32_t InstrIdx) const {
    return InstrInfo.at(B).at(InstrIdx);
  }

  /// (symbol, entry SSA value) for every scalar visible in the function,
  /// i.e. formals, locals, and global scalars.
  const std::vector<std::pair<SymbolId, SsaId>> &entryDefs() const {
    return EntryDefs;
  }

  /// Entry SSA value of \p Sym (must be visible in the function).
  SsaId entryValue(SymbolId Sym) const;

  /// The symbols whose exit values are recorded: the function's formals
  /// followed by all global scalars (= interproceduralParams).
  const std::vector<SymbolId> &exitSymbols() const { return ExitSymbols; }

  /// True if the exit block is reachable (some path returns).
  bool hasExitEnv() const { return HasExitEnv; }

  /// SSA values of exitSymbols() reaching the Ret instruction. Only valid
  /// if hasExitEnv().
  const std::vector<SsaId> &exitEnv() const { return ExitEnv; }

  /// All uses of SSA value \p Id (instruction operands and phi inputs).
  const SmallVec<SsaUse, 2> &usesOf(SsaId Id) const { return Uses.at(Id); }

  /// Total number of phi nodes (statistics).
  size_t numPhis() const;

private:
  friend class SsaBuilder;

  const Function &F;
  std::vector<SsaDef> Defs;
  std::vector<std::vector<Phi>> BlockPhis;
  std::vector<std::vector<InstrSsaInfo>> InstrInfo;
  std::vector<std::pair<SymbolId, SsaId>> EntryDefs;
  std::vector<SymbolId> ExitSymbols;
  std::vector<SsaId> ExitEnv;
  bool HasExitEnv = false;
  std::vector<SmallVec<SsaUse, 2>> Uses;
};

/// A KillOracle that kills nothing (for functions without calls, or unit
/// tests that do not care about calls).
std::vector<SymbolId> noCallKills(const Function &, const Instr &);

} // namespace ipcp

#endif // IPCP_IR_SSA_H
