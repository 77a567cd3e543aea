//===- analysis/CopyProp.h - Array-cell copy propagation --------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Intraprocedural copy propagation over array cells. Array loads are the
/// one value source the constant framework declares permanently opaque
/// (docs/LANGUAGE.md, limitation 2): every `x = a(i)` is BOTTOM in SCCP and
/// Opaque in value numbering, even when the program just stored a literal
/// or an unmodified formal into that exact cell. This analysis recovers the
/// provable cases:
///
///  * **Cells.** A tracked cell is an (array symbol, constant index) pair
///    that some `a(c) = v` store writes. Distinct constant indices of one
///    array never alias; a store through a non-constant index smashes every
///    cell of that array.
///
///  * **Facts.** A forward *must*-dataflow over a private four-point cell
///    lattice (TOP / Const(c) / Copy(s) / BOTTOM; TOP-initialized
///    interior, all-BOTTOM entry, meet at joins, fixpoint over loops)
///    proves, per program point, that a cell holds Const(c) — a literal
///    was stored — or Copy(s) — the entry value of a *stable* symbol s was
///    stored. Distinct copies, and a copy against a constant, meet to
///    BOTTOM: proving s == c is the solver's job, not the dataflow's. Stable
///    means: an interprocedural parameter (formal or global scalar) that is
///    never defined in the procedure, never in any call's kill set (which
///    embeds MOD), and not in the reference-alias unstable mask, so its
///    memory value provably equals its entry value everywhere.
///
///  * **Kills.** A call kills the cells of every global array the callee
///    may modify (MOD-aware; with no MOD information every call kills all
///    global-array cells). Local arrays survive calls unconditionally —
///    MiniFort arrays cannot be passed as actuals, and locals are fresh
///    per activation, so no callee can reach them.
///
/// Consumers resolve Load instructions: value numbering maps a resolved
/// load to getConst(c) / getParam(s) instead of Opaque, which lets jump
/// functions classify `call f(a(1))` actuals as Const/PassThrough/Poly
/// instead of Bottom; SCCP maps it to the literal / the entry SSA value of
/// s. Both are exact: a stable symbol's memory value is its entry value
/// everywhere in the procedure, so a recovered copy *is* a parameter. Facts
/// only upgrade points that were BOTTOM classically, so every classic
/// constant is preserved and CONSTANTS sets grow monotonically
/// (classic subset-of copy, checked per-proc by check-copy).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_ANALYSIS_COPYPROP_H
#define IPCP_ANALYSIS_COPYPROP_H

#include "ir/Function.h"

#include <cstddef>
#include <unordered_map>
#include <vector>

namespace ipcp {

class ModRefInfo;
class RefAliasInfo;

/// What a resolved load reads: the entry value of the stable symbol \p Sym
/// when it is valid, else the literal \p Value.
struct CellFact {
  SymbolId Sym = InvalidSymbol;
  int64_t Value = 0;

  bool isConst() const { return Sym == InvalidSymbol; }
  bool operator==(const CellFact &) const = default;
};

/// Per-procedure resolved-load facts. Queries are valid for any
/// (block, instruction) of the procedure's CFG.
class ProcCopyProp {
public:
  /// True when no load in the procedure resolves: consumers may skip the
  /// per-instruction lookup entirely.
  bool trivial() const { return Facts.empty(); }

  /// The resolved cell value for the Load instruction at \p InstrIdx of
  /// block \p B, or null when the load stays opaque.
  const CellFact *factAt(BlockId B, uint32_t InstrIdx) const {
    if (Facts.empty())
      return nullptr;
    auto It = Facts.find(key(B, InstrIdx));
    return It == Facts.end() ? nullptr : &It->second;
  }

private:
  friend class CopyPropInfo;

  static uint64_t key(BlockId B, uint32_t InstrIdx) {
    return (static_cast<uint64_t>(B) << 32) | InstrIdx;
  }

  /// (block << 32 | instr) -> resolved value, only for loads that resolve.
  std::unordered_map<uint64_t, CellFact> Facts;
};

/// Program-wide copy-propagation facts plus the statistics the pipeline
/// surfaces.
class CopyPropInfo {
public:
  /// Analyzes every procedure of \p M. \p MRI supplies callee MOD sets for
  /// array-cell kills and scalar call kills (null = worst case), exactly as
  /// the SSA overlay's kill oracle does. \p Aliases is the by-reference
  /// alias analysis whose unstable masks gate copy-source stability.
  CopyPropInfo(const Module &M, const SymbolTable &Symbols,
               const ModRefInfo *MRI, const RefAliasInfo &Aliases);

  const ProcCopyProp &proc(ProcId P) const { return Procs.at(P); }

  /// Number of Load instructions that resolve to a literal or a symbol.
  size_t numResolvedLoads() const { return NumResolvedLoads; }

private:
  std::vector<ProcCopyProp> Procs;
  size_t NumResolvedLoads = 0;
};

} // namespace ipcp

#endif // IPCP_ANALYSIS_COPYPROP_H
