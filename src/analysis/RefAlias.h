//===- analysis/RefAlias.h - Call-by-reference alias analysis ---*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// May-alias analysis for call-by-reference formal parameters, in the
/// style of Cooper's alias analysis for FORTRAN (the companion problem
/// the paper's MOD computation builds on). A plain variable actual binds
/// the callee formal *by reference*, so the formal and the variable name
/// the same location for that activation:
///
///   * passing a global G into formal F makes F ~ G inside the callee;
///   * passing the same variable into two formals makes them alias each
///     other;
///   * passing a formal onward propagates whatever it may be bound to.
///
/// Per-procedure constant propagation (SCCP substitution, value numbering
/// for jump functions) tracks each symbol's definitions independently, so
/// an aliased pair is only safe when neither member is modified: a store
/// through one name silently changes the value of the other. This
/// analysis computes, per procedure, the set of *unstable* symbols —
/// members of a may-alias pair where either member may be modified (using
/// interprocedural MOD summaries when available, worst-case otherwise).
/// Analyses must treat every definition of an unstable symbol, including
/// its entry value, as unknowable.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_ANALYSIS_REFALIAS_H
#define IPCP_ANALYSIS_REFALIAS_H

#include "analysis/ModRef.h"
#include "ir/Function.h"

#include <cstddef>
#include <vector>

namespace ipcp {

/// Per-procedure unstable-symbol masks derived from by-reference alias
/// pairs. See the file comment for the definition of "unstable".
class RefAliasInfo {
public:
  /// Computes alias pairs for every procedure of \p M. \p MRI refines
  /// "may be modified"; when null every aliased symbol is unstable.
  RefAliasInfo(const Module &M, const SymbolTable &Symbols,
               const ModRefInfo *MRI);

  /// Mask over SymbolIds: nonzero entries are unstable within \p P.
  const std::vector<uint8_t> &unstableMask(ProcId P) const {
    return Unstable.at(P);
  }

  bool unstable(ProcId P, SymbolId Sym) const {
    return Unstable.at(P).at(Sym) != 0;
  }

  /// True if unstableMask(P) has any entry set.
  bool anyUnstable(ProcId P) const { return AnyUnstable.at(P) != 0; }

  /// Number of distinct may-alias pairs found across the program.
  size_t numAliasPairs() const { return NumAliasPairs; }

  /// Number of (procedure, symbol) entries marked unstable.
  size_t numUnstable() const { return NumUnstable; }

private:
  std::vector<std::vector<uint8_t>> Unstable;
  std::vector<uint8_t> AnyUnstable;
  size_t NumAliasPairs = 0;
  size_t NumUnstable = 0;
};

} // namespace ipcp

#endif // IPCP_ANALYSIS_REFALIAS_H
