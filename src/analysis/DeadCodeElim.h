//===- analysis/DeadCodeElim.h - Branch-driven dead code removal -*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source-level dead-code elimination driven by constant branch
/// conditions, the DCE half of the paper's "complete propagation"
/// experiment (Table 3, column 3): after an IPCP round, branches whose
/// conditions the seeded SCCP proved constant are folded in the AST, and
/// the entire analysis re-runs from scratch on the smaller program.
/// Removing a dead arm can delete conflicting definitions and calls,
/// which is precisely what exposes additional constants.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_ANALYSIS_DEADCODEELIM_H
#define IPCP_ANALYSIS_DEADCODEELIM_H

#include "lang/Ast.h"

#include <unordered_map>
#include <vector>

namespace ipcp {

/// Folds statically-decided branches in a program's AST.
class DeadCodeElim {
public:
  /// Branch decisions: source statement id of an If/While/DoLoop whose
  /// condition is a known constant, mapped to taken-is-true.
  using Decisions = std::unordered_map<StmtId, bool>;

  /// Rewrites every procedure body of \p Ctx's program in place:
  ///  * an If with a known condition is replaced by its taken arm;
  ///  * a While with a known-false condition is deleted;
  ///  * a DoLoop with a known-false header test (zero iterations) is
  ///    replaced by the loop-variable initialization it still performs.
  /// Known-true loop conditions are left alone (the loop body still
  /// executes). Returns the number of statements folded.
  ///
  /// With a non-null \p DirtyProcs, appends (in ProcId order) the ids of
  /// the procedures whose bodies the pass structurally changed — i.e.
  /// folded at least one statement in. A procedure outside this set has
  /// the exact same statement tree as before the call, so incremental
  /// callers (AnalysisSession) can keep its lowered IR.
  static unsigned run(AstContext &Ctx, const Decisions &Decisions,
                      std::vector<ProcId> *DirtyProcs = nullptr);

  /// True iff run() would fold at least one statement of \p Prog, which
  /// is left untouched (complete propagation clones a shared program only
  /// when it must).
  static bool wouldFold(const Program &Prog, const Decisions &Decisions);
};

} // namespace ipcp

#endif // IPCP_ANALYSIS_DEADCODEELIM_H
