//===- lang/AstClone.h - Deep AST cloning -----------------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deep cloning of statement trees with optional name substitution. The
/// procedure integrator (Inliner) clones callee bodies with renamed
/// locals; the cloning transform duplicates whole procedures verbatim.
/// Cloned nodes get fresh ids from the destination context; resolved
/// symbols are NOT copied — clone consumers re-run Sema (typically by
/// printing and re-parsing). The *Resolved variants below copy the
/// bindings instead, and cloneProgramResolved also keeps the ids.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_LANG_ASTCLONE_H
#define IPCP_LANG_ASTCLONE_H

#include "lang/Ast.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace ipcp {

/// Variable/array renaming applied during cloning (empty = verbatim).
using NameSubst = std::unordered_map<std::string, std::string>;

/// Clones \p E into \p Ctx, renaming identifiers through \p Subst.
Expr *cloneExpr(AstContext &Ctx, const Expr *E, const NameSubst &Subst);

/// Clones \p V (keeping it a VarRefExpr) into \p Ctx.
VarRefExpr *cloneVarRef(AstContext &Ctx, const VarRefExpr *V,
                        const NameSubst &Subst);

/// Clones a statement tree into \p Ctx. Call statements are cloned with
/// their callee names unchanged.
Stmt *cloneStmt(AstContext &Ctx, const Stmt *S, const NameSubst &Subst);

/// Clones a statement list into \p Ctx.
std::vector<Stmt *> cloneStmts(AstContext &Ctx,
                               const std::vector<Stmt *> &Stmts,
                               const NameSubst &Subst);

/// Clones \p E verbatim (no renaming) and copies the resolved symbol
/// bindings onto the fresh nodes, so consumers that rewrite an
/// already-checked AST in place (e.g. dead-code elimination) get
/// alias-free trees without re-running Sema.
Expr *cloneExprResolved(AstContext &Ctx, const Expr *E);

/// Clones \p V (keeping it a VarRefExpr) with its resolved symbol.
VarRefExpr *cloneVarRefResolved(AstContext &Ctx, const VarRefExpr *V);

/// Deep-copies a whole checked program into a fresh AstContext,
/// preserving every resolved symbol binding and callee id. The clone
/// shares the source program's SymbolTable (symbol ids are copied, not
/// re-derived), so mutating passes like dead-code elimination can run on
/// the copy while other readers keep analyzing the original. Expression
/// and statement ids are preserved too, and the clone hands out new ids
/// where the source would: results keyed by the source's ids (branch
/// decisions, substitution maps) apply to the clone unchanged, and a pass
/// run on the clone assigns the ids it would have assigned in place.
std::unique_ptr<AstContext> cloneProgramResolved(const AstContext &Src);

} // namespace ipcp

#endif // IPCP_LANG_ASTCLONE_H
