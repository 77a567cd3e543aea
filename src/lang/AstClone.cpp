//===- lang/AstClone.cpp - Deep AST cloning -------------------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/AstClone.h"

#include <cassert>

using namespace ipcp;

static const std::string &substName(const NameSubst &Subst,
                                    const std::string &Name) {
  auto It = Subst.find(Name);
  return It == Subst.end() ? Name : It->second;
}

VarRefExpr *ipcp::cloneVarRef(AstContext &Ctx, const VarRefExpr *V,
                              const NameSubst &Subst) {
  return Ctx.createExpr<VarRefExpr>(V->loc(), substName(Subst, V->name()));
}

Expr *ipcp::cloneExpr(AstContext &Ctx, const Expr *E,
                      const NameSubst &Subst) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return Ctx.createExpr<IntLitExpr>(E->loc(),
                                      cast<IntLitExpr>(E)->value());
  case ExprKind::VarRef:
    return cloneVarRef(Ctx, cast<VarRefExpr>(E), Subst);
  case ExprKind::ArrayRef: {
    const auto *A = cast<ArrayRefExpr>(E);
    return Ctx.createExpr<ArrayRefExpr>(A->loc(),
                                        substName(Subst, A->name()),
                                        cloneExpr(Ctx, A->index(), Subst));
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    return Ctx.createExpr<UnaryExpr>(U->loc(), U->op(),
                                     cloneExpr(Ctx, U->operand(), Subst));
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return Ctx.createExpr<BinaryExpr>(B->loc(), B->op(),
                                      cloneExpr(Ctx, B->lhs(), Subst),
                                      cloneExpr(Ctx, B->rhs(), Subst));
  }
  }
  assert(false && "unknown expression kind");
  return nullptr;
}

Stmt *ipcp::cloneStmt(AstContext &Ctx, const Stmt *S,
                      const NameSubst &Subst) {
  switch (S->kind()) {
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    return Ctx.createStmt<AssignStmt>(A->loc(),
                                      cloneExpr(Ctx, A->target(), Subst),
                                      cloneExpr(Ctx, A->value(), Subst));
  }
  case StmtKind::Call: {
    const auto *C = cast<CallStmt>(S);
    std::vector<Expr *> Args;
    for (const Expr *Arg : C->args())
      Args.push_back(cloneExpr(Ctx, Arg, Subst));
    return Ctx.createStmt<CallStmt>(C->loc(), C->calleeName(),
                                    std::move(Args));
  }
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(S);
    return Ctx.createStmt<IfStmt>(I->loc(),
                                  cloneExpr(Ctx, I->cond(), Subst),
                                  cloneStmts(Ctx, I->thenBody(), Subst),
                                  cloneStmts(Ctx, I->elseBody(), Subst));
  }
  case StmtKind::While: {
    const auto *W = cast<WhileStmt>(S);
    return Ctx.createStmt<WhileStmt>(W->loc(),
                                     cloneExpr(Ctx, W->cond(), Subst),
                                     cloneStmts(Ctx, W->body(), Subst));
  }
  case StmtKind::DoLoop: {
    const auto *D = cast<DoLoopStmt>(S);
    return Ctx.createStmt<DoLoopStmt>(
        D->loc(), cloneVarRef(Ctx, D->var(), Subst),
        cloneExpr(Ctx, D->lo(), Subst), cloneExpr(Ctx, D->hi(), Subst),
        D->step() ? cloneExpr(Ctx, D->step(), Subst) : nullptr,
        cloneStmts(Ctx, D->body(), Subst));
  }
  case StmtKind::Print:
    return Ctx.createStmt<PrintStmt>(
        S->loc(), cloneExpr(Ctx, cast<PrintStmt>(S)->value(), Subst));
  case StmtKind::Read:
    return Ctx.createStmt<ReadStmt>(
        S->loc(), cloneVarRef(Ctx, cast<ReadStmt>(S)->target(), Subst));
  case StmtKind::Return:
    return Ctx.createStmt<ReturnStmt>(S->loc());
  }
  assert(false && "unknown statement kind");
  return nullptr;
}

std::vector<Stmt *> ipcp::cloneStmts(AstContext &Ctx,
                                     const std::vector<Stmt *> &Stmts,
                                     const NameSubst &Subst) {
  std::vector<Stmt *> Out;
  Out.reserve(Stmts.size());
  for (const Stmt *S : Stmts)
    Out.push_back(cloneStmt(Ctx, S, Subst));
  return Out;
}

namespace {

/// Verbatim cloning with resolved bindings. With KeepIds every clone takes
/// its source node's id (whole-program clones, where the ids stay
/// unique); otherwise the destination assigns fresh ones.
class ResolvedCloner {
public:
  ResolvedCloner(AstContext &Ctx, bool KeepIds) : Ctx(Ctx), KeepIds(KeepIds) {}

  VarRefExpr *varRef(const VarRefExpr *V) {
    VarRefExpr *Clone = makeExpr<VarRefExpr>(V, V->name());
    Clone->setSymbol(V->symbol());
    return Clone;
  }

  Expr *expr(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return makeExpr<IntLitExpr>(E, cast<IntLitExpr>(E)->value());
    case ExprKind::VarRef:
      return varRef(cast<VarRefExpr>(E));
    case ExprKind::ArrayRef: {
      const auto *A = cast<ArrayRefExpr>(E);
      auto *Clone = makeExpr<ArrayRefExpr>(A, A->name(), expr(A->index()));
      Clone->setSymbol(A->symbol());
      return Clone;
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      return makeExpr<UnaryExpr>(U, U->op(), expr(U->operand()));
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      Expr *Lhs = expr(B->lhs());
      return makeExpr<BinaryExpr>(B, B->op(), Lhs, expr(B->rhs()));
    }
    }
    assert(false && "unknown expression kind");
    return nullptr;
  }

  Stmt *stmt(const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      Expr *Target = expr(A->target());
      return makeStmt<AssignStmt>(A, Target, expr(A->value()));
    }
    case StmtKind::Call: {
      const auto *C = cast<CallStmt>(S);
      std::vector<Expr *> Args;
      for (const Expr *Arg : C->args())
        Args.push_back(expr(Arg));
      auto *Clone = makeStmt<CallStmt>(C, C->calleeName(), std::move(Args));
      Clone->setCallee(C->callee());
      return Clone;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      Expr *Cond = expr(I->cond());
      std::vector<Stmt *> Then = stmts(I->thenBody());
      return makeStmt<IfStmt>(I, Cond, std::move(Then),
                              stmts(I->elseBody()));
    }
    case StmtKind::While: {
      const auto *W = cast<WhileStmt>(S);
      Expr *Cond = expr(W->cond());
      return makeStmt<WhileStmt>(W, Cond, stmts(W->body()));
    }
    case StmtKind::DoLoop: {
      const auto *D = cast<DoLoopStmt>(S);
      VarRefExpr *Var = varRef(D->var());
      Expr *Lo = expr(D->lo());
      Expr *Hi = expr(D->hi());
      Expr *Step = D->step() ? expr(D->step()) : nullptr;
      return makeStmt<DoLoopStmt>(D, Var, Lo, Hi, Step, stmts(D->body()));
    }
    case StmtKind::Print:
      return makeStmt<PrintStmt>(S, expr(cast<PrintStmt>(S)->value()));
    case StmtKind::Read:
      return makeStmt<ReadStmt>(S, varRef(cast<ReadStmt>(S)->target()));
    case StmtKind::Return:
      return makeStmt<ReturnStmt>(S);
    }
    assert(false && "unknown statement kind");
    return nullptr;
  }

  std::vector<Stmt *> stmts(const std::vector<Stmt *> &Stmts) {
    std::vector<Stmt *> Out;
    Out.reserve(Stmts.size());
    for (const Stmt *S : Stmts)
      Out.push_back(stmt(S));
    return Out;
  }

private:
  template <typename T, typename... Args>
  T *makeExpr(const Expr *Src, Args &&...Rest) {
    return KeepIds ? Ctx.createExprWithId<T>(Src->id(), Src->loc(),
                                             std::forward<Args>(Rest)...)
                   : Ctx.createExpr<T>(Src->loc(),
                                       std::forward<Args>(Rest)...);
  }

  template <typename T, typename... Args>
  T *makeStmt(const Stmt *Src, Args &&...Rest) {
    return KeepIds ? Ctx.createStmtWithId<T>(Src->id(), Src->loc(),
                                             std::forward<Args>(Rest)...)
                   : Ctx.createStmt<T>(Src->loc(),
                                       std::forward<Args>(Rest)...);
  }

  AstContext &Ctx;
  bool KeepIds;
};

} // namespace

VarRefExpr *ipcp::cloneVarRefResolved(AstContext &Ctx,
                                      const VarRefExpr *V) {
  return ResolvedCloner(Ctx, /*KeepIds=*/false).varRef(V);
}

Expr *ipcp::cloneExprResolved(AstContext &Ctx, const Expr *E) {
  return ResolvedCloner(Ctx, /*KeepIds=*/false).expr(E);
}

std::unique_ptr<AstContext> ipcp::cloneProgramResolved(const AstContext &Src) {
  auto Dst = std::make_unique<AstContext>();
  ResolvedCloner Cloner(*Dst, /*KeepIds=*/true);
  const Program &From = Src.program();
  Program &To = Dst->program();
  To.Name = From.Name;
  To.Globals = From.Globals;
  To.GlobalArrays = From.GlobalArrays;
  To.Procs.reserve(From.Procs.size());
  for (const auto &P : From.Procs) {
    auto Clone = std::make_unique<Proc>(P->loc(), P->name(), P->formals());
    Clone->Locals = P->Locals;
    Clone->LocalArrays = P->LocalArrays;
    Clone->FormalSymbols = P->FormalSymbols;
    Clone->LocalSymbols = P->LocalSymbols;
    Clone->Body = Cloner.stmts(P->Body);
    To.Procs.push_back(std::move(Clone));
  }
  Dst->continueIdsFrom(Src);
  return Dst;
}
