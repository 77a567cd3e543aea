//===- analysis/DeadCodeElim.cpp - Branch-driven dead code removal --------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/DeadCodeElim.h"

#include "lang/AstClone.h"
#include "support/Casting.h"

using namespace ipcp;

namespace {

/// Whether evaluating \p E can trap at runtime (divide/modulo by zero,
/// array index out of bounds). The analyzer proves the loop never
/// *iterates* from lo/hi alone; a trapping step expression would still
/// be evaluated once before the trip test, so the fold must keep it.
bool mayTrap(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::VarRef:
    return false;
  case ExprKind::ArrayRef:
    return true;
  case ExprKind::Unary:
    return mayTrap(cast<UnaryExpr>(E)->operand());
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->op() == BinaryOp::Div || B->op() == BinaryOp::Mod)
      return true;
    return mayTrap(B->lhs()) || mayTrap(B->rhs());
  }
  }
  return true;
}

/// Whether \p S folds under \p Decisions: an If with a known condition,
/// a While with a known-false one, or a DoLoop with a known-false header
/// test whose step cannot trap (see Rewriter::rewriteInto).
bool folds(const Stmt *S, const DeadCodeElim::Decisions &Decisions) {
  auto It = Decisions.find(S->id());
  if (It == Decisions.end())
    return false;
  switch (S->kind()) {
  case StmtKind::If:
    return true;
  case StmtKind::While:
    return !It->second;
  case StmtKind::DoLoop: {
    const Expr *Step = cast<DoLoopStmt>(S)->step();
    return !It->second && !(Step && mayTrap(Step));
  }
  default:
    return false;
  }
}

bool anyFolds(const std::vector<Stmt *> &Stmts,
              const DeadCodeElim::Decisions &Decisions) {
  for (const Stmt *S : Stmts) {
    if (folds(S, Decisions))
      return true;
    switch (S->kind()) {
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      if (anyFolds(I->thenBody(), Decisions) ||
          anyFolds(I->elseBody(), Decisions))
        return true;
      break;
    }
    case StmtKind::While:
      if (anyFolds(cast<WhileStmt>(S)->body(), Decisions))
        return true;
      break;
    case StmtKind::DoLoop:
      if (anyFolds(cast<DoLoopStmt>(S)->body(), Decisions))
        return true;
      break;
    default:
      break;
    }
  }
  return false;
}

class Rewriter {
public:
  Rewriter(AstContext &Ctx, const DeadCodeElim::Decisions &Decisions)
      : Ctx(Ctx), Decisions(Decisions) {}

  unsigned folded() const { return Folded; }

  std::vector<Stmt *> rewriteList(const std::vector<Stmt *> &Stmts) {
    std::vector<Stmt *> Out;
    for (Stmt *S : Stmts)
      rewriteInto(S, Out);
    return Out;
  }

private:
  /// Appends the rewritten form of \p S (possibly nothing, possibly the
  /// spliced contents of a folded branch) to \p Out.
  void rewriteInto(Stmt *S, std::vector<Stmt *> &Out) {
    switch (S->kind()) {
    case StmtKind::If: {
      auto *I = cast<IfStmt>(S);
      if (folds(I, Decisions)) {
        ++Folded;
        const auto &Arm =
            Decisions.at(I->id()) ? I->thenBody() : I->elseBody();
        for (Stmt *Inner : rewriteList(Arm))
          Out.push_back(Inner);
        return;
      }
      I->setThenBody(rewriteList(I->thenBody()));
      I->setElseBody(rewriteList(I->elseBody()));
      Out.push_back(I);
      return;
    }
    case StmtKind::While: {
      auto *W = cast<WhileStmt>(S);
      if (folds(W, Decisions)) {
        ++Folded; // Loop body never executes.
        return;
      }
      W->setBody(rewriteList(W->body()));
      Out.push_back(W);
      return;
    }
    case StmtKind::DoLoop: {
      auto *D = cast<DoLoopStmt>(S);
      if (folds(D, Decisions)) {
        // Zero-trip loop: only the loop-variable initialization remains.
        // The trip test's operands (lo, hi) were proven constant, so
        // dropping their evaluation is trap-free; the step expression is
        // outside that proof, so a possibly-trapping step blocks the
        // fold (see folds()). The var and lo nodes are cloned — reusing
        // them would alias the retained DoLoopStmt's children, and later
        // passes (printing, a second DCE round) walk both trees.
        ++Folded;
        Out.push_back(Ctx.createStmt<AssignStmt>(
            D->loc(), cloneVarRefResolved(Ctx, D->var()),
            cloneExprResolved(Ctx, D->lo())));
        return;
      }
      D->setBody(rewriteList(D->body()));
      Out.push_back(D);
      return;
    }
    default:
      Out.push_back(S);
      return;
    }
  }

  AstContext &Ctx;
  const DeadCodeElim::Decisions &Decisions;
  unsigned Folded = 0;
};

} // namespace

unsigned DeadCodeElim::run(AstContext &Ctx, const Decisions &Decisions,
                           std::vector<ProcId> *DirtyProcs) {
  Rewriter R(Ctx, Decisions);
  Program &Prog = Ctx.program();
  // A procedure is dirty iff a fold fired inside it: with zero folds the
  // rewrite returns the statement list unchanged (every non-folded case
  // pushes the original node back).
  for (ProcId P = 0, E = static_cast<ProcId>(Prog.Procs.size()); P != E;
       ++P) {
    unsigned Before = R.folded();
    Prog.Procs[P]->Body = R.rewriteList(Prog.Procs[P]->Body);
    if (DirtyProcs && R.folded() != Before)
      DirtyProcs->push_back(P);
  }
  return R.folded();
}

bool DeadCodeElim::wouldFold(const Program &Prog,
                             const Decisions &Decisions) {
  for (const auto &P : Prog.Procs)
    if (anyFolds(P->Body, Decisions))
      return true;
  return false;
}
