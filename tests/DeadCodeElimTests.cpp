//===- tests/DeadCodeElimTests.cpp - analysis/DeadCodeElim tests ----------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/DeadCodeElim.h"

#include "lang/AstClone.h"
#include "lang/AstPrinter.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Finds the first statement of kind \p K in \p Stmts (recursively).
const Stmt *findStmt(const std::vector<Stmt *> &Stmts, StmtKind K) {
  for (const Stmt *S : Stmts) {
    if (S->kind() == K)
      return S;
    if (const auto *I = dyn_cast<IfStmt>(S)) {
      if (const Stmt *Found = findStmt(I->thenBody(), K))
        return Found;
      if (const Stmt *Found = findStmt(I->elseBody(), K))
        return Found;
    } else if (const auto *W = dyn_cast<WhileStmt>(S)) {
      if (const Stmt *Found = findStmt(W->body(), K))
        return Found;
    } else if (const auto *D = dyn_cast<DoLoopStmt>(S)) {
      if (const Stmt *Found = findStmt(D->body(), K))
        return Found;
    }
  }
  return nullptr;
}

std::string printed(AstContext &Ctx) {
  AstPrinter Printer;
  return Printer.programToString(Ctx.program());
}

/// Every expression and statement id of \p E / \p Stmts, in pre-order.
void collectIds(const Expr *E, std::vector<uint32_t> &Out) {
  Out.push_back(E->id());
  if (const auto *A = dyn_cast<ArrayRefExpr>(E)) {
    collectIds(A->index(), Out);
  } else if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    collectIds(U->operand(), Out);
  } else if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    collectIds(B->lhs(), Out);
    collectIds(B->rhs(), Out);
  }
}

void collectIds(const std::vector<Stmt *> &Stmts, std::vector<uint32_t> &Out) {
  for (const Stmt *S : Stmts) {
    Out.push_back(S->id());
    if (const auto *A = dyn_cast<AssignStmt>(S)) {
      collectIds(A->target(), Out);
      collectIds(A->value(), Out);
    } else if (const auto *C = dyn_cast<CallStmt>(S)) {
      for (const Expr *Arg : C->args())
        collectIds(Arg, Out);
    } else if (const auto *I = dyn_cast<IfStmt>(S)) {
      collectIds(I->cond(), Out);
      collectIds(I->thenBody(), Out);
      collectIds(I->elseBody(), Out);
    } else if (const auto *W = dyn_cast<WhileStmt>(S)) {
      collectIds(W->cond(), Out);
      collectIds(W->body(), Out);
    } else if (const auto *D = dyn_cast<DoLoopStmt>(S)) {
      collectIds(D->var(), Out);
      collectIds(D->lo(), Out);
      collectIds(D->hi(), Out);
      if (D->step())
        collectIds(D->step(), Out);
      collectIds(D->body(), Out);
    } else if (const auto *P = dyn_cast<PrintStmt>(S)) {
      collectIds(P->value(), Out);
    } else if (const auto *R = dyn_cast<ReadStmt>(S)) {
      collectIds(R->target(), Out);
    }
  }
}

std::vector<uint32_t> allIds(const AstContext &Ctx) {
  std::vector<uint32_t> Out;
  for (const auto &P : Ctx.program().Procs)
    collectIds(P->Body, Out);
  return Out;
}

} // namespace

TEST(DeadCodeElim, FoldsIfToThenArm) {
  auto Ctx = parseOk(R"(proc main()
  integer x
  x = 1
  if (x == 1) then
    print 10
  else
    print 20
  end if
end
)");
  const Stmt *If = findStmt(Ctx->program().Procs[0]->Body, StmtKind::If);
  DeadCodeElim::Decisions D{{If->id(), true}};
  EXPECT_EQ(DeadCodeElim::run(*Ctx, D), 1u);
  std::string Out = printed(*Ctx);
  EXPECT_NE(Out.find("print 10"), std::string::npos);
  EXPECT_EQ(Out.find("print 20"), std::string::npos);
  EXPECT_EQ(Out.find("if ("), std::string::npos);
}

TEST(DeadCodeElim, FoldsIfToElseArm) {
  auto Ctx = parseOk(R"(proc main()
  integer x
  x = 2
  if (x == 1) then
    print 10
  else
    print 20
  end if
end
)");
  const Stmt *If = findStmt(Ctx->program().Procs[0]->Body, StmtKind::If);
  DeadCodeElim::Decisions D{{If->id(), false}};
  DeadCodeElim::run(*Ctx, D);
  std::string Out = printed(*Ctx);
  EXPECT_EQ(Out.find("print 10"), std::string::npos);
  EXPECT_NE(Out.find("print 20"), std::string::npos);
}

TEST(DeadCodeElim, FalseIfWithoutElseVanishes) {
  auto Ctx = parseOk(R"(proc main()
  integer x
  x = 2
  if (x == 1) then
    print 10
  end if
  print 99
end
)");
  const Stmt *If = findStmt(Ctx->program().Procs[0]->Body, StmtKind::If);
  DeadCodeElim::Decisions D{{If->id(), false}};
  DeadCodeElim::run(*Ctx, D);
  std::string Out = printed(*Ctx);
  EXPECT_EQ(Out.find("print 10"), std::string::npos);
  EXPECT_NE(Out.find("print 99"), std::string::npos);
}

TEST(DeadCodeElim, RemovesFalseWhile) {
  auto Ctx = parseOk(R"(proc main()
  integer x
  x = 0
  while (x > 0)
    print 1
  end while
  print 2
end
)");
  const Stmt *W =
      findStmt(Ctx->program().Procs[0]->Body, StmtKind::While);
  DeadCodeElim::Decisions D{{W->id(), false}};
  EXPECT_EQ(DeadCodeElim::run(*Ctx, D), 1u);
  std::string Out = printed(*Ctx);
  EXPECT_EQ(Out.find("while"), std::string::npos);
  EXPECT_NE(Out.find("print 2"), std::string::npos);
}

TEST(DeadCodeElim, KeepsTrueWhile) {
  auto Ctx = parseOk(R"(proc main()
  integer x
  x = 1
  while (x > 0)
    x = x - 1
  end while
end
)");
  const Stmt *W =
      findStmt(Ctx->program().Procs[0]->Body, StmtKind::While);
  DeadCodeElim::Decisions D{{W->id(), true}};
  EXPECT_EQ(DeadCodeElim::run(*Ctx, D), 0u);
  EXPECT_NE(printed(*Ctx).find("while"), std::string::npos);
}

TEST(DeadCodeElim, ZeroTripDoKeepsInduction) {
  auto Ctx = parseOk(R"(proc main()
  integer i
  do i = 5, 1
    print i
  end do
  print i
end
)");
  const Stmt *Loop =
      findStmt(Ctx->program().Procs[0]->Body, StmtKind::DoLoop);
  DeadCodeElim::Decisions D{{Loop->id(), false}};
  EXPECT_EQ(DeadCodeElim::run(*Ctx, D), 1u);
  std::string Out = printed(*Ctx);
  EXPECT_EQ(Out.find("do i"), std::string::npos);
  // The induction variable still receives its initial value.
  EXPECT_NE(Out.find("i = 5"), std::string::npos);
}

TEST(DeadCodeElim, ZeroTripDoFoldClonesNodes) {
  // Regression: the fold used to reuse the loop's var and lo nodes in
  // the replacement assignment, aliasing the live tree with the
  // detached DoLoopStmt. The nodes must be fresh clones that keep
  // their resolved symbols (complete propagation re-lowers the folded
  // AST without re-running Sema).
  auto A = analyze(R"(proc main()
  integer i, k
  k = 3
  do i = k + 2, 1
    print i
  end do
  print i
end
)");
  auto &Ctx = *A.Ctx;
  const auto *Loop = cast<DoLoopStmt>(
      findStmt(Ctx.program().Procs[0]->Body, StmtKind::DoLoop));
  const VarRefExpr *LoopVar = Loop->var();
  const Expr *LoopLo = Loop->lo();
  ASSERT_NE(LoopVar->symbol(), UINT32_MAX) << "Sema must have resolved";

  DeadCodeElim::Decisions D{{Loop->id(), false}};
  EXPECT_EQ(DeadCodeElim::run(Ctx, D), 1u);

  const auto *Assign = cast<AssignStmt>(
      findStmt(Ctx.program().Procs[0]->Body, StmtKind::Assign));
  ASSERT_NE(Assign, nullptr);
  // The first assign in the body is 'k = 3'; find the folded one by
  // its target symbol.
  const AssignStmt *FoldedAssign = nullptr;
  for (const Stmt *S : Ctx.program().Procs[0]->Body)
    if (const auto *AS = dyn_cast<AssignStmt>(S))
      if (const auto *T = dyn_cast<VarRefExpr>(AS->target()))
        if (T->symbol() == LoopVar->symbol())
          FoldedAssign = AS;
  ASSERT_NE(FoldedAssign, nullptr);
  EXPECT_NE(FoldedAssign->target(), static_cast<const Expr *>(LoopVar))
      << "target must be a clone, not the loop's own var node";
  EXPECT_NE(FoldedAssign->value(), LoopLo)
      << "value must be a clone, not the loop's own lo node";
  // The clones carry the resolved symbols, and fresh ids.
  EXPECT_EQ(cast<VarRefExpr>(FoldedAssign->target())->symbol(),
            LoopVar->symbol());
  EXPECT_NE(FoldedAssign->target()->id(), LoopVar->id());

  // The folded AST must survive re-printing and a second DCE pass —
  // the operations complete propagation performs each round.
  std::string Out = printed(Ctx);
  EXPECT_EQ(Out.find("do i"), std::string::npos);
  parseOk(Out);
  DeadCodeElim::Decisions None;
  EXPECT_EQ(DeadCodeElim::run(Ctx, None), 0u);
  EXPECT_EQ(printed(Ctx), Out);
}

TEST(DeadCodeElim, ZeroTripDoFoldBlockedByTrappingStep) {
  // The trip test's lo/hi were proven constant by the analysis, but
  // the step expression is outside that proof: it is evaluated once
  // at loop entry and may trap, so a potentially trapping step blocks
  // the fold.
  auto Ctx = parseOk(R"(proc main()
  integer i, z
  do i = 10, 2, 1 / z
    print i
  end do
  print i
end
)");
  const Stmt *Loop =
      findStmt(Ctx->program().Procs[0]->Body, StmtKind::DoLoop);
  DeadCodeElim::Decisions D{{Loop->id(), false}};
  EXPECT_EQ(DeadCodeElim::run(*Ctx, D), 0u);
  EXPECT_NE(printed(*Ctx).find("do i"), std::string::npos)
      << "loop with trapping step must be retained";
}

TEST(DeadCodeElim, ZeroTripDoFoldAllowedForSafeStep) {
  // A step built only from literals, variables, +, -, * cannot trap;
  // the fold proceeds.
  auto Ctx = parseOk(R"(proc main()
  integer i, s
  do i = 10, 2, s + 1
    print i
  end do
  print i
end
)");
  const Stmt *Loop =
      findStmt(Ctx->program().Procs[0]->Body, StmtKind::DoLoop);
  DeadCodeElim::Decisions D{{Loop->id(), false}};
  EXPECT_EQ(DeadCodeElim::run(*Ctx, D), 1u);
  EXPECT_EQ(printed(*Ctx).find("do i"), std::string::npos);
}

TEST(DeadCodeElim, FoldsNestedBranches) {
  auto Ctx = parseOk(R"(proc main()
  integer a, b
  a = 1
  b = 0
  if (a == 1) then
    if (b == 1) then
      print 1
    else
      print 2
    end if
  end if
end
)");
  const auto &Body = Ctx->program().Procs[0]->Body;
  const Stmt *Outer = findStmt(Body, StmtKind::If);
  const auto *OuterIf = cast<IfStmt>(Outer);
  const Stmt *Inner = findStmt(OuterIf->thenBody(), StmtKind::If);
  DeadCodeElim::Decisions D{{Outer->id(), true}, {Inner->id(), false}};
  EXPECT_EQ(DeadCodeElim::run(*Ctx, D), 2u);
  std::string Out = printed(*Ctx);
  EXPECT_EQ(Out.find("print 1"), std::string::npos);
  EXPECT_NE(Out.find("print 2"), std::string::npos);
  EXPECT_EQ(Out.find("if"), std::string::npos);
}

TEST(DeadCodeElim, UntouchedWithoutDecisions) {
  auto Ctx = parseOk(R"(proc main()
  integer x
  read x
  if (x == 1) then
    print 1
  end if
end
)");
  std::string Before = printed(*Ctx);
  DeadCodeElim::Decisions D;
  EXPECT_EQ(DeadCodeElim::run(*Ctx, D), 0u);
  EXPECT_EQ(printed(*Ctx), Before);
}

TEST(DeadCodeElim, ResultStillParses) {
  auto Ctx = parseOk(R"(proc main()
  integer x
  x = 1
  if (x == 1) then
    while (x > 5)
      print 1
    end while
  else
    print 2
  end if
end
)");
  const Stmt *If = findStmt(Ctx->program().Procs[0]->Body, StmtKind::If);
  const Stmt *W = findStmt(cast<IfStmt>(If)->thenBody(), StmtKind::While);
  DeadCodeElim::Decisions D{{If->id(), true}, {W->id(), false}};
  DeadCodeElim::run(*Ctx, D);
  parseOk(printed(*Ctx)); // Must remain valid MiniFort.
}

TEST(DeadCodeElim, WouldFoldAgreesWithRun) {
  // wouldFold is run's dry run: the same three folding rules, nothing
  // rewritten.
  const char *Source = R"(proc main()
  integer i, x, z
  x = 1
  while (x > 0)
    x = x - 1
  end while
  do i = 10, 2, 1 / z
    print i
  end do
  if (x == 1) then
    do i = 5, 1
      print i
    end do
  end if
end
)";
  auto Probe = parseOk(Source);
  const auto &Body = Probe->program().Procs[0]->Body;
  StmtId While = findStmt(Body, StmtKind::While)->id();
  StmtId TrappingDo = findStmt(Body, StmtKind::DoLoop)->id();
  StmtId If = findStmt(Body, StmtKind::If)->id();
  StmtId InnerDo =
      findStmt(cast<IfStmt>(findStmt(Body, StmtKind::If))->thenBody(),
               StmtKind::DoLoop)
          ->id();
  std::vector<DeadCodeElim::Decisions> Cases = {
      {},
      {{While, true}},                    // Known-true loop: kept.
      {{TrappingDo, false}},              // Trapping step: kept.
      {{While, true}, {TrappingDo, false}},
      {{While, false}},                   // Known-false loop: folds.
      {{InnerDo, false}},                 // Nested zero-trip DO: folds.
      {{If, false}, {While, true}},       // Any If decision folds.
  };
  for (size_t I = 0; I != Cases.size(); ++I) {
    auto Ctx = parseOk(Source);
    std::string Before = printed(*Ctx);
    bool Would = DeadCodeElim::wouldFold(Ctx->program(), Cases[I]);
    EXPECT_EQ(printed(*Ctx), Before) << "case " << I;
    EXPECT_EQ(Would, DeadCodeElim::run(*Ctx, Cases[I]) != 0) << "case " << I;
  }
}

TEST(DeadCodeElim, IdPreservingCloneFoldsLikeTheOriginal) {
  // An in-place zero-trip fold gives its new assignment a fresh id in
  // the middle of the tree, so ids no longer follow tree order. A clone
  // must still keep every id, hand out the ids the original would next,
  // and fold a later round's decisions exactly as the original does.
  auto Ctx = parseOk(R"(proc main()
  integer i, x
  x = 0
  do i = 5, 1
    print i
  end do
  if (x == 0) then
    print i + x
  else
    do i = 3, 1
      print i
    end do
  end if
end
)");
  const auto &Body = Ctx->program().Procs[0]->Body;
  const Stmt *If = findStmt(Body, StmtKind::If);
  DeadCodeElim::Decisions First{{findStmt(Body, StmtKind::DoLoop)->id(),
                                 false}};
  ASSERT_EQ(DeadCodeElim::run(*Ctx, First), 1u);

  auto Clone = cloneProgramResolved(*Ctx);
  EXPECT_EQ(allIds(*Clone), allIds(*Ctx));
  EXPECT_EQ(Clone->numExprIds(), Ctx->numExprIds());
  EXPECT_EQ(Clone->numStmtIds(), Ctx->numStmtIds());

  const Stmt *ElseDo =
      findStmt(cast<IfStmt>(If)->elseBody(), StmtKind::DoLoop);
  DeadCodeElim::Decisions Second{{ElseDo->id(), false}, {If->id(), false}};
  EXPECT_EQ(DeadCodeElim::run(*Clone, Second),
            DeadCodeElim::run(*Ctx, Second));
  EXPECT_EQ(printed(*Clone), printed(*Ctx));
  EXPECT_EQ(allIds(*Clone), allIds(*Ctx));
}
