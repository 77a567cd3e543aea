//===- tests/ValueNumberingTests.cpp - analysis/ValueNumbering tests ------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/ValueNumbering.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

//===----------------------------------------------------------------------===//
// VnContext: hash-consing, folding, identities.
//===----------------------------------------------------------------------===//

TEST(VnContext, ConstsAreHashConsed) {
  VnContext Ctx;
  EXPECT_EQ(Ctx.getConst(5), Ctx.getConst(5));
  EXPECT_NE(Ctx.getConst(5), Ctx.getConst(6));
}

TEST(VnContext, ParamsAreHashConsed) {
  VnContext Ctx;
  EXPECT_EQ(Ctx.getParam(1), Ctx.getParam(1));
  EXPECT_NE(Ctx.getParam(1), Ctx.getParam(2));
}

TEST(VnContext, OpaquesAreAlwaysFresh) {
  VnContext Ctx;
  EXPECT_NE(Ctx.makeOpaque(), Ctx.makeOpaque());
}

TEST(VnContext, ConstantFolding) {
  VnContext Ctx;
  const VnExpr *E =
      Ctx.getBinary(BinaryOp::Add, Ctx.getConst(2), Ctx.getConst(3));
  ASSERT_TRUE(E->isConst());
  EXPECT_EQ(E->ConstValue, 5);
  EXPECT_EQ(Ctx.getUnary(UnaryOp::Neg, Ctx.getConst(4))->ConstValue, -4);
}

TEST(VnContext, DivisionByZeroFoldsToOpaque) {
  VnContext Ctx;
  const VnExpr *E =
      Ctx.getBinary(BinaryOp::Div, Ctx.getConst(1), Ctx.getConst(0));
  EXPECT_TRUE(E->isOpaque());
  EXPECT_TRUE(Ctx.getBinary(BinaryOp::Mod, Ctx.getConst(1),
                            Ctx.getConst(0))
                  ->isOpaque());
}

TEST(VnContext, IdentitiesPreservePassThrough) {
  VnContext Ctx;
  const VnExpr *X = Ctx.getParam(3);
  EXPECT_EQ(Ctx.getBinary(BinaryOp::Add, X, Ctx.getConst(0)), X);
  EXPECT_EQ(Ctx.getBinary(BinaryOp::Add, Ctx.getConst(0), X), X);
  EXPECT_EQ(Ctx.getBinary(BinaryOp::Sub, X, Ctx.getConst(0)), X);
  EXPECT_EQ(Ctx.getBinary(BinaryOp::Mul, X, Ctx.getConst(1)), X);
  EXPECT_EQ(Ctx.getBinary(BinaryOp::Div, X, Ctx.getConst(1)), X);
}

TEST(VnContext, AnnihilatorsFold) {
  VnContext Ctx;
  const VnExpr *X = Ctx.getParam(3);
  EXPECT_EQ(Ctx.getBinary(BinaryOp::Mul, X, Ctx.getConst(0))->ConstValue,
            0);
  EXPECT_EQ(Ctx.getBinary(BinaryOp::Sub, X, X)->ConstValue, 0);
  EXPECT_EQ(
      Ctx.getBinary(BinaryOp::LogicalAnd, Ctx.getConst(0), X)->ConstValue,
      0);
  EXPECT_EQ(
      Ctx.getBinary(BinaryOp::LogicalOr, Ctx.getConst(9), X)->ConstValue,
      1);
}

TEST(VnContext, OpaqueMinusItselfDoesNotFold) {
  VnContext Ctx;
  const VnExpr *O = Ctx.makeOpaque();
  EXPECT_FALSE(Ctx.getBinary(BinaryOp::Sub, O, O)->isConst());
}

TEST(VnContext, CommutativeCanonicalization) {
  VnContext Ctx;
  const VnExpr *A = Ctx.getParam(1);
  const VnExpr *B = Ctx.getParam(2);
  EXPECT_EQ(Ctx.getBinary(BinaryOp::Add, A, B),
            Ctx.getBinary(BinaryOp::Add, B, A));
  EXPECT_EQ(Ctx.getBinary(BinaryOp::Mul, A, B),
            Ctx.getBinary(BinaryOp::Mul, B, A));
  // Subtraction is not commutative.
  EXPECT_NE(Ctx.getBinary(BinaryOp::Sub, A, B),
            Ctx.getBinary(BinaryOp::Sub, B, A));
}

TEST(VnContext, DoubleNegationCancels) {
  VnContext Ctx;
  const VnExpr *X = Ctx.getParam(1);
  EXPECT_EQ(Ctx.getUnary(UnaryOp::Neg, Ctx.getUnary(UnaryOp::Neg, X)), X);
}

TEST(VnExpr, ParamClassificationAndSupport) {
  VnContext Ctx;
  const VnExpr *Poly = Ctx.getBinary(
      BinaryOp::Add, Ctx.getBinary(BinaryOp::Mul, Ctx.getParam(1),
                                   Ctx.getConst(2)),
      Ctx.getParam(7));
  EXPECT_TRUE(isParamExpr(Poly));
  std::vector<SymbolId> Support;
  collectSupport(Poly, Support);
  EXPECT_EQ(Support.size(), 2u);

  const VnExpr *WithOpaque =
      Ctx.getBinary(BinaryOp::Add, Poly, Ctx.makeOpaque());
  EXPECT_FALSE(isParamExpr(WithOpaque));
}

TEST(VnExpr, SupportDeduplicates) {
  VnContext Ctx;
  const VnExpr *X = Ctx.getParam(4);
  const VnExpr *E = Ctx.getBinary(BinaryOp::Mul, X,
                                  Ctx.getBinary(BinaryOp::Add, X, X));
  std::vector<SymbolId> Support;
  collectSupport(E, Support);
  EXPECT_EQ(Support, std::vector<SymbolId>{4});
}

//===----------------------------------------------------------------------===//
// Whole-procedure value numbering.
//===----------------------------------------------------------------------===//

namespace {

struct VnBundle {
  FullAnalysis A;
  std::unique_ptr<DominatorTree> DT;
  std::unique_ptr<SsaForm> Ssa;
  std::unique_ptr<VnContext> Ctx;
  std::unique_ptr<ValueNumbering> VN;
};

VnBundle buildVn(const std::string &Source, const std::string &Proc,
                 const KillValueFn *KillFn = nullptr,
                 bool Optimistic = false) {
  VnBundle B;
  B.A = analyze(Source);
  const Function &F = B.A.function(Proc);
  B.DT = std::make_unique<DominatorTree>(F);
  B.Ssa = std::make_unique<SsaForm>(
      F, B.A.Symbols, *B.DT, makeKillOracle(B.A.Symbols, B.A.MRI.get()));
  B.Ctx = std::make_unique<VnContext>();
  VnPrecision Prec;
  Prec.Optimistic = Optimistic;
  B.VN = std::make_unique<ValueNumbering>(*B.Ssa, B.A.Symbols, *B.Ctx,
                                          KillFn, nullptr, Prec);
  return B;
}

/// Expression of the symbol's value at function exit.
const VnExpr *exitExpr(const VnBundle &B, SymbolId Sym) {
  const auto &Syms = B.Ssa->exitSymbols();
  for (uint32_t I = 0; I != Syms.size(); ++I)
    if (Syms[I] == Sym)
      return B.VN->exprOf(B.Ssa->exitEnv()[I]);
  ADD_FAILURE() << "symbol not in exit env";
  return nullptr;
}

} // namespace

TEST(ValueNumbering, TracksConstantsThroughArithmetic) {
  VnBundle B = buildVn(R"(proc main()
  call f(1)
end
proc f(x)
  x = 2 * 8
  x = x + 1
end
)",
                       "f");
  const VnExpr *E = exitExpr(B, B.A.symbolIn("f", "x"));
  ASSERT_TRUE(E->isConst());
  EXPECT_EQ(E->ConstValue, 17);
}

TEST(ValueNumbering, UnmodifiedFormalIsParamAtExit) {
  VnBundle B = buildVn(
      "proc main()\n  call f(1)\nend\nproc f(x)\n  print x\nend\n", "f");
  const VnExpr *E = exitExpr(B, B.A.symbolIn("f", "x"));
  ASSERT_TRUE(E->isParam());
  EXPECT_EQ(E->Param, B.A.symbolIn("f", "x"));
}

TEST(ValueNumbering, PolynomialOfFormalsAtExit) {
  VnBundle B = buildVn(R"(proc main()
  call f(1, 2)
end
proc f(a, b)
  a = a * 2 + b - 1
end
)",
                       "f");
  const VnExpr *E = exitExpr(B, B.A.symbolIn("f", "a"));
  EXPECT_TRUE(isParamExpr(E));
  EXPECT_FALSE(E->isConst());
  EXPECT_FALSE(E->isParam());
}

TEST(ValueNumbering, UninitializedLocalIsOpaque) {
  VnBundle B = buildVn(
      "proc main()\n  integer x\n  print x\nend\n", "main");
  SsaId Entry = B.Ssa->entryValue(B.A.symbolIn("main", "x"));
  EXPECT_TRUE(B.VN->exprOf(Entry)->isOpaque());
}

TEST(ValueNumbering, ReadAndLoadAreOpaque) {
  VnBundle B = buildVn(R"(array a(4)
proc main()
  integer x, y
  read x
  y = a(1)
  print x + y
end
)",
                       "main");
  const Function &F = B.A.function("main");
  for (BlockId Blk = 0; Blk != F.numBlocks(); ++Blk) {
    const auto &Instrs = F.block(Blk).Instrs;
    for (uint32_t I = 0; I != Instrs.size(); ++I)
      if (Instrs[I].Op == Opcode::Read || Instrs[I].Op == Opcode::Load)
        EXPECT_TRUE(
            B.VN->exprOf(B.Ssa->instrInfo(Blk, I).DefSsa)->isOpaque());
  }
}

TEST(ValueNumbering, DiamondSameValueCollapses) {
  VnBundle B = buildVn(R"(proc main()
  integer x, c
  read c
  if (c) then
    x = 7
  else
    x = 7
  end if
  print x
end
)",
                       "main");
  // The phi merges two identical constants: the print operand is 7.
  const Function &F = B.A.function("main");
  for (BlockId Blk = 0; Blk != F.numBlocks(); ++Blk) {
    const auto &Instrs = F.block(Blk).Instrs;
    for (uint32_t I = 0; I != Instrs.size(); ++I)
      if (Instrs[I].Op == Opcode::Print) {
        const VnExpr *E = B.VN->exprOfOperand(Blk, I, 0);
        ASSERT_TRUE(E->isConst());
        EXPECT_EQ(E->ConstValue, 7);
      }
  }
}

TEST(ValueNumbering, DiamondDifferentValuesAreOpaque) {
  VnBundle B = buildVn(R"(proc main()
  integer x, c
  read c
  if (c) then
    x = 7
  else
    x = 8
  end if
  print x
end
)",
                       "main");
  const Function &F = B.A.function("main");
  for (BlockId Blk = 0; Blk != F.numBlocks(); ++Blk) {
    const auto &Instrs = F.block(Blk).Instrs;
    for (uint32_t I = 0; I != Instrs.size(); ++I)
      if (Instrs[I].Op == Opcode::Print)
        EXPECT_TRUE(B.VN->exprOfOperand(Blk, I, 0)->isOpaque());
  }
}

TEST(ValueNumbering, CallKillWithoutEvaluatorIsOpaque) {
  VnBundle B = buildVn(R"(global g
proc main()
  g = 1
  call setg()
  print g
end
proc setg()
  g = 2
end
)",
                       "main");
  const Function &F = B.A.function("main");
  for (BlockId Blk = 0; Blk != F.numBlocks(); ++Blk) {
    const auto &Instrs = F.block(Blk).Instrs;
    for (uint32_t I = 0; I != Instrs.size(); ++I)
      if (Instrs[I].Op == Opcode::Print)
        EXPECT_TRUE(B.VN->exprOfOperand(Blk, I, 0)->isOpaque());
  }
}

TEST(ValueNumbering, CallKillWithEvaluatorGetsConstant) {
  // Simulate a return jump function: every kill evaluates to 42.
  KillValueFn KillFn = [](const Instr &, SymbolId,
                          const CallSiteValues &) {
    return std::optional<int64_t>(42);
  };
  VnBundle B = buildVn(R"(global g
proc main()
  g = 1
  call setg()
  print g
end
proc setg()
  g = 2
end
)",
                       "main", &KillFn);
  const Function &F = B.A.function("main");
  for (BlockId Blk = 0; Blk != F.numBlocks(); ++Blk) {
    const auto &Instrs = F.block(Blk).Instrs;
    for (uint32_t I = 0; I != Instrs.size(); ++I)
      if (Instrs[I].Op == Opcode::Print) {
        const VnExpr *E = B.VN->exprOfOperand(Blk, I, 0);
        ASSERT_TRUE(E->isConst());
        EXPECT_EQ(E->ConstValue, 42);
      }
  }
}

TEST(ValueNumbering, CallSiteValuesExposeActualsAndGlobals) {
  bool Checked = false;
  SymbolId GSym = InvalidSymbol;
  KillValueFn KillFn = [&](const Instr &, SymbolId,
                           const CallSiteValues &Values)
      -> std::optional<int64_t> {
    const VnExpr *Arg = Values.actual(0);
    EXPECT_TRUE(Arg->isConst());
    EXPECT_EQ(Arg->ConstValue, 11);
    const VnExpr *G = Values.global(GSym);
    EXPECT_TRUE(G->isConst());
    EXPECT_EQ(G->ConstValue, 3);
    Checked = true;
    return std::nullopt;
  };
  // Build, then rebuild VN with the checker once symbols are known.
  FullAnalysis A = analyze(R"(global g
proc main()
  integer v
  g = 3
  v = 0
  call f(11, v)
end
proc f(a, o)
  o = a
end
)");
  GSym = A.symbol("g");
  const Function &F = A.function("main");
  DominatorTree DT(F);
  SsaForm Ssa(F, A.Symbols, DT, makeKillOracle(A.Symbols, A.MRI.get()));
  VnContext Ctx;
  ValueNumbering VN(Ssa, A.Symbols, Ctx, &KillFn);
  EXPECT_TRUE(Checked);
}

// Reduced from fuzz seed 13772387070707809766: `2 % 0` numbers to an
// Opaque, and optimistic numbering used to take a fresh one on every
// pass, so the disagreement pinned v1 Opaque and `v1 - v1` stopped
// folding to 0. Both numberings must find g0 = 0 at exit.
TEST(ValueNumbering, OptimisticFoldsAfterConstantDivisionByZero) {
  const char *Source = R"(global g0 = 30
proc main()
  integer v1, v2
  v2 = 14
  v1 = g0 + 2 % (3 / v2)
  g0 = (v1 - v1) % g0
  call w2()
end
proc w2()
end
)";
  for (bool Optimistic : {false, true}) {
    VnBundle B = buildVn(Source, "main", nullptr, Optimistic);
    const VnExpr *E = exitExpr(B, B.A.symbol("g0"));
    ASSERT_TRUE(E->isConst()) << "optimistic=" << Optimistic;
    EXPECT_EQ(E->ConstValue, 0);
  }
}

TEST(ValueNumbering, StringRendering) {
  VnContext Ctx;
  FullAnalysis A = analyze("global n\nproc main()\n  n = 1\nend\n");
  const VnExpr *E = Ctx.getBinary(
      BinaryOp::Mul,
      Ctx.getBinary(BinaryOp::Add, Ctx.getParam(A.symbol("n")),
                    Ctx.getConst(1)),
      Ctx.getConst(2));
  // Commutative operands are canonicalized by creation order.
  EXPECT_EQ(vnExprToString(E, A.Symbols), "(2 * (1 + n))");
}
