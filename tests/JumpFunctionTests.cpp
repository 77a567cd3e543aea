//===- tests/JumpFunctionTests.cpp - ipcp/JumpFunction unit tests ---------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/JumpFunction.h"

#include "ipcp/AnalysisSession.h"
#include "ipcp/JumpFunctionBuilder.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Environment mapping symbol 1 -> 10, symbol 2 -> bottom, rest top.
LatticeValue testEnv(SymbolId Sym) {
  if (Sym == 1)
    return LatticeValue::constant(10);
  if (Sym == 2)
    return LatticeValue::bottom();
  return LatticeValue::top();
}

} // namespace

TEST(JumpFunction, BottomEvaluatesToBottom) {
  JumpFunction J = JumpFunction::bottom();
  EXPECT_TRUE(J.isBottom());
  EXPECT_TRUE(J.eval(testEnv).isBottom());
  EXPECT_TRUE(J.support().empty());
}

TEST(JumpFunction, ConstIgnoresEnvironment) {
  JumpFunction J = JumpFunction::constant(99);
  EXPECT_TRUE(J.isConst());
  EXPECT_EQ(J.constValue(), 99);
  LatticeValue V = J.eval(testEnv);
  ASSERT_TRUE(V.isConst());
  EXPECT_EQ(V.value(), 99);
  EXPECT_TRUE(J.support().empty());
}

TEST(JumpFunction, PassThroughReadsEnvironment) {
  JumpFunction J = JumpFunction::passThrough(1);
  EXPECT_EQ(J.support(), std::vector<SymbolId>{1});
  LatticeValue V = J.eval(testEnv);
  ASSERT_TRUE(V.isConst());
  EXPECT_EQ(V.value(), 10);
  EXPECT_TRUE(JumpFunction::passThrough(2).eval(testEnv).isBottom());
  EXPECT_TRUE(JumpFunction::passThrough(3).eval(testEnv).isTop());
}

TEST(JumpFunction, PolynomialEvaluation) {
  VnContext Ctx;
  // (p1 * 2) + 5 with p1 = 10 -> 25.
  const VnExpr *E = Ctx.getBinary(
      BinaryOp::Add,
      Ctx.getBinary(BinaryOp::Mul, Ctx.getParam(1), Ctx.getConst(2)),
      Ctx.getConst(5));
  JumpFunction J = JumpFunction::polynomial(JfExpr::fromVn(E));
  EXPECT_EQ(J.support(), std::vector<SymbolId>{1});
  LatticeValue V = J.eval(testEnv);
  ASSERT_TRUE(V.isConst());
  EXPECT_EQ(V.value(), 25);
}

TEST(JumpFunction, PolynomialWithBottomInputIsBottom) {
  VnContext Ctx;
  const VnExpr *E =
      Ctx.getBinary(BinaryOp::Add, Ctx.getParam(1), Ctx.getParam(2));
  JumpFunction J = JumpFunction::polynomial(JfExpr::fromVn(E));
  EXPECT_TRUE(J.eval(testEnv).isBottom());
  EXPECT_EQ(J.support().size(), 2u);
}

TEST(JumpFunction, PolynomialWithTopInputIsTop) {
  VnContext Ctx;
  const VnExpr *E =
      Ctx.getBinary(BinaryOp::Add, Ctx.getParam(1), Ctx.getParam(3));
  JumpFunction J = JumpFunction::polynomial(JfExpr::fromVn(E));
  EXPECT_TRUE(J.eval(testEnv).isTop());
}

TEST(JumpFunction, PolynomialDivisionByZeroAtEvalIsBottom) {
  VnContext Ctx;
  // p1 / (p1 - 10): with p1 = 10 the divisor is zero.
  const VnExpr *E = Ctx.getBinary(
      BinaryOp::Div, Ctx.getParam(1),
      Ctx.getBinary(BinaryOp::Sub, Ctx.getParam(1), Ctx.getConst(10)));
  JumpFunction J = JumpFunction::polynomial(JfExpr::fromVn(E));
  EXPECT_TRUE(J.eval(testEnv).isBottom());
}

TEST(JumpFunction, UnaryInPolynomial) {
  VnContext Ctx;
  const VnExpr *E = Ctx.getUnary(
      UnaryOp::Neg, Ctx.getBinary(BinaryOp::Add, Ctx.getParam(1),
                                  Ctx.getConst(1)));
  JumpFunction J = JumpFunction::polynomial(JfExpr::fromVn(E));
  LatticeValue V = J.eval(testEnv);
  ASSERT_TRUE(V.isConst());
  EXPECT_EQ(V.value(), -11);
}

TEST(JumpFunction, CloneIsIndependentAndEqual) {
  VnContext Ctx;
  const VnExpr *E =
      Ctx.getBinary(BinaryOp::Mul, Ctx.getParam(1), Ctx.getConst(3));
  JumpFunction J = JumpFunction::polynomial(JfExpr::fromVn(E));
  JumpFunction K = J.clone();
  EXPECT_EQ(K.form(), JumpFunction::Form::Poly);
  EXPECT_EQ(K.eval(testEnv).value(), 30);
  EXPECT_EQ(K.support(), J.support());
}

//===----------------------------------------------------------------------===//
// classify(): the kind hierarchy of §3.1.
//===----------------------------------------------------------------------===//

TEST(JumpFunctionClassify, LiteralOnlyAcceptsLiteralOperands) {
  VnContext Ctx;
  const VnExpr *C = Ctx.getConst(5);
  JumpFunction FromLiteral =
      JumpFunction::classify(JumpFunctionKind::Literal, C, true);
  EXPECT_TRUE(FromLiteral.isConst());
  // A constant-folded expression is not a literal at the call site.
  JumpFunction FromFolded =
      JumpFunction::classify(JumpFunctionKind::Literal, C, false);
  EXPECT_TRUE(FromFolded.isBottom());
}

TEST(JumpFunctionClassify, IntraConstUsesGcp) {
  VnContext Ctx;
  const VnExpr *C = Ctx.getConst(5);
  EXPECT_TRUE(JumpFunction::classify(JumpFunctionKind::IntraConst, C,
                                     false)
                  .isConst());
  // But a pass-through parameter is beyond it.
  EXPECT_TRUE(JumpFunction::classify(JumpFunctionKind::IntraConst,
                                     Ctx.getParam(1), false)
                  .isBottom());
}

TEST(JumpFunctionClassify, PassThroughRecognizesParams) {
  VnContext Ctx;
  JumpFunction J = JumpFunction::classify(JumpFunctionKind::PassThrough,
                                          Ctx.getParam(4), false);
  EXPECT_EQ(J.form(), JumpFunction::Form::PassThrough);
  EXPECT_EQ(J.support(), std::vector<SymbolId>{4});
  // But a polynomial is beyond it.
  const VnExpr *Poly =
      Ctx.getBinary(BinaryOp::Add, Ctx.getParam(4), Ctx.getConst(1));
  EXPECT_TRUE(JumpFunction::classify(JumpFunctionKind::PassThrough, Poly,
                                     false)
                  .isBottom());
}

TEST(JumpFunctionClassify, PolynomialAcceptsParamExprs) {
  VnContext Ctx;
  const VnExpr *Poly =
      Ctx.getBinary(BinaryOp::Add, Ctx.getParam(4), Ctx.getConst(1));
  JumpFunction J =
      JumpFunction::classify(JumpFunctionKind::Polynomial, Poly, false);
  EXPECT_EQ(J.form(), JumpFunction::Form::Poly);
  // Opaque anywhere defeats it.
  const VnExpr *Mixed =
      Ctx.getBinary(BinaryOp::Add, Ctx.getParam(4), Ctx.makeOpaque());
  EXPECT_TRUE(JumpFunction::classify(JumpFunctionKind::Polynomial, Mixed,
                                     false)
                  .isBottom());
}

TEST(JumpFunctionClassify, HierarchyIsMonotone) {
  // Whatever a weaker kind transmits, every stronger kind transmits too
  // (paper §3.1: each class subsumes the previous).
  VnContext Ctx;
  std::vector<const VnExpr *> Exprs = {
      Ctx.getConst(3), Ctx.getParam(1),
      Ctx.getBinary(BinaryOp::Mul, Ctx.getParam(1), Ctx.getConst(2)),
      Ctx.makeOpaque()};
  std::vector<JumpFunctionKind> Kinds = {
      JumpFunctionKind::Literal, JumpFunctionKind::IntraConst,
      JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial};
  for (const VnExpr *E : Exprs) {
    bool PrevTransmits = false;
    for (JumpFunctionKind Kind : Kinds) {
      bool Transmits =
          !JumpFunction::classify(Kind, E, false).isBottom();
      EXPECT_TRUE(Transmits || !PrevTransmits)
          << "kind hierarchy regressed";
      PrevTransmits = Transmits;
    }
  }
}

TEST(JumpFunction, Rendering) {
  FullAnalysis A = analyze("global n\nproc main()\n  n = 1\nend\n");
  VnContext Ctx;
  EXPECT_EQ(JumpFunction::bottom().str(A.Symbols), "_|_");
  EXPECT_EQ(JumpFunction::constant(5).str(A.Symbols), "5");
  EXPECT_EQ(JumpFunction::passThrough(A.symbol("n")).str(A.Symbols),
            "passthrough(n)");
  const VnExpr *E = Ctx.getBinary(BinaryOp::Add,
                                  Ctx.getParam(A.symbol("n")),
                                  Ctx.getConst(1));
  // Commutative operands are canonicalized by creation order.
  EXPECT_EQ(JumpFunction::polynomial(JfExpr::fromVn(E)).str(A.Symbols),
            "poly((1 + n))");
}

TEST(JumpFunctionKindNames, MatchThePaper) {
  EXPECT_STREQ(jumpFunctionKindName(JumpFunctionKind::Literal),
               "literal");
  EXPECT_STREQ(jumpFunctionKindName(JumpFunctionKind::IntraConst),
               "intraprocedural");
  EXPECT_STREQ(jumpFunctionKindName(JumpFunctionKind::PassThrough),
               "pass-through");
  EXPECT_STREQ(jumpFunctionKindName(JumpFunctionKind::Polynomial),
               "polynomial");
}

//===----------------------------------------------------------------------===//
// appendFingerprint(): the value-context memo's grouping key, which must
// be an exact encoding — equal bytes, equal function.
//===----------------------------------------------------------------------===//

namespace {

/// The distinct jump-function configurations the suite columns exercise,
/// plus the gated-SSA build (gamma nodes), the precision tier
/// (flow-sensitive aliasing, optimistic numbering), and the copy tier
/// (Copy forms).
std::vector<JumpFunctionOptions> allJfOptions() {
  std::vector<JumpFunctionOptions> Out;
  auto Add = [&](JumpFunctionKind K, bool Rjf, bool Mod, bool Gsa) {
    JumpFunctionOptions O;
    O.Kind = K;
    O.UseReturnJumpFunctions = Rjf;
    O.UseMod = Mod;
    O.UseGatedSsa = Gsa;
    Out.push_back(O);
  };
  Add(JumpFunctionKind::Polynomial, true, true, false);
  Add(JumpFunctionKind::PassThrough, true, true, false);
  Add(JumpFunctionKind::IntraConst, true, true, false);
  Add(JumpFunctionKind::Literal, true, true, false);
  Add(JumpFunctionKind::Polynomial, false, true, false);
  Add(JumpFunctionKind::PassThrough, false, true, false);
  Add(JumpFunctionKind::Polynomial, true, false, false);
  Add(JumpFunctionKind::Polynomial, true, true, true);
  JumpFunctionOptions Fsa;
  Fsa.FlowSensitiveAlias = true;
  Out.push_back(Fsa);
  JumpFunctionOptions Ogvn;
  Ogvn.OptimisticVn = true;
  Out.push_back(Ogvn);
  JumpFunctionOptions Copy;
  Copy.CopyPropagation = true;
  Out.push_back(Copy);
  return Out;
}

std::string fingerprint(const JumpFunction &J) {
  std::string Fp;
  J.appendFingerprint(Fp);
  return Fp;
}

/// \p J's value under a few fixed environments: distinct constants of
/// both signs, zeros (division by zero), and BOTTOM and TOP inputs.
std::vector<LatticeValue> evalUnderFixedEnvs(const JumpFunction &J) {
  const std::function<LatticeValue(SymbolId)> Envs[] = {
      [](SymbolId S) { return LatticeValue::constant(S + 1); },
      [](SymbolId S) {
        return LatticeValue::constant(3 - 2 * static_cast<int64_t>(S));
      },
      [](SymbolId) { return LatticeValue::constant(0); },
      [](SymbolId S) {
        return S % 2 ? LatticeValue::bottom() : LatticeValue::constant(S);
      },
      [](SymbolId S) {
        return S % 3 ? LatticeValue::constant(7) : LatticeValue::top();
      },
  };
  std::vector<LatticeValue> Out;
  for (const auto &Env : Envs)
    Out.push_back(J.eval(Env));
  return Out;
}

} // namespace

// The two SummaryIO tests keep the names they had when fingerprints were
// also the text of a summary file and were checked by parsing them back.
// They now show that fingerprints are an exact encoding without a parser.

TEST(SummaryIO, FingerprintRoundTripsEveryFormInSuite) {
  // Every jump function of every suite program, and of seeded random
  // programs (the suite has few polynomial ones), under every builder
  // configuration, grouped by fingerprint: a group must render as one
  // function within its program, and evaluate as one everywhere (the
  // environments are keyed by symbol id, as fingerprints are).
  std::vector<WorkloadProgram> Programs = extendedSuite();
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    RandomSpec Spec;
    Spec.Seed = Seed;
    WorkloadProgram &W = Programs.emplace_back();
    W.Name = "random" + std::to_string(Seed);
    W.Source = generateRandomProgram(Spec);
  }
  size_t Checked = 0;
  std::map<std::string, std::vector<LatticeValue>> ValuesOf;
  for (const WorkloadProgram &W : Programs) {
    auto Ctx = parseOk(W.Source);
    DiagnosticEngine Diags;
    SymbolTable Symbols = Sema::run(*Ctx, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << W.Name << ": " << Diags.str();
    AnalysisSession Session(*Ctx, Symbols);
    std::map<std::string, std::string> RenderingOf;
    auto Check = [&](const JumpFunction &J) {
      std::string Fp = fingerprint(J);
      std::string Str = J.str(Symbols);
      EXPECT_EQ(RenderingOf.try_emplace(Fp, Str).first->second, Str)
          << W.Name << ": " << Fp;
      std::vector<LatticeValue> Values = evalUnderFixedEnvs(J);
      EXPECT_TRUE(ValuesOf.try_emplace(Fp, Values).first->second == Values)
          << W.Name << ": " << Fp << " = " << Str;
      ++Checked;
    };
    for (const JumpFunctionOptions &Opts : allJfOptions()) {
      ProgramJumpFunctions Jfs = buildJumpFunctions(Session, Opts);
      for (const auto &Sites : Jfs.PerSite)
        for (const CallSiteJumpFunctions &Site : Sites) {
          for (const JumpFunction &J : Site.Args)
            Check(J);
          for (const JumpFunction &J : Site.Globals)
            Check(J);
        }
      for (const auto &Returns : Jfs.ReturnJfs)
        for (const auto &[Sym, J] : Returns)
          Check(J);
    }
  }
  EXPECT_GT(Checked, 1000u);
}

TEST(SummaryIO, FingerprintParsesHandWrittenForms) {
  // Gamma and unknown nodes, built by hand so coverage does not
  // depend on what the suite programs happen to generate: each form
  // encodes as written, and pairs that differ in exactly one thing get
  // distinct fingerprints.
  VnContext Ctx;
  const VnExpr *P1 = Ctx.getParam(1), *P2 = Ctx.getParam(2),
               *P3 = Ctx.getParam(3);
  auto Poly = [](const VnExpr *E) {
    return JumpFunction::polynomial(JfExpr::fromVn(E, /*AllowGated=*/true));
  };
  const VnExpr *Opaque = Ctx.makeOpaque();
  const VnExpr *C0 = Ctx.getConst(0);
  struct Form {
    const char *Fp;
    JumpFunction J;
  };
  Form Forms[] = {
      {"B", JumpFunction::bottom()},
      {"C-9223372036854775808;",
       JumpFunction::constant(std::numeric_limits<int64_t>::min())},
      {"C42;", JumpFunction::constant(42)},
      {"P3;", JumpFunction::passThrough(3)},
      {"Yc5;", Poly(Ctx.getConst(5))},
      {"Yp7;", Poly(Ctx.getParam(7))},
      {"Yu1(p2;)", Poly(Ctx.getUnary(UnaryOp::LogicalNot, P2))},
      {"Yb4(p1;c3;)",
       Poly(Ctx.getBinary(BinaryOp::Mod, P1, Ctx.getConst(3)))},
      {"Yg(b7(p1;c0;)c1;?)",
       Poly(Ctx.getGamma(Ctx.getBinary(BinaryOp::CmpLt, P1, C0),
                         Ctx.getConst(1), Opaque))},
      {"Yb1(g(p1;?c2;)u0(p3;))",
       Poly(Ctx.getBinary(BinaryOp::Sub,
                          Ctx.getGamma(P1, Opaque, Ctx.getConst(2)),
                          Ctx.getUnary(UnaryOp::Neg, P3)))},
  };
  for (const Form &F : Forms)
    EXPECT_EQ(fingerprint(F.J), F.Fp);

  struct Pair {
    const char *What;
    JumpFunction A, B;
  };
  Pair Pairs[] = {
      {"constant", JumpFunction::constant(5), JumpFunction::constant(6)},
      {"constant in an expression",
       Poly(Ctx.getBinary(BinaryOp::Sub, P1, Ctx.getConst(5))),
       Poly(Ctx.getBinary(BinaryOp::Sub, P1, Ctx.getConst(6)))},
      {"parameter id", JumpFunction::passThrough(1),
       JumpFunction::passThrough(2)},
      {"parameter id in an expression",
       Poly(Ctx.getBinary(BinaryOp::Sub, P1, P2)),
       Poly(Ctx.getBinary(BinaryOp::Sub, P1, P3))},
      {"unary op", Poly(Ctx.getUnary(UnaryOp::Neg, P1)),
       Poly(Ctx.getUnary(UnaryOp::LogicalNot, P1))},
      {"binary op", Poly(Ctx.getBinary(BinaryOp::Sub, P1, P2)),
       Poly(Ctx.getBinary(BinaryOp::Div, P1, P2))},
      {"swapped gamma arms", Poly(Ctx.getGamma(P1, P2, P3)),
       Poly(Ctx.getGamma(P1, P3, P2))},
      {"unknown gamma arm", Poly(Ctx.getGamma(P1, P2, Opaque)),
       Poly(Ctx.getGamma(P1, P2, Ctx.getConst(0)))},
  };
  for (const Pair &P : Pairs)
    EXPECT_NE(fingerprint(P.A), fingerprint(P.B)) << P.What;
}
