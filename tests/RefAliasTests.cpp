//===- tests/RefAliasTests.cpp - analysis/RefAlias unit tests -------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
// Call-by-reference aliasing: which (procedure, symbol) values must the
// per-procedure analyses refuse to trust? Each shape here was distilled
// from a translation-validation counterexample (see OracleFuzzTests),
// so the pipeline-level cases double as regression tests for real
// miscompiles the oracle caught.
//
//===----------------------------------------------------------------------===//

#include "analysis/RefAlias.h"

#include "exec/Oracle.h"
#include "ipcp/Pipeline.h"
#include "workloads/Suite.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace ipcp;
using namespace ipcp::test;

namespace {

RefAliasInfo aliasesOf(const FullAnalysis &A) {
  return RefAliasInfo(A.M, A.Symbols, A.MRI.get());
}

/// Runs a full validation under the intraprocedural-constants forward
/// jump function — the kind that evaluates non-literal actuals (like a
/// global's current value) at call sites, and therefore the first to
/// miscompile when aliasing is ignored.
OracleResult validateIntraConst(const std::string &Source) {
  OracleOptions Opts;
  Opts.Pipeline.Kind = JumpFunctionKind::IntraConst;
  Opts.Pipeline.EmitTransformedSource = true;
  return validateTranslation(Source, Opts);
}

} // namespace

TEST(RefAlias, GlobalPassedByReferenceToModifyingCallee) {
  // f's formal x is bound to the location of g; f stores through g, so
  // both names of the pair are unstable inside f.
  FullAnalysis A = analyze(R"(global g
proc main()
  g = 85
  call f(g)
end
proc f(x)
  g = 3
  print 11 % x
end
)");
  RefAliasInfo Aliases = aliasesOf(A);
  EXPECT_GE(Aliases.numAliasPairs(), 1u);
  ProcId F = A.proc("f");
  EXPECT_TRUE(Aliases.unstable(F, A.symbolIn("f", "x")));
  EXPECT_TRUE(Aliases.unstable(F, A.symbol("g")));
  // main never sees the pair: its own locals stay stable.
  EXPECT_FALSE(Aliases.unstable(A.proc("main"), A.symbol("g")));
}

TEST(RefAlias, UnmodifiedAliasPairStaysStable) {
  // Same binding shape, but nobody stores through either name: with MOD
  // information the pair is harmless and costs no precision.
  FullAnalysis A = analyze(R"(global g
proc main()
  g = 85
  call f(g)
end
proc f(x)
  print x + g
end
)");
  RefAliasInfo Aliases = aliasesOf(A);
  EXPECT_GE(Aliases.numAliasPairs(), 1u);
  ProcId F = A.proc("f");
  EXPECT_FALSE(Aliases.unstable(F, A.symbolIn("f", "x")));
  EXPECT_FALSE(Aliases.unstable(F, A.symbol("g")));

  // Without MOD the same pair must be assumed modified.
  RefAliasInfo NoMod(A.M, A.Symbols, nullptr);
  EXPECT_TRUE(NoMod.unstable(F, A.symbolIn("f", "x")));
}

TEST(RefAlias, FormalForwardedTransitively) {
  // The binding relation composes through call chains: g reaches b's
  // formal y via a's formal x, and b's store makes every link unstable.
  FullAnalysis A = analyze(R"(global g
proc main()
  g = 1
  call a(g)
end
proc a(x)
  call b(x)
  print x
end
proc b(y)
  y = 2
end
)");
  RefAliasInfo Aliases = aliasesOf(A);
  EXPECT_TRUE(Aliases.unstable(A.proc("b"), A.symbolIn("b", "y")));
  EXPECT_TRUE(Aliases.unstable(A.proc("a"), A.symbolIn("a", "x")));
}

TEST(RefAlias, DistinctLocalsDoNotAlias) {
  // Two different caller locals bind two formals: no pair, nothing
  // unstable, full precision retained.
  FullAnalysis A = analyze(R"(proc main()
  integer u, v
  u = 1
  v = 2
  call f(u, v)
end
proc f(a, b)
  a = b + 10
  print a
end
)");
  RefAliasInfo Aliases = aliasesOf(A);
  EXPECT_EQ(Aliases.numAliasPairs(), 0u);
  EXPECT_EQ(Aliases.numUnstable(), 0u);

  PipelineResult R = runPipeline(R"(proc main()
  integer u, v
  u = 1
  v = 2
  call f(u, v)
end
proc f(a, b)
  a = b + 10
  print a
end
)",
                                 PipelineOptions());
  ASSERT_TRUE(R.Ok) << R.Error;
  // b=2 flows in cleanly, so b+10 and the print of a both fold.
  EXPECT_GE(R.SubstitutedConstants, 2u);
}

TEST(RefAlias, AliasedStoreIsNotSubstitutedAway) {
  // Distilled from oracle fuzz seed 132: the caller's intraprocedural
  // constant g=85 reaches f's formal via an IntraConst jump function,
  // but f reassigns g before reading x — through the alias, x is 3, not
  // 85. The unsound analyzer substituted `11 % 85`; execution observes
  // `11 % 3`. The alias mask must suppress the substitution and the
  // oracle must agree with execution.
  const std::string Source = R"(global g
proc main()
  g = 85
  call f(g)
end
proc f(x)
  g = 4 - 16 / 11
  print 11 % x
end
)";
  PipelineOptions PO;
  PO.Kind = JumpFunctionKind::IntraConst;
  PO.EmitTransformedSource = true;
  PipelineResult R = runPipeline(Source, PO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.TransformedSource.find("11 % 85"), std::string::npos)
      << R.TransformedSource;
  EXPECT_GE(R.AliasUnstableSymbols, 2u);

  OracleResult V = validateIntraConst(Source);
  EXPECT_TRUE(V.Ok) << V.Error;
  EXPECT_EQ(V.ConstantMismatches, 0u);
}

TEST(RefAlias, SameVariableTwiceValidatesUnderOracle) {
  // The sibling-formal pair (EdgeCase.SameVariablePassedTwice...) under
  // end-to-end validation: whatever the analyzer now claims must match
  // execution.
  OracleResult V = validateIntraConst(R"(proc main()
  integer v
  v = 1
  call f(v, v)
  print v
end
proc f(a, b)
  a = b + 10
  print a + b
end
)");
  EXPECT_TRUE(V.Ok) << V.Error;
  EXPECT_GT(V.TraceComparisons, 0u);
}

TEST(RefAlias, NumUnstableEqualsAMaskRecount) {
  // numUnstable() is counted as mask entries flip to unstable; it must
  // equal a recount of every mask, with and without MOD, over the
  // extended suite and the hand-curated aliasing shapes.
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const WorkloadProgram &W : extendedSuite())
    Programs.emplace_back(W.Name, W.Source);
  std::ifstream In(IPCP_TEST_CORPUS_DIR "/alias-shapes.mf");
  ASSERT_TRUE(In) << "cannot read alias-shapes.mf";
  std::ostringstream Shapes;
  Shapes << In.rdbuf();
  Programs.emplace_back("alias-shapes", Shapes.str());

  size_t Total = 0;
  for (const auto &[Name, Source] : Programs) {
    FullAnalysis A = analyze(Source);
    const ModRefInfo *WithAndWithoutMod[] = {A.MRI.get(), nullptr};
    for (const ModRefInfo *MRI : WithAndWithoutMod) {
      RefAliasInfo Aliases(A.M, A.Symbols, MRI);
      size_t Recount = 0;
      for (ProcId P = 0; P != A.M.Functions.size(); ++P)
        for (uint8_t U : Aliases.unstableMask(P))
          Recount += U != 0;
      EXPECT_EQ(Aliases.numUnstable(), Recount)
          << Name << (MRI ? "" : " (no MOD)");
      Total += Recount;
    }
  }
  EXPECT_GT(Total, 0u);
}
