//===- tests/OracleTests.cpp - Translation-validation oracle tests --------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/Oracle.h"
#include "ipcp/AnalysisConfig.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// A program where the analyzer proves plenty: constant formals, a
/// constant global, a foldable branch, and a substitutable use.
const char *RichSource = "global mode = 2\n"
                         "proc work(k, scale)\n"
                         "  integer t\n"
                         "  t = k * scale\n"
                         "  if (mode == 2) then\n"
                         "    print t + mode\n"
                         "  else\n"
                         "    print 0 - t\n"
                         "  end if\n"
                         "end\n"
                         "proc main()\n"
                         "  integer i\n"
                         "  do i = 1, 4\n"
                         "    call work(7, i)\n"
                         "  end do\n"
                         "  call work(7, 100)\n"
                         "end\n";

TEST(OracleTest, ValidatesRichProgram) {
  OracleOptions Opts;
  OracleResult R = validateTranslation(RichSource, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.TraceDivergences, 0u);
  EXPECT_EQ(R.ConstantMismatches, 0u);
  EXPECT_GT(R.RunsExecuted, 0u);
  EXPECT_GT(R.TraceComparisons, 0u);
  // 'k' is the constant 7 at both sites, so the oracle must have
  // checked substituted uses and CONSTANTS(work) entries.
  EXPECT_GT(R.SubstitutedUseChecks, 0u);
  EXPECT_GT(R.EntryConstantChecks, 0u);
}

TEST(OracleTest, ValidatesUnderCompletePropagation) {
  OracleOptions Opts;
  Opts.Pipeline.CompletePropagation = true;
  OracleResult R = validateTranslation(RichSource, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.TraceDivergences, 0u);
  EXPECT_EQ(R.ConstantMismatches, 0u);
}

TEST(OracleTest, ValidatesEveryJumpFunctionKind) {
  for (JumpFunctionKind Kind :
       {JumpFunctionKind::Literal, JumpFunctionKind::IntraConst,
        JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial}) {
    OracleOptions Opts;
    Opts.Pipeline.Kind = Kind;
    OracleResult R = validateTranslation(RichSource, Opts);
    EXPECT_TRUE(R.Ok) << jumpFunctionKindName(Kind) << ": " << R.Error;
  }
}

TEST(OracleTest, FormalForwardedTwiceAliasesItself) {
  // w0's formal is bound to an expression, so it has no caller-side
  // location; forwarding it twice must still make w2's formals alias, or
  // `print y` is substituted with w0's entry constant 2 after `x = 7`.
  const char *Source = "proc main()\n"
                       "  integer a\n"
                       "  a = 1\n"
                       "  call w0(a + 1)\n"
                       "end\n"
                       "proc w0(p1)\n"
                       "  print p1\n"
                       "  call w2(p1, p1)\n"
                       "end\n"
                       "proc w2(x, y)\n"
                       "  x = 7\n"
                       "  print y\n"
                       "end\n";
  for (const char *Flags :
       {"", "--jf=pass", "--ogvn", "--copy", "--gsa", "--complete",
        "--no-mod", "--fsa"}) {
    OracleOptions Opts;
    Opts.Pipeline = optionsFromFlags(Flags);
    OracleResult R = validateTranslation(Source, Opts);
    EXPECT_TRUE(R.Ok) << "[" << Flags << "] " << R.Error;
    EXPECT_EQ(R.ConstantMismatches, 0u) << "[" << Flags << "]";
  }
}

TEST(OracleTest, ValidatesInlinerAndCloning) {
  OracleOptions Opts;
  Opts.CheckInliner = true;
  Opts.CheckCloning = true;
  OracleResult R = validateTranslation(RichSource, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  // Reference + analyzed + transformed + inlined + cloned per seed.
  EXPECT_GE(R.RunsExecuted, 5u * 2u);
}

TEST(OracleTest, ReadDependentProgram) {
  // Values flowing from READ are BOTTOM; the oracle still checks that
  // traces agree on the shared input stream.
  OracleOptions Opts;
  Opts.Pipeline.CompletePropagation = true;
  OracleResult R = validateTranslation("proc main()\n"
                                       "  integer x\n"
                                       "  read x\n"
                                       "  if (x > 100) then\n"
                                       "    print 1\n"
                                       "  else\n"
                                       "    print x\n"
                                       "  end if\n"
                                       "end\n",
                                       Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(OracleTest, ResourceLimitedRunUsesPrefixRule) {
  // The program never terminates; every run hits the step budget.
  // Prefix agreement (not exact equality) must apply, so validation
  // still passes even though DCE may change the step count.
  OracleOptions Opts;
  Opts.Limits.MaxSteps = 2000;
  Opts.Pipeline.CompletePropagation = true;
  OracleResult R = validateTranslation("proc main()\n"
                                       "  integer n\n"
                                       "  while (0 == 0)\n"
                                       "    n = n + 1\n"
                                       "    print n\n"
                                       "  end while\n"
                                       "end\n",
                                       Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.TraceComparisons, 0u);
}

TEST(OracleTest, TrappingProgramStillValidates) {
  // A genuine trap (divide by zero) is semantics: the transformed
  // programs must trap with an identical trace prefix.
  OracleOptions Opts;
  Opts.CheckInliner = true;
  OracleResult R = validateTranslation("proc div(a, b)\n"
                                       "  print a / b\n"
                                       "end\n"
                                       "proc main()\n"
                                       "  integer z\n"
                                       "  print 1\n"
                                       "  call div(10, z)\n"
                                       "end\n",
                                       Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(OracleTest, RejectsUnparsableSource) {
  OracleResult R = validateTranslation("proc main(\n", OracleOptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_EQ(R.RunsExecuted, 0u);
}

TEST(OracleTest, CustomSeedsAreHonored) {
  OracleOptions Opts;
  Opts.ReadSeeds = {3, 4, 5, 6};
  OracleResult R = validateTranslation("proc main()\n"
                                       "  integer x\n"
                                       "  read x\n"
                                       "  print x\n"
                                       "end\n",
                                       Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  // Reference + analyzed replay + transformed source, per seed.
  EXPECT_EQ(R.RunsExecuted, 3u * 4u);
}

TEST(OracleTest, ZeroTripDoFoldValidatesUnderCompletePropagation) {
  // Regression companion to the DCE aliasing fix: a provably zero-trip
  // DO loop is folded to its variable initialization; the oracle
  // checks the folded program still prints the post-loop value.
  OracleOptions Opts;
  Opts.Pipeline.CompletePropagation = true;
  OracleResult R = validateTranslation("proc main()\n"
                                       "  integer i\n"
                                       "  do i = 10, 2\n"
                                       "    print i\n"
                                       "  end do\n"
                                       "  print i\n"
                                       "end\n",
                                       Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
}

} // namespace
