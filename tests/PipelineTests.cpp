//===- tests/PipelineTests.cpp - ipcp/Pipeline unit + property tests ------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/Pipeline.h"

#include "workloads/Suite.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

unsigned countFor(const std::string &Source, PipelineOptions Opts) {
  PipelineResult R = runPipeline(Source, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.SubstitutedConstants;
}

PipelineOptions withKind(JumpFunctionKind Kind) {
  PipelineOptions Opts;
  Opts.Kind = Kind;
  return Opts;
}

} // namespace

TEST(Pipeline, ReportsParseErrors) {
  PipelineResult R = runPipeline("proc main(\nend\n", PipelineOptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("error"), std::string::npos);
}

TEST(Pipeline, ReportsSemaErrors) {
  PipelineResult R =
      runPipeline("proc main()\n  x = 1\nend\n", PipelineOptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("undeclared"), std::string::npos);
}

TEST(Pipeline, ReportsMissingMain) {
  PipelineResult R = runPipeline("proc f()\nend\n", PipelineOptions());
  EXPECT_FALSE(R.Ok);
}

TEST(Pipeline, ReportsConstantsSets) {
  PipelineResult R = runPipeline(R"(proc main()
  call f(5)
end
proc f(x)
  print x
end
)",
                                 PipelineOptions());
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(R.ProcNames.size(), 2u);
  // CONSTANTS(f) = {(x, 5)}.
  bool Found = false;
  for (size_t P = 0; P != R.Constants.size(); ++P)
    for (const auto &[Name, Value] : R.Constants[P])
      if (R.ProcNames[P] == "f" && Name == "x") {
        EXPECT_EQ(Value, 5);
        Found = true;
      }
  EXPECT_TRUE(Found);
}

TEST(Pipeline, ReportsNeverCalledProcs) {
  PipelineResult R = runPipeline(R"(proc main()
end
proc orphan()
end
)",
                                 PipelineOptions());
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(R.NeverCalled.size(), 1u);
  EXPECT_EQ(R.NeverCalled[0], "orphan");
}

TEST(Pipeline, NeverCalledIsTransitiveAndKeepsNoConstants) {
  // An orphan's callees are unreachable too, even though they have call
  // sites; reachable procedures still report their constants.
  PipelineResult R = runPipeline(R"(proc main()
  call f(7)
end
proc f(x)
  print x
end
proc orphan()
  call helper(3)
end
proc helper(y)
  print y
end
)",
                                 PipelineOptions());
  ASSERT_TRUE(R.Ok);
  // ProcId order == source order.
  ASSERT_EQ(R.NeverCalled, (std::vector<std::string>{"orphan", "helper"}));
  for (size_t P = 0; P != R.Constants.size(); ++P)
    if (R.ProcNames[P] == "orphan" || R.ProcNames[P] == "helper") {
      EXPECT_TRUE(R.Constants[P].empty()) << R.ProcNames[P];
      EXPECT_EQ(R.PerProcSubstituted[P], 0u) << R.ProcNames[P];
    }
  // helper's VAL cells stayed TOP, so its literal actual never counted.
  EXPECT_EQ(R.SubstitutedConstants, 1u);
}

TEST(Pipeline, NeverCalledIsNotReportedIntraOnly) {
  // The intraprocedural baseline skips the interprocedural phases, so it
  // makes no reachability claims at all.
  PipelineOptions Intra;
  Intra.IntraproceduralOnly = true;
  PipelineResult R = runPipeline(R"(proc main()
end
proc orphan()
end
)",
                                 Intra);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(R.NeverCalled.empty());
}

//===----------------------------------------------------------------------===//
// Solver effort counters (SolverProcVisits / SolverJfEvaluations /
// SolverCellLowerings) — exact on a program small enough to trace by
// hand, structural on the suite.
//===----------------------------------------------------------------------===//

TEST(Pipeline, EffortCountersExactForTinyProgram) {
  // One call site, one interprocedural cell (f's formal x), no globals.
  const char *Source = R"(proc main()
  call f(5)
end
proc f(x)
  print x
end
)";

  // Worklist: pops main (evaluates the one jf, lowers x TOP->5), then
  // pops the initially-queued f (no call sites). Two visits, one
  // evaluation, one lowering.
  PipelineResult Worklist = runPipeline(Source, PipelineOptions());
  ASSERT_TRUE(Worklist.Ok);
  EXPECT_EQ(Worklist.SolverProcVisits, 2u);
  EXPECT_EQ(Worklist.SolverJfEvaluations, 1u);
  EXPECT_EQ(Worklist.SolverCellLowerings, 1u);

  // Round-robin: one full sweep that changes something, one that
  // confirms the fixpoint. Twice the visits and evaluations, same
  // lowerings.
  PipelineOptions RR;
  RR.Strategy = SolverStrategy::RoundRobin;
  PipelineResult RoundRobin = runPipeline(Source, RR);
  ASSERT_TRUE(RoundRobin.Ok);
  EXPECT_EQ(RoundRobin.SolverProcVisits, 4u);
  EXPECT_EQ(RoundRobin.SolverJfEvaluations, 2u);
  EXPECT_EQ(RoundRobin.SolverCellLowerings, 1u);

  // Binding graph: one cell, one edge, evaluated once; ProcVisits
  // reports the cell count.
  PipelineOptions BG;
  BG.Strategy = SolverStrategy::BindingGraph;
  PipelineResult Binding = runPipeline(Source, BG);
  ASSERT_TRUE(Binding.Ok);
  EXPECT_EQ(Binding.SolverProcVisits, 1u);
  EXPECT_EQ(Binding.SolverJfEvaluations, 1u);
  EXPECT_EQ(Binding.SolverCellLowerings, 1u);
}

TEST(Pipeline, EffortCountersZeroIntraOnly) {
  PipelineOptions Intra;
  Intra.IntraproceduralOnly = true;
  PipelineResult R = runPipeline("proc main()\n  call f(5)\nend\n"
                                 "proc f(x)\n  print x\nend\n",
                                 Intra);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.SolverProcVisits, 0u);
  EXPECT_EQ(R.SolverJfEvaluations, 0u);
  EXPECT_EQ(R.SolverCellLowerings, 0u);
}

TEST(Pipeline, EffortCountersStructuralOnSuite) {
  const WorkloadProgram &W = benchmarkSuite()[2]; // fpppp
  PipelineResult R = runPipeline(W.Source, PipelineOptions());
  ASSERT_TRUE(R.Ok);
  // Every reachable procedure is visited at least once.
  size_t Reachable = R.ProcNames.size() - R.NeverCalled.size();
  EXPECT_GE(R.SolverProcVisits, Reachable);
  EXPECT_GT(R.SolverJfEvaluations, 0u);
  EXPECT_GT(R.SolverCellLowerings, 0u);
  // The shallow lattice: every constant cell cost at least one lowering,
  // and no cell can lower more than twice.
  size_t ConstantCells = 0;
  for (const auto &Cells : R.Constants)
    ConstantCells += Cells.size();
  EXPECT_GE(R.SolverCellLowerings, ConstantCells);

  // The worklist never evaluates more jump functions than a full
  // round-robin convergence on the same program.
  PipelineOptions RR;
  RR.Strategy = SolverStrategy::RoundRobin;
  PipelineResult RoundRobin = runPipeline(W.Source, RR);
  ASSERT_TRUE(RoundRobin.Ok);
  EXPECT_LE(R.SolverJfEvaluations, RoundRobin.SolverJfEvaluations);
}

TEST(Pipeline, TransformedSourceSubstitutesConstants) {
  PipelineOptions Opts;
  Opts.EmitTransformedSource = true;
  PipelineResult R = runPipeline(R"(proc main()
  call f(5)
end
proc f(x)
  print x
end
)",
                                 Opts);
  ASSERT_TRUE(R.Ok);
  EXPECT_NE(R.TransformedSource.find("print 5"), std::string::npos);
}

TEST(Pipeline, CompletePropagationExposesConstants) {
  // The paper's ocean mechanism in miniature: DCE removes the
  // conflicting definition, the re-run finds the constant downstream.
  const char *Source = R"(proc main()
  call produce(0)
end
proc produce(flag)
  integer v
  v = 8
  if (flag == 1) then
    read v
  end if
  call consume(v)
end
proc consume(p)
  print p
  print p + 1
end
)";
  PipelineOptions Plain;
  PipelineOptions Complete;
  Complete.CompletePropagation = true;
  unsigned Before = countFor(Source, Plain);
  PipelineResult After = runPipeline(Source, Complete);
  ASSERT_TRUE(After.Ok);
  EXPECT_GT(After.SubstitutedConstants, Before);
  EXPECT_EQ(After.DceRounds, 1u);
  EXPECT_GE(After.FoldedBranches, 1u);
}

TEST(Pipeline, CompletePropagationIsIdempotentWithoutDeadCode) {
  const char *Source = R"(proc main()
  call f(5)
end
proc f(x)
  print x
end
)";
  PipelineOptions Complete;
  Complete.CompletePropagation = true;
  PipelineResult R = runPipeline(Source, Complete);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.DceRounds, 0u);
  EXPECT_EQ(R.SubstitutedConstants, countFor(Source, PipelineOptions()));
}

TEST(Pipeline, IntraOnlyIgnoresInterproceduralFlow) {
  const char *Source = R"(proc main()
  integer n
  n = 2
  print n
  call f(5)
end
proc f(x)
  print x
end
)";
  PipelineOptions Intra;
  Intra.IntraproceduralOnly = true;
  EXPECT_EQ(countFor(Source, Intra), 1u);    // only 'n'
  EXPECT_EQ(countFor(Source, PipelineOptions()), 2u);
}

TEST(Pipeline, SolverStrategyDoesNotChangeResults) {
  const WorkloadProgram &W = benchmarkSuite()[2]; // fpppp
  PipelineOptions A;
  PipelineOptions B;
  B.Strategy = SolverStrategy::RoundRobin;
  EXPECT_EQ(countFor(W.Source, A), countFor(W.Source, B));
}

//===----------------------------------------------------------------------===//
// The paper's structural findings as properties over the entire suite.
//===----------------------------------------------------------------------===//

class PipelineSuiteTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PipelineSuiteTest, KindHierarchyIsMonotone) {
  const WorkloadProgram &W = benchmarkSuite()[GetParam()];
  unsigned Lit = countFor(W.Source, withKind(JumpFunctionKind::Literal));
  unsigned Intra =
      countFor(W.Source, withKind(JumpFunctionKind::IntraConst));
  unsigned Pass =
      countFor(W.Source, withKind(JumpFunctionKind::PassThrough));
  unsigned Poly =
      countFor(W.Source, withKind(JumpFunctionKind::Polynomial));
  EXPECT_LE(Lit, Intra);
  EXPECT_LE(Intra, Pass);
  EXPECT_LE(Pass, Poly);
  // The paper's empirical headline: pass-through ties polynomial.
  EXPECT_EQ(Pass, Poly);
}

TEST_P(PipelineSuiteTest, ReturnJfsNeverHurt) {
  const WorkloadProgram &W = benchmarkSuite()[GetParam()];
  PipelineOptions NoRjf;
  NoRjf.UseReturnJumpFunctions = false;
  EXPECT_LE(countFor(W.Source, NoRjf),
            countFor(W.Source, PipelineOptions()));
}

TEST_P(PipelineSuiteTest, ModNeverHurts) {
  const WorkloadProgram &W = benchmarkSuite()[GetParam()];
  PipelineOptions NoMod;
  NoMod.UseMod = false;
  EXPECT_LE(countFor(W.Source, NoMod),
            countFor(W.Source, PipelineOptions()));
}

TEST_P(PipelineSuiteTest, CompleteNeverHurtsAndConvergesInOneRound) {
  const WorkloadProgram &W = benchmarkSuite()[GetParam()];
  PipelineOptions Complete;
  Complete.CompletePropagation = true;
  PipelineResult R = runPipeline(W.Source, Complete);
  ASSERT_TRUE(R.Ok);
  EXPECT_GE(R.SubstitutedConstants,
            countFor(W.Source, PipelineOptions()));
  EXPECT_LE(R.DceRounds, 1u); // Paper: one DCE pass sufficed.
}

TEST_P(PipelineSuiteTest, IntraOnlyIsALowerBound) {
  const WorkloadProgram &W = benchmarkSuite()[GetParam()];
  PipelineOptions Intra;
  Intra.IntraproceduralOnly = true;
  EXPECT_LE(countFor(W.Source, Intra),
            countFor(W.Source, PipelineOptions()));
}

TEST_P(PipelineSuiteTest, TransformedSourceIsStable) {
  // Substituting the constants and re-analyzing must find at least as
  // many constants (substitution only strengthens the program), and the
  // transformed source must still be a valid program.
  const WorkloadProgram &W = benchmarkSuite()[GetParam()];
  PipelineOptions Opts;
  Opts.EmitTransformedSource = true;
  PipelineResult First = runPipeline(W.Source, Opts);
  ASSERT_TRUE(First.Ok);
  PipelineResult Second = runPipeline(First.TransformedSource, Opts);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_GE(Second.SubstitutedConstants, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PipelineSuiteTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return benchmarkSuite()[Info.param].Name;
    });

TEST(PipelineConvergence, MultiRoundProgramConverges) {
  PipelineOptions Opts;
  Opts.CompletePropagation = true;
  PipelineResult R = runPipeline(TwoRoundSource, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.DceRounds, 2u);
  EXPECT_EQ(R.FoldedBranches, 2u);
}

TEST(PipelineConvergence, BoundIsARealRuntimeCheck) {
  // Regression: the convergence bound used to be an assert, which a
  // Release build strips — a non-converging propagate/DCE cycle would
  // loop forever. It must be a real check that fails the pipeline.
  PipelineOptions Opts;
  Opts.CompletePropagation = true;
  Opts.MaxDceRounds = 1;
  PipelineResult R = runPipeline(TwoRoundSource, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("failed to converge"), std::string::npos)
      << R.Error;
}

TEST(PipelineConvergence, ExactBoundSuffices) {
  PipelineOptions Opts;
  Opts.CompletePropagation = true;
  Opts.MaxDceRounds = 2;
  PipelineResult R = runPipeline(TwoRoundSource, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.DceRounds, 2u);
}
