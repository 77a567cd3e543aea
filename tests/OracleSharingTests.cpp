//===- tests/OracleSharingTests.cpp - Shared-evaluation oracle tests ------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
// evaluateProgram validates all ten fuzz configurations of a candidate on
// one OracleProgram: one parse, one session, one reference run per READ
// seed, and cached traces of the derived programs and claim replays.
// These tests pin that sharing to the plain answer. Over the 15 suite
// programs, every tests/corpus/ entry, 100 random programs and a program
// whose complete-propagation fold changes how far a step-limited loop
// gets, each configuration's OracleResult from one OracleProgram driven
// as evaluateProgram drives it must equal a separate validateTranslation
// of that configuration, and the separate results must equal
// tests/golden/oracle_sharing.golden: the counters, the outcome and a
// hash of the diagnostics, with the first failure evaluateProgram
// reports (Kind/Config/Detail) per program. The snapshot was recorded
// with the one-validation-per-configuration oracle that OracleProgram
// replaced. Regenerate intentionally by running ipcp_coverage_fuzz_tests
// with IPCP_REGEN_GOLDEN=1 and
// --gtest_filter=OracleSharing.SharedEvaluationMatchesSeparateValidations.
//
//===----------------------------------------------------------------------===//

#include "exec/Oracle.h"
#include "fuzz/Corpus.h"
#include "fuzz/Fuzzer.h"
#include "support/FuzzFeedback.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace ipcp;

#ifndef IPCP_TEST_CORPUS_DIR
#define IPCP_TEST_CORPUS_DIR "tests/corpus"
#endif
#ifndef IPCP_TEST_GOLDEN_DIR
#define IPCP_TEST_GOLDEN_DIR "tests/golden"
#endif

namespace {

struct Candidate {
  std::string Name;
  std::string Source;
};

/// Complete propagation folds the IF, so the DCE'd program spends fewer
/// steps per iteration than the reference and the 30000-step budget ends
/// its loop later: its claims must replay on the DCE'd program, not on
/// the reference.
const char *FoldInStepLimitedLoop = R"(global n = 1

proc main()
  integer i, k
  do i = 1, 100000
    if (n == 1) then
      k = n + 1
    else
      k = n - 1
    end if
    print k
  end do
end
)";

std::vector<Candidate> candidates() {
  std::vector<Candidate> C;
  for (const WorkloadProgram &P : extendedSuite())
    C.push_back({"suite:" + P.Name, P.Source});
  for (const CorpusEntry &E : loadCorpusDir(IPCP_TEST_CORPUS_DIR))
    C.push_back({"corpus:" + E.Name, E.Source});
  for (unsigned I = 0; I != 100; ++I) {
    RandomSpec Spec;
    Spec.Seed = 0x5ea7ed + I;
    Spec.Procs = 3 + int(I % 5);
    Spec.Globals = 1 + int(I % 4);
    Spec.MaxStmtsPerProc = 6 + int(I % 8);
    Spec.AllowRecursion = I % 3 == 0;
    C.push_back({"random:" + std::to_string(I), generateRandomProgram(Spec)});
  }
  C.push_back({"fold-in-step-limited-loop", FoldInStepLimitedLoop});
  return C;
}

/// The evaluation every candidate gets: the fuzzer's defaults.
FuzzOptions evalOptions() {
  FuzzOptions Opts;
  Opts.MaxSteps = 30000;
  return Opts;
}

/// What evaluateProgram validates configuration \p I under.
OracleOptions configOptions(size_t I, const FuzzOptions &FO) {
  OracleOptions OO;
  OO.Pipeline = fuzzConfigs()[I].Pipeline;
  OO.Limits.MaxSteps = FO.MaxSteps;
  OO.Engine = FO.Engine;
  OO.CheckInliner = OO.CheckCloning = I == 0 && FO.CheckTransforms;
  return OO;
}

/// Every configuration's OracleResult from one OracleProgram, driven as
/// evaluateProgram drives it: all ten configurations and the two solver
/// strategies are analyzed before the first validation.
std::vector<OracleResult> sharedResults(const std::string &Source,
                                        const FuzzOptions &FO) {
  OracleProgram Prog(Source, configOptions(0, FO));
  if (!Prog.parseError().empty())
    return {};
  std::vector<PipelineResult> Runs;
  for (const FuzzConfig &Cfg : fuzzConfigs())
    Runs.push_back(Prog.analyze(Cfg.Pipeline));
  for (SolverStrategy S :
       {SolverStrategy::RoundRobin, SolverStrategy::BindingGraph}) {
    PipelineOptions PO = fuzzConfigs()[0].Pipeline;
    PO.Strategy = S;
    Prog.analyze(PO);
  }
  std::vector<OracleResult> Results;
  for (size_t I = 0; I != Runs.size(); ++I)
    Results.push_back(Prog.validate(Runs[I], configOptions(I, FO)));
  return Results;
}

std::string hashText(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ull; // FNV-1a
  for (unsigned char C : Text)
    H = (H ^ C) * 0x100000001b3ull;
  std::ostringstream OS;
  OS << std::hex << H;
  return OS.str();
}

std::string render(const OracleResult &R) {
  std::ostringstream OS;
  OS << "ok=" << R.Ok << " runs=" << R.RunsExecuted
     << " cmp=" << R.TraceComparisons << " uses=" << R.SubstitutedUseChecks
     << " entries=" << R.EntryConstantChecks << " div=" << R.TraceDivergences
     << " mism=" << R.ConstantMismatches << " err=" << hashText(R.Error);
  return OS.str();
}

std::string renderFailure(const std::optional<FuzzFailure> &F) {
  if (!F)
    return "none";
  return F->Kind + "/" + F->Config + "/" + hashText(F->Detail);
}

/// One candidate's snapshot lines, from the given per-configuration
/// results and evaluation outcome.
std::string renderCandidate(const Candidate &C,
                            const std::vector<OracleResult> &Results,
                            const std::optional<FuzzFailure> &Fail) {
  std::string Out;
  for (size_t I = 0; I != Results.size(); ++I)
    Out += C.Name + " " + fuzzConfigs()[I].Name + " " + render(Results[I]) +
           "\n";
  Out += C.Name + " evaluate=" + renderFailure(Fail) + "\n";
  return Out;
}

std::string goldenPath() {
  return std::string(IPCP_TEST_GOLDEN_DIR) + "/oracle_sharing.golden";
}

std::string readGolden() {
  std::ifstream In(goldenPath());
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(OracleSharing, SharedEvaluationMatchesSeparateValidations) {
  FuzzOptions FO = evalOptions();
  std::string Got;
  for (const Candidate &C : candidates()) {
    std::vector<OracleResult> Separate;
    for (size_t I = 0; I != fuzzConfigs().size(); ++I)
      Separate.push_back(validateTranslation(C.Source, configOptions(I, FO)));
    std::vector<OracleResult> Shared = sharedResults(C.Source, FO);
    ASSERT_EQ(Shared.size(), Separate.size()) << C.Name;
    for (size_t I = 0; I != Shared.size(); ++I)
      EXPECT_EQ(render(Shared[I]), render(Separate[I]))
          << C.Name << " under " << fuzzConfigs()[I].Name;
    FuzzFeedback FB;
    Got += renderCandidate(C, Separate, evaluateProgram(C.Source, FB, FO));
  }
  if (std::getenv("IPCP_REGEN_GOLDEN")) {
    std::ofstream Out(goldenPath());
    ASSERT_TRUE(Out) << "cannot write " << goldenPath();
    Out << Got;
    GTEST_SKIP() << "regenerated " << goldenPath();
  }
  EXPECT_EQ(readGolden(), Got);
}

namespace {

const char *Small = "proc main()\n"
                    "  integer x\n"
                    "  x = 4\n"
                    "  print x\n"
                    "end\n";

} // namespace

// Two runs of one configuration with different transformed sources must
// not share traces: the cache is keyed by the text that runs.
TEST(OracleSharing, DerivedTracesAreKeyedBySourceText) {
  OracleOptions Opts;
  OracleProgram Prog(Small, Opts);
  ASSERT_EQ(Prog.parseError(), "");
  PipelineResult Run = Prog.analyze(PipelineOptions());
  ASSERT_TRUE(Run.Ok);
  EXPECT_TRUE(Prog.validate(Run, Opts).Ok);

  PipelineResult Wrong = Run;
  Wrong.TransformedSource = "proc main()\n  print 5\nend\n";
  OracleResult R = Prog.validate(Wrong, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.TraceDivergences, Opts.ReadSeeds.size());
  OracleProgram Fresh(Small, Opts);
  EXPECT_EQ(render(R), render(Fresh.validate(Wrong, Opts)));
}

// Two runs whose claims differ must not share a claim replay.
TEST(OracleSharing, ClaimReplaysAreKeyedByClaims) {
  OracleOptions Opts;
  OracleProgram Prog(Small, Opts);
  PipelineResult Run = Prog.analyze(PipelineOptions());
  ASSERT_TRUE(Run.Ok);
  ASSERT_EQ(Run.Substitutions.size(), 1u);
  EXPECT_TRUE(Prog.validate(Run, Opts).Ok);

  PipelineResult Wrong = Run;
  Wrong.Substitutions.begin()->second = 5;
  OracleResult R = Prog.validate(Wrong, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ConstantMismatches, Opts.ReadSeeds.size());
  OracleProgram Fresh(Small, Opts);
  EXPECT_EQ(render(R), render(Fresh.validate(Wrong, Opts)));
}
