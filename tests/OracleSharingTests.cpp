//===- tests/OracleSharingTests.cpp - Shared-evaluation oracle tests ------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
// evaluateProgram validates all ten fuzz configurations of a candidate on
// one OracleProgram: one parse, one session, one observed reference run
// per READ seed that every configuration's claims are checked against,
// and cached traces of the derived programs. These tests pin that sharing
// to the plain answer. Over the 15 suite
// programs, every tests/corpus/ entry, 100 random programs and a program
// whose complete-propagation fold changes how far a step-limited loop
// gets, each configuration's OracleResult from one OracleProgram driven
// as evaluateProgram drives it must equal a separate validateTranslation
// of that configuration, and the separate results must equal
// tests/golden/oracle_sharing.golden: the counters, the outcome and a
// hash of the diagnostics, with the first failure evaluateProgram
// reports (Kind/Config/Detail) per program. The OracleObservation tests
// pin the claim check against the observation to what a replay of the
// claims reports, on contradicted, unreached and step-limited claims. The snapshot was recorded
// with the one-validation-per-configuration oracle that OracleProgram
// replaced. Regenerate intentionally by running ipcp_coverage_fuzz_tests
// with IPCP_REGEN_GOLDEN=1 and
// --gtest_filter=OracleSharing.SharedEvaluationMatchesSeparateValidations.
//
//===----------------------------------------------------------------------===//

#include "exec/Oracle.h"
#include "fuzz/Corpus.h"
#include "fuzz/Fuzzer.h"
#include "lang/Parser.h"
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

// Two runs whose claims differ must not share a claim check: each is
// checked against the observation on its own.
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

namespace {

/// Every reporting scalar use of \p Source's run under \p Limits and
/// READ seed \p Seed, as (id, value) in execution order.
std::vector<std::pair<ExprId, int64_t>>
observedUses(const std::string &Source, const RunLimits &Limits,
             uint64_t Seed) {
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(Source, Diags);
  SymbolTable Symbols = Sema::run(*Ctx, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  std::vector<std::pair<ExprId, int64_t>> Uses;
  ExecHooks Hooks;
  Hooks.OnVarUse = [&](ExprId Id, int64_t V) { Uses.push_back({Id, V}); };
  RunOptions RO;
  RO.Limits = Limits;
  RO.ReadSeed = Seed;
  ProgramRunner(Ctx->program(), Symbols).run(RO, &Hooks);
  return Uses;
}

} // namespace

// A substituted use that first shows its claimed value and later another
// is a mismatch, reported per execution in order, exactly as a replay of
// the claim reports it.
TEST(OracleObservation, UseThatVariesAfterItsClaimIsAMismatch) {
  const std::string Source = "proc main()\n"
                             "  integer i, x\n"
                             "  do i = 1, 3\n"
                             "    x = i * 2\n"
                             "    print x\n"
                             "  end do\n"
                             "end\n";
  OracleOptions Opts;
  OracleProgram Prog(Source, Opts);
  PipelineResult Run = Prog.analyze(PipelineOptions());
  ASSERT_TRUE(Run.Ok);
  // The first use to run is i in "x = i * 2": 1, then 2 and 3.
  auto Uses = observedUses(Source, Opts.Limits, 1);
  ASSERT_GE(Uses.size(), 1u);
  ExprId Id = Uses[0].first;
  ASSERT_EQ(Uses[0].second, 1);
  PipelineResult Wrong = Run;
  Wrong.Substitutions = {{Id, 1}};
  OracleResult R = Prog.validate(Wrong, Opts);
  std::string Use = "substituted use #" + std::to_string(Id);
  EXPECT_EQ(R.Error, Use + " (seed 1): claimed constant 1, observed 2\n" +
                         Use + " (seed 1): claimed constant 1, observed 3\n" +
                         Use + " (seed 2): claimed constant 1, observed 2\n" +
                         Use + " (seed 2): claimed constant 1, observed 3");
  EXPECT_EQ(render(R), "ok=0 runs=6 cmp=4 uses=6 entries=0 div=0 mism=4 "
                       "err=" + hashText(R.Error));
  OracleProgram Fresh(Source, Opts);
  EXPECT_EQ(render(R), render(Fresh.validate(Wrong, Opts)));
}

// The same for a CONSTANTS(p) entry claim: a formal bound to the claimed
// value on the first entry and to another on the second.
TEST(OracleObservation, EntryThatVariesAfterItsClaimIsAMismatch) {
  const std::string Source = "proc f(a)\n"
                             "  print a\n"
                             "end\n"
                             "proc main()\n"
                             "  call f(1)\n"
                             "  call f(2)\n"
                             "end\n";
  OracleOptions Opts;
  OracleProgram Prog(Source, Opts);
  PipelineResult Run = Prog.analyze(PipelineOptions());
  ASSERT_TRUE(Run.Ok);
  size_t F = 0;
  while (F != Run.ProcNames.size() && Run.ProcNames[F] != "f")
    ++F;
  ASSERT_LT(F, Run.Constants.size());
  ASSERT_TRUE(Run.Constants[F].empty());
  PipelineResult Wrong = Run;
  Wrong.Constants[F] = {{"a", 1}};
  OracleResult R = Prog.validate(Wrong, Opts);
  EXPECT_EQ(R.Error, "CONSTANTS(f) entry a=1 (seed 1): observed 2 on entry\n"
                     "CONSTANTS(f) entry a=1 (seed 2): observed 2 on entry");
  EXPECT_EQ(render(R), "ok=0 runs=6 cmp=4 uses=0 entries=4 div=0 mism=2 "
                       "err=" + hashText(R.Error));
  OracleProgram Fresh(Source, Opts);
  EXPECT_EQ(render(R), render(Fresh.validate(Wrong, Opts)));
}

// A claimed use that never runs is checked zero times, whatever it
// claims.
TEST(OracleObservation, ClaimedUseThatNeverRunsCountsNoChecks) {
  // READ values lie near zero, so the branch is never taken.
  const std::string Source = "proc main()\n"
                             "  integer x, y\n"
                             "  y = 3\n"
                             "  read x\n"
                             "  if (x == 1000) then\n"
                             "    print y\n"
                             "  end if\n"
                             "  print x\n"
                             "end\n";
  OracleOptions Opts;
  OracleProgram Prog(Source, Opts);
  PipelineResult Run = Prog.analyze(PipelineOptions());
  ASSERT_TRUE(Run.Ok);
  auto Uses = observedUses(Source, Opts.Limits, 1);
  std::optional<ExprId> Dead;
  for (const auto &[Id, Value] : Run.Substitutions) {
    bool Ran = false;
    for (const auto &U : Uses)
      Ran |= U.first == Id;
    if (!Ran)
      Dead = Id;
  }
  ASSERT_TRUE(Dead.has_value()) << "print y in the untaken branch";
  PipelineResult Wrong = Run;
  Wrong.Substitutions = {{*Dead, 99}};
  OracleResult R = Prog.validate(Wrong, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.SubstitutedUseChecks, 0u);
  EXPECT_EQ(R.ConstantMismatches, 0u);
}

// Under a step limit that ends the run mid-loop, the observation counts
// exactly the executions a replay counts, whether a claim holds (the
// observation answers) or one is contradicted (a replay answers).
TEST(OracleObservation, StepLimitedRunCountsLikeAReplay) {
  const std::string Source = "proc main()\n"
                             "  integer i, k\n"
                             "  k = 7\n"
                             "  do i = 1, 100000\n"
                             "    print k + i\n"
                             "  end do\n"
                             "end\n";
  OracleOptions Opts;
  Opts.Limits.MaxSteps = 1001;
  OracleProgram Prog(Source, Opts);
  PipelineResult Run = Prog.analyze(PipelineOptions());
  ASSERT_TRUE(Run.Ok);
  ASSERT_EQ(Run.Substitutions.size(), 1u) << "k in the print";
  ExprId K = Run.Substitutions.begin()->first;
  // i is the other use the print runs.
  std::optional<ExprId> I;
  unsigned KRuns = 0, IRuns = 0;
  for (uint64_t Seed : Opts.ReadSeeds)
    for (const auto &[Id, Value] : observedUses(Source, Opts.Limits, Seed)) {
      if (Id == K) {
        ++KRuns;
      } else {
        I = Id;
        ++IRuns;
      }
    }
  ASSERT_TRUE(I.has_value());
  ASSERT_GT(KRuns, 2u);

  OracleResult Held = Prog.validate(Run, Opts);
  EXPECT_TRUE(Held.Ok) << Held.Error;
  EXPECT_EQ(Held.SubstitutedUseChecks, KRuns);

  PipelineResult Wrong = Run;
  Wrong.Substitutions[*I] = 1;
  OracleResult Contradicted = Prog.validate(Wrong, Opts);
  EXPECT_FALSE(Contradicted.Ok);
  EXPECT_EQ(Contradicted.SubstitutedUseChecks, KRuns + IRuns);
  EXPECT_EQ(Contradicted.ConstantMismatches, IRuns - Opts.ReadSeeds.size());
}

// An entry records only the symbols the engine's lookup resolves.
TEST(OracleObservation, EntryCountsOnlyResolvedSymbols) {
  DiagnosticEngine Diags;
  auto Ctx = parseProgram("global g = 5\n"
                          "proc f(a)\n"
                          "  print a + g\n"
                          "end\n"
                          "proc main()\n"
                          "  call f(4)\n"
                          "end\n",
                          Diags);
  SymbolTable Symbols = Sema::run(*Ctx, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ProcId F = *Ctx->program().findProc("f");
  SymbolId A = Symbols.formals(F).at(0);
  SymbolId G = Symbols.globalScalars().at(0);

  RunObservation Obs(*Ctx, Symbols);
  ExecHooks Hooks = Obs.hooks();
  auto Unresolved = [](SymbolId) -> const int64_t * { return nullptr; };
  Hooks.OnProcEntry(F, Unresolved);
  EXPECT_EQ(Obs.entry(F, A).Count, 0u);
  EXPECT_EQ(Obs.entry(F, G).Count, 0u);
  EXPECT_FALSE(Obs.entry(F, A).contradicts(1));

  const int64_t Four = 4, Five = 5;
  auto Resolved = [&](SymbolId Sym) -> const int64_t * {
    return Sym == A ? &Four : Sym == G ? &Five : nullptr;
  };
  Hooks.OnProcEntry(F, Resolved);
  EXPECT_EQ(Obs.entry(F, A).Count, 1u);
  EXPECT_EQ(Obs.entry(F, G).Count, 1u);
  EXPECT_FALSE(Obs.entry(F, A).contradicts(4));
  EXPECT_TRUE(Obs.entry(F, A).contradicts(3));
  EXPECT_FALSE(Obs.entry(F, G).contradicts(5));
}
