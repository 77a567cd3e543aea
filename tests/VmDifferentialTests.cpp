//===- tests/VmDifferentialTests.cpp - VM vs interpreter wall -------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-differential wall: the bytecode VM must be observationally
/// indistinguishable from the normative AST interpreter on every program
/// this project can produce — the 12 suite programs, hundreds of seeded
/// random programs and their substituted/inlined/cloned variants under
/// every fuzz configuration, and every curated corpus entry (directly,
/// and through the server's fuzz-replay and validate methods). Identity
/// means the full observable record: PRINT trace, READ consumption, step
/// count, termination status with trap location, and final global/array
/// state.
///
/// Built as its own binary (ipcp_vm_tests) under the 'check-vm' CTest
/// label; the fast hand-written trap-parity pins live in tier-1
/// VmTests.cpp.
///
//===----------------------------------------------------------------------===//

#include "exec/ExecEngine.h"
#include "exec/Oracle.h"
#include "fuzz/Corpus.h"
#include "fuzz/Fuzzer.h"
#include "ipcp/Cloning.h"
#include "ipcp/Inliner.h"
#include "ipcp/Pipeline.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "support/FuzzFeedback.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace ipcp;

namespace {

/// READ seeds every identity check executes under.
const std::vector<uint64_t> kReadSeeds = {1, 2, 7};

/// Step budget for the sweeps: large enough that most random programs
/// terminate on their own, small enough that the step-limit trap path is
/// exercised too.
constexpr uint64_t kMaxSteps = 20000;

struct Checked {
  std::unique_ptr<AstContext> Ctx;
  SymbolTable Symbols;
  std::string Error;

  bool ok() const { return Error.empty(); }
};

Checked check(const std::string &Source) {
  Checked C;
  DiagnosticEngine Diags;
  C.Ctx = parseProgram(Source, Diags);
  if (!Diags.hasErrors())
    C.Symbols = Sema::run(*C.Ctx, Diags);
  if (Diags.hasErrors())
    C.Error = Diags.str();
  return C;
}

void expectSameRun(const RunResult &Ast, const RunResult &Vm,
                   const std::string &What) {
  EXPECT_EQ(Ast.Status, Vm.Status)
      << What << "\nast: " << Ast.str() << "\nvm:  " << Vm.str();
  EXPECT_EQ(Ast.TrapLoc.str(), Vm.TrapLoc.str()) << What;
  EXPECT_EQ(Ast.Prints, Vm.Prints) << What;
  EXPECT_EQ(Ast.Steps, Vm.Steps) << What;
  EXPECT_EQ(Ast.ReadsConsumed, Vm.ReadsConsumed) << What;
  EXPECT_EQ(Ast.FinalGlobals, Vm.FinalGlobals) << What;
  EXPECT_EQ(Ast.FinalGlobalArrays, Vm.FinalGlobalArrays) << What;
}

/// Runs \p Source under both engines across every READ seed and expects
/// full observable identity. Returns the VM statuses seen (for trap
/// coverage accounting).
std::vector<RunStatus> expectEngineIdentity(const std::string &Source,
                                            const std::string &What) {
  std::vector<RunStatus> Seen;
  Checked C = check(Source);
  if (!C.ok()) {
    ADD_FAILURE() << What << ": does not parse: " << C.Error;
    return Seen;
  }
  ProgramRunner Ast(C.Ctx->program(), C.Symbols, ExecEngine::Ast);
  ProgramRunner Vm(C.Ctx->program(), C.Symbols, ExecEngine::Vm);
  for (uint64_t Seed : kReadSeeds) {
    RunOptions RO;
    RO.ReadSeed = Seed;
    RO.Limits.MaxSteps = kMaxSteps;
    RunResult A = Ast.run(RO);
    RunResult V = Vm.run(RO);
    expectSameRun(A, V, What + " (read-seed " + std::to_string(Seed) + ")");
    Seen.push_back(V.Status);
  }
  return Seen;
}

//===----------------------------------------------------------------------===//
// Suite programs
//===----------------------------------------------------------------------===//

class VmSuiteIdentityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(VmSuiteIdentityTest, TraceIdentical) {
  const WorkloadProgram &W = benchmarkSuite()[GetParam()];
  expectEngineIdentity(W.Source, W.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, VmSuiteIdentityTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return benchmarkSuite()[Info.param].Name;
    });

//===----------------------------------------------------------------------===//
// Random programs x fuzz configs, with their transformed variants
//===----------------------------------------------------------------------===//

/// One seed's whole story: the generated program, its substituted
/// source under each of the 6 fuzz configurations, and its inlined and
/// cloned variants, each trace-identical across engines.
class VmRandomIdentityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmRandomIdentityTest, OriginalAndTransformedTraceIdentical) {
  RandomSpec Spec;
  Spec.Seed = GetParam();
  // Every third seed permits (guarded) recursion so the call-depth
  // machinery is part of the sweep.
  Spec.AllowRecursion = GetParam() % 3 == 0;
  const std::string Source = generateRandomProgram(Spec);
  const std::string Tag = "seed " + std::to_string(GetParam());

  expectEngineIdentity(Source, Tag + " original");

  // The textually substituted program under each fuzz configuration.
  for (const FuzzConfig &FC : fuzzConfigs()) {
    PipelineOptions PO = FC.Pipeline;
    PO.EmitTransformedSource = true;
    PipelineResult P = runPipeline(Source, PO);
    ASSERT_TRUE(P.Ok) << Tag << " " << FC.Name << ": " << P.Error;
    expectEngineIdentity(P.TransformedSource,
                         Tag + " transformed/" + FC.Name);
  }

  // The inlined and cloned variants (configuration-independent).
  {
    Checked C = check(Source);
    ASSERT_TRUE(C.ok()) << Tag;
    InlineResult IR = inlineProgram(*C.Ctx, C.Symbols);
    expectEngineIdentity(IR.Source, Tag + " inlined");
  }
  {
    CloneResult CR = cloneForConstants(Source);
    ASSERT_TRUE(CR.Ok) << Tag << ": " << CR.Error;
    expectEngineIdentity(CR.Source, Tag + " cloned");
  }
}

// 320 seeds x 6 configs (plus original/inlined/cloned per seed), each
// variant executed under every READ seed on both engines.
INSTANTIATE_TEST_SUITE_P(Seeds, VmRandomIdentityTest,
                         ::testing::Range<uint64_t>(1, 321));

//===----------------------------------------------------------------------===//
// Array-cell budget
//===----------------------------------------------------------------------===//

TEST(VmArrayBudget, OversizedDeclarationsTrapIdentically) {
  const std::string Cells = std::to_string(MaxArrayCells);
  const std::string Half = std::to_string(MaxArrayCells / 2 + 1);
  const std::pair<std::string, RunStatus> Cases[] = {
      // A global array past the budget: nothing runs.
      {"global g\narray buf(4000000000)\nproc main()\n  g = 1\n"
       "  print buf(1)\nend\n",
       RunStatus::MemoryLimit},
      // A size that wraps a 32-bit slot count must not slip through.
      {"array buf(4294967297)\nproc main()\n  print buf(1)\nend\n",
       RunStatus::MemoryLimit},
      // Arrays that fit one by one but not together.
      {"array a(" + Half + ")\narray b(" + Half +
           ")\nproc main()\n  print 1\nend\n",
       RunStatus::MemoryLimit},
      // A callee's local array traps at the call, after earlier output.
      {"proc main()\n  print 7\n  call f(3)\nend\n"
       "proc f(x)\n  array w(3000000000)\n  w(1) = x\n  print w(1)\nend\n",
       RunStatus::MemoryLimit},
      // The entry procedure's own locals.
      {"proc main()\n  array w(" + std::to_string(MaxArrayCells + 1) +
           ")\n  print 1\nend\n",
       RunStatus::MemoryLimit},
      // Live frames add up: recursion holding 2^17 cells per frame
      // passes the budget before the depth limit.
      {"proc main()\n  call r(100)\nend\n"
       "proc r(n)\n  array w(131072)\n  if (n > 0) then\n"
       "    call r(n - 1)\n  end if\nend\n",
       RunStatus::MemoryLimit},
      // Returned frames give their cells back: the whole budget, in
      // turn, many times over.
      {"proc main()\n  integer i\n  do i = 1, 8\n    call f(i)\n  end do\n"
       "end\nproc f(x)\n  array w(" + Cells + ")\n  w(" + Cells +
           ") = x\n  print w(" + Cells + ")\nend\n",
       RunStatus::Ok},
  };
  for (const auto &[Source, Want] : Cases)
    for (RunStatus Got : expectEngineIdentity(Source, Source))
      EXPECT_EQ(Got, Want) << Source;
}

TEST(VmRandomSweep, ExercisesTrapsAndCompletions) {
  // The wall is only as strong as its coverage: across a slice of the
  // sweep, programs must both complete and trap.
  std::map<RunStatus, unsigned> Statuses;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    RandomSpec Spec;
    Spec.Seed = Seed;
    for (RunStatus S :
         expectEngineIdentity(generateRandomProgram(Spec),
                              "sweep seed " + std::to_string(Seed)))
      ++Statuses[S];
  }
  EXPECT_GT(Statuses[RunStatus::Ok], 0u);
  EXPECT_GE(Statuses.size(), 2u)
      << "no random program trapped; the differential wall is not "
         "exercising the trap paths";
}

//===----------------------------------------------------------------------===//
// Oracle engine equivalence
//===----------------------------------------------------------------------===//

/// The whole oracle — trace comparisons, substituted-use checks,
/// CONSTANTS(p) entry checks, inliner and cloning validation — must
/// reach identical verdicts and identical check counts under either
/// engine.
class VmOracleEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(VmOracleEquivalenceTest, OracleResultsIdentical) {
  RandomSpec Spec;
  Spec.Seed = GetParam() * 7919 + 13; // Decorrelate from the main sweep.
  const std::string Source = generateRandomProgram(Spec);

  for (const FuzzConfig &FC : fuzzConfigs()) {
    OracleOptions OO;
    OO.Pipeline = FC.Pipeline;
    OO.Limits.MaxSteps = kMaxSteps;
    OO.CheckInliner = true;
    OO.CheckCloning = true;

    OO.Engine = ExecEngine::Vm;
    OracleResult Vm = validateTranslation(Source, OO);
    OO.Engine = ExecEngine::Ast;
    OracleResult Ast = validateTranslation(Source, OO);

    EXPECT_EQ(Ast.Ok, Vm.Ok) << FC.Name << "\nast: " << Ast.Error
                             << "\nvm: " << Vm.Error;
    EXPECT_EQ(Ast.Error, Vm.Error) << FC.Name;
    EXPECT_EQ(Ast.RunsExecuted, Vm.RunsExecuted) << FC.Name;
    EXPECT_EQ(Ast.TraceComparisons, Vm.TraceComparisons) << FC.Name;
    EXPECT_EQ(Ast.SubstitutedUseChecks, Vm.SubstitutedUseChecks) << FC.Name;
    EXPECT_EQ(Ast.EntryConstantChecks, Vm.EntryConstantChecks) << FC.Name;
    EXPECT_EQ(Ast.TraceDivergences, Vm.TraceDivergences) << FC.Name;
    EXPECT_EQ(Ast.ConstantMismatches, Vm.ConstantMismatches) << FC.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmOracleEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 25));

//===----------------------------------------------------------------------===//
// Corpus replay parity
//===----------------------------------------------------------------------===//

std::vector<CorpusEntry> curatedCorpus() {
  std::vector<std::string> Diags;
  std::vector<CorpusEntry> Entries = loadCorpusDir(IPCP_TEST_CORPUS_DIR,
                                                   &Diags);
  EXPECT_TRUE(Diags.empty());
  EXPECT_FALSE(Entries.empty()) << "no corpus at " IPCP_TEST_CORPUS_DIR;
  return Entries;
}

TEST(VmCorpusParity, EntriesTraceIdenticalAndReplayCleanOnBothEngines) {
  std::vector<CorpusEntry> Entries = curatedCorpus();
  bool SawNonmonotone = false;
  for (const CorpusEntry &E : Entries) {
    SawNonmonotone = SawNonmonotone || E.Name == "count-nonmonotone";
    expectEngineIdentity(E.Source, "corpus " + E.Name);

    // The fuzzer's full evaluation (all configs + oracle) must pass and
    // light the identical feature-bit set under either engine.
    FuzzOptions FO;
    FuzzFeedback VmFb, AstFb;
    FO.Engine = ExecEngine::Vm;
    std::optional<FuzzFailure> VmFail = evaluateProgram(E.Source, VmFb, FO);
    FO.Engine = ExecEngine::Ast;
    std::optional<FuzzFailure> AstFail =
        evaluateProgram(E.Source, AstFb, FO);
    EXPECT_FALSE(VmFail) << E.Name << ": " << VmFail->Detail;
    EXPECT_FALSE(AstFail) << E.Name << ": " << AstFail->Detail;
    EXPECT_EQ(VmFb.countBits(), AstFb.countBits()) << E.Name;
    EXPECT_FALSE(VmFb.wouldAddNovel(AstFb)) << E.Name;
    EXPECT_FALSE(AstFb.wouldAddNovel(VmFb)) << E.Name;
  }
  EXPECT_TRUE(SawNonmonotone)
      << "count-nonmonotone.mf missing from the corpus";
}

//===----------------------------------------------------------------------===//
// Server request paths
//===----------------------------------------------------------------------===//

/// Drives the server's fuzz-replay method for one corpus entry under
/// both engines; the reply lines must be byte-identical.
TEST(VmServeParity, FuzzReplayRepliesByteIdenticalAcrossEngines) {
  Server S({.Workers = 1});
  for (const CorpusEntry &E : curatedCorpus()) {
    std::string Raw;
    {
      std::ifstream In(std::string(IPCP_TEST_CORPUS_DIR "/") + E.Name +
                       ".mf");
      ASSERT_TRUE(In) << E.Name;
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Raw = Buf.str();
    }
    std::string VmReply = S.handle(
        "{\"id\":\"r\",\"method\":\"fuzz-replay\",\"params\":{\"entry\":" +
        JsonValue(Raw).dump() + "}}");
    std::string AstReply = S.handle(
        "{\"id\":\"r\",\"method\":\"fuzz-replay\",\"params\":{\"entry\":" +
        JsonValue(Raw).dump() + ",\"exec\":\"ast\"}}");
    std::string ParseError;
    std::optional<JsonValue> Parsed = parseJson(VmReply, ParseError);
    ASSERT_TRUE(Parsed && Parsed->isObject()) << VmReply;
    EXPECT_TRUE(Parsed->boolOr("ok", false)) << E.Name << ": " << VmReply;
    EXPECT_FALSE(Parsed->find("result")->boolOr("failed", true)) << E.Name;
    EXPECT_EQ(VmReply, AstReply) << E.Name;
  }
}

TEST(VmServeParity, ValidateRepliesByteIdenticalAcrossEngines) {
  Server S({.Workers = 1});
  RandomSpec Spec;
  Spec.Seed = 11;
  std::string Src = JsonValue(generateRandomProgram(Spec)).dump();
  std::string VmReply = S.handle(
      "{\"id\":\"v\",\"method\":\"validate\",\"params\":{\"source\":" +
      Src + ",\"max_steps\":20000}}");
  std::string AstReply = S.handle(
      "{\"id\":\"v\",\"method\":\"validate\",\"params\":{\"source\":" +
      Src + ",\"max_steps\":20000,\"exec\":\"ast\"}}");
  std::string ParseError;
  std::optional<JsonValue> Parsed = parseJson(VmReply, ParseError);
  ASSERT_TRUE(Parsed && Parsed->isObject()) << VmReply;
  EXPECT_TRUE(Parsed->boolOr("ok", false)) << VmReply;
  EXPECT_TRUE(Parsed->find("result")->boolOr("valid", false)) << VmReply;
  EXPECT_EQ(VmReply, AstReply);
}

TEST(VmServeParity, RejectsUnknownEngineName) {
  Server S({.Workers = 1});
  std::string Reply = S.handle(
      "{\"id\":\"x\",\"method\":\"validate\",\"params\":{\"source\":"
      "\"proc main()\\nend\\n\",\"exec\":\"jit\"}}");
  std::string ParseError;
  std::optional<JsonValue> Parsed = parseJson(Reply, ParseError);
  ASSERT_TRUE(Parsed && Parsed->isObject()) << Reply;
  EXPECT_FALSE(Parsed->boolOr("ok", true));
  EXPECT_EQ(Parsed->find("error")->strOr("kind", ""), "malformed");
}

} // namespace
