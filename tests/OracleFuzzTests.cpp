//===- tests/OracleFuzzTests.cpp - Seeded oracle fuzzing ------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translation validation at scale: generate hundreds of seeded random
/// programs and run the oracle over every analyzer configuration — all
/// four jump-function kinds, MOD on/off, complete propagation (DCE)
/// on/off. Every trace must match the reference interpreter and every
/// claimed constant must hold at runtime. This is the ground-truth
/// check no differential test can provide: it catches the analyzer
/// being consistently wrong.
///
/// Built as its own binary (ipcp_oracle_tests) under the 'check-oracle'
/// CTest label so the long sweep can be scheduled separately from the
/// tier-1 suite.
///
//===----------------------------------------------------------------------===//

#include "exec/Oracle.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

using namespace ipcp;

namespace {

/// The 16 configurations the acceptance sweep covers:
/// {literal, intra, pass, poly} x {MOD on/off} x {DCE on/off}.
std::vector<PipelineOptions> allConfigs() {
  std::vector<PipelineOptions> Configs;
  for (JumpFunctionKind Kind :
       {JumpFunctionKind::Literal, JumpFunctionKind::IntraConst,
        JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial})
    for (bool Mod : {false, true})
      for (bool Complete : {false, true}) {
        PipelineOptions Opts;
        Opts.Kind = Kind;
        Opts.UseMod = Mod;
        Opts.CompletePropagation = Complete;
        Configs.push_back(Opts);
      }
  return Configs;
}

std::string configName(const PipelineOptions &Opts) {
  std::string Name = jumpFunctionKindName(Opts.Kind);
  Name += Opts.UseMod ? "+mod" : "-mod";
  Name += Opts.CompletePropagation ? "+dce" : "-dce";
  return Name;
}

/// Validates \p Source under every configuration, on one OracleProgram:
/// one parse, session and reference run per READ seed serve all 16. The
/// inliner and cloning transforms are checked once per program (they do
/// not depend on the analyzer configuration) rather than 16 times.
void validateAllConfigs(const std::string &Source) {
  OracleRuns Runs;
  Runs.Limits.MaxSteps = 50000;
  OracleProgram Prog(Source, Runs);
  std::vector<PipelineOptions> Configs = allConfigs();
  // Every configuration is analyzed before the first validation frees
  // the shared session.
  std::vector<PipelineResult> Analyzed;
  if (Prog.parseError().empty())
    for (const PipelineOptions &Config : Configs)
      Analyzed.push_back(Prog.analyze(Config));
  bool CheckTransforms = true;
  for (size_t I = 0; I != Configs.size(); ++I) {
    const PipelineOptions &Config = Configs[I];
    OracleChecks Checks;
    Checks.Pipeline = Config;
    Checks.CheckInliner = CheckTransforms;
    Checks.CheckCloning = CheckTransforms;
    CheckTransforms = false;
    OracleResult R = Analyzed.empty() ? Prog.validate(Checks)
                                      : Prog.validate(Analyzed[I], Checks);
    EXPECT_TRUE(R.Ok) << configName(Config) << ": " << R.Error;
    EXPECT_EQ(R.TraceDivergences, 0u) << configName(Config);
    EXPECT_EQ(R.ConstantMismatches, 0u) << configName(Config);
    EXPECT_GT(R.TraceComparisons, 0u) << configName(Config);
  }
}

class OracleFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleFuzzTest, RandomProgramValidatesUnderEveryConfig) {
  RandomSpec Spec;
  Spec.Seed = GetParam();
  validateAllConfigs(generateRandomProgram(Spec));
}

// 320 fixed program seeds x 16 configurations each (raised from 200
// when the bytecode VM took over oracle execution).
INSTANTIATE_TEST_SUITE_P(Seeds, OracleFuzzTest,
                         ::testing::Range<uint64_t>(1, 321));

class OracleRecursiveFuzzTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(OracleRecursiveFuzzTest, RecursiveProgramValidates) {
  RandomSpec Spec;
  Spec.Seed = GetParam();
  Spec.AllowRecursion = true;
  validateAllConfigs(generateRandomProgram(Spec));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleRecursiveFuzzTest,
                         ::testing::Range<uint64_t>(1, 49));

class OracleLargeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleLargeFuzzTest, LargerProgramValidates) {
  RandomSpec Spec;
  Spec.Seed = GetParam() * 7919; // Decorrelate from the main sweep.
  Spec.Procs = 10;
  Spec.Globals = 5;
  Spec.MaxStmtsPerProc = 16;
  Spec.MaxExprDepth = 4;
  validateAllConfigs(generateRandomProgram(Spec));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleLargeFuzzTest,
                         ::testing::Range<uint64_t>(1, 25));

class OracleSuiteTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OracleSuiteTest, BenchmarkProgramValidatesUnderEveryConfig) {
  validateAllConfigs(benchmarkSuite()[GetParam()].Source);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, OracleSuiteTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return benchmarkSuite()[Info.param].Name;
    });

} // namespace
