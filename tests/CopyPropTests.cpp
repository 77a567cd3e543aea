//===- tests/CopyPropTests.cpp - The copy-lattice wall --------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
// The copy tier's contract, pinned differentially against the classic
// analysis ('check-copy' label; tools/verify.sh runs it under the
// default and asan presets):
//
//   * Inclusion soundness. Per procedure, every CONSTANTS(p) entry the
//     classic analysis proves is also proved — with the same value —
//     with the copy lattice on, under both the polynomial and the
//     pass-through base kinds. Checked over the 15 extended-suite
//     programs and a 200-seed random sweep with copy-relay shapes on.
//
//   * Ground truth. The substitutions only the copy lattice recovers
//     (cell-mediated relay chains, const-cell handoffs) are validated
//     by the translation-validation oracle, so a cell-kill bug cannot
//     hide behind the inclusion direction.
//
//   * Family gains. Each copy-stress workload family substitutes
//     strictly more under --copy than classically (the issue's
//     acceptance asks for 2 of 3; all 3 hold).
//
//   * Toggle-off identity. With the flag off, a session previously
//     warmed by copy cells still produces results byte-identical to a
//     cold classic run — the lattice leaves no residue in shared state.
//
//===----------------------------------------------------------------------===//

#include "exec/Oracle.h"
#include "ipcp/AnalysisSession.h"
#include "ipcp/JumpFunctionBuilder.h"
#include "ipcp/Pipeline.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

using namespace ipcp;

namespace {

PipelineOptions copyOpts(JumpFunctionKind Kind = JumpFunctionKind::Polynomial) {
  PipelineOptions Opts;
  Opts.Kind = Kind;
  Opts.CopyPropagation = true;
  return Opts;
}

PipelineOptions classicOpts(JumpFunctionKind Kind) {
  PipelineOptions Opts;
  Opts.Kind = Kind;
  return Opts;
}

PipelineResult runOk(const std::string &Source, const PipelineOptions &Opts) {
  PipelineResult R = runPipeline(Source, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R;
}

/// True when every CONSTANTS(p) entry of \p Weak also appears, with the
/// same value, in \p Strong (procedures matched by name). On failure
/// \p Witness names the lost entry. Same-value matching matters: a
/// lattice that "finds" a constant with a different value is a
/// soundness bug, not extra precision.
bool constantsIncluded(const PipelineResult &Weak,
                       const PipelineResult &Strong, std::string &Witness) {
  for (size_t P = 0; P != Weak.ProcNames.size(); ++P) {
    if (Weak.Constants[P].empty())
      continue;
    const std::vector<std::pair<std::string, int64_t>> *Sup = nullptr;
    for (size_t Q = 0; Q != Strong.ProcNames.size(); ++Q)
      if (Strong.ProcNames[Q] == Weak.ProcNames[P]) {
        Sup = &Strong.Constants[Q];
        break;
      }
    for (const auto &Entry : Weak.Constants[P]) {
      bool Found = false;
      if (Sup)
        for (const auto &Have : *Sup)
          if (Have == Entry) {
            Found = true;
            break;
          }
      if (!Found) {
        Witness = Weak.ProcNames[P] + ": " + Entry.first + "=" +
                  std::to_string(Entry.second);
        return false;
      }
    }
  }
  return true;
}

void expectCopyInclusion(const std::string &Source,
                         const std::string &Label) {
  for (JumpFunctionKind Kind :
       {JumpFunctionKind::Polynomial, JumpFunctionKind::PassThrough}) {
    PipelineResult Base = runOk(Source, classicOpts(Kind));
    PipelineResult Copy = runOk(Source, copyOpts(Kind));
    std::string Witness;
    EXPECT_TRUE(constantsIncluded(Base, Copy, Witness))
        << Label << ": copy lattice lost " << Witness;
  }
}

/// Every deterministic field of a PipelineResult, rendered for
/// byte-identity comparisons (the ParallelPipelineTests notion).
std::string fingerprint(const PipelineResult &R) {
  std::ostringstream OS;
  OS << R.Ok << '|' << R.Error << '|' << R.SubstitutedConstants << '|'
     << R.ConstantPrints << '|' << R.KnownButIrrelevant << '|'
     << R.DceRounds << '|' << R.FoldedBranches << '|'
     << R.AliasPointsRefined << '|' << R.GvnPhiMerges << '|'
     << R.CopyLoadsResolved << '\n';
  OS << "perproc:";
  for (unsigned N : R.PerProcSubstituted)
    OS << ' ' << N;
  OS << "\nconstants:\n";
  for (size_t P = 0; P != R.Constants.size(); ++P) {
    OS << "  [" << P << "]";
    for (const auto &[Name, Value] : R.Constants[P])
      OS << " (" << Name << ',' << Value << ')';
    OS << '\n';
  }
  std::map<ExprId, int64_t> Subs(R.Substitutions.begin(),
                                 R.Substitutions.end());
  OS << "subs:";
  for (const auto &[Id, Value] : Subs)
    OS << ' ' << Id << '=' << Value;
  OS << "\nsource:" << R.TransformedSource;
  return OS.str();
}

/// A two-hop cell relay: classically the buf(1) actual is an opaque
/// load, so relay and leaf see nothing; the copy lattice folds the whole
/// chain to 7.
const char *CellRelaySource = R"(proc main()
  call relay(7)
end
proc relay(x)
  array buf(8)
  buf(1) = x
  call leaf(buf(1))
end
proc leaf(p)
  print p * 2
  print p * 5
end
)";

/// A const-cell handoff plus an in-procedure resolved load — the pure
/// Const(c) fact, no scalar stability involved.
const char *ConstCellSource = R"(proc main()
  array c(4)
  c(2) = 9
  print c(2) + 1
  call leaf(c(2))
end
proc leaf(p)
  print p * 3
end
)";

/// A store through a variable index between the stash and the call:
/// the smash must kill the cell, so the copy run equals the classic one.
const char *SmashedCellSource = R"(proc main()
  integer i
  array buf(8)
  read i
  buf(1) = 5
  buf(i) = 0
  call leaf(buf(1))
end
proc leaf(p)
  print p * 2
end
)";

} // namespace

//===----------------------------------------------------------------------===//
// Inclusion over the extended suite.
//===----------------------------------------------------------------------===//

class CopySuiteTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CopySuiteTest, ClassicConstantsSurviveTheCopyLattice) {
  const WorkloadProgram &W = extendedSuite()[GetParam()];
  expectCopyInclusion(W.Source, W.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CopySuiteTest, ::testing::Range<size_t>(0, 15),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return extendedSuite()[Info.param].Name;
    });

//===----------------------------------------------------------------------===//
// Inclusion over a random sweep.
//===----------------------------------------------------------------------===//

TEST(CopyDifferential, RandomProgramsNeverLoseConstants) {
  // 200 seeds with the copy-relay shapes on, rotating size/recursion
  // profiles so globals, aliasing calls, and recursion all appear
  // alongside the relay stores.
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RandomSpec Spec;
    Spec.Seed = Seed;
    Spec.Procs = 4 + int(Seed % 5);
    Spec.Globals = 1 + int(Seed % 4);
    Spec.AllowRecursion = Seed % 3 == 0;
    Spec.CopyRelayStores = true;
    std::string Source = generateRandomProgram(Spec);
    expectCopyInclusion(Source, "seed " + std::to_string(Seed));
  }
}

//===----------------------------------------------------------------------===//
// The recovered substitutions, against ground truth.
//===----------------------------------------------------------------------===//

TEST(CopyDifferential, CellRelayRecoveryIsRealAndOracleValid) {
  PipelineResult Base = runOk(CellRelaySource, PipelineOptions());
  PipelineResult Copy = runOk(CellRelaySource, copyOpts());
  // Classically the chain dies at the opaque buf(1) actual; the copy
  // lattice recovers leaf's two uses plus relay's store operand.
  EXPECT_LT(Base.SubstitutedConstants, Copy.SubstitutedConstants);
  EXPECT_GE(Copy.CopyLoadsResolved, 1u);

  OracleOptions OO;
  OO.Pipeline = copyOpts();
  OracleResult R = validateTranslation(CellRelaySource, OO);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.SubstitutedUseChecks, 0u);
  EXPECT_EQ(R.ConstantMismatches, 0u);
}

TEST(CopyDifferential, ConstCellRecoveryIsRealAndOracleValid) {
  PipelineResult Base = runOk(ConstCellSource, PipelineOptions());
  PipelineResult Copy = runOk(ConstCellSource, copyOpts());
  // The in-main print and the leaf's use both fold only under copy.
  EXPECT_LT(Base.SubstitutedConstants, Copy.SubstitutedConstants);
  EXPECT_GE(Copy.CopyLoadsResolved, 2u);

  OracleOptions OO;
  OO.Pipeline = copyOpts();
  OracleResult R = validateTranslation(ConstCellSource, OO);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.SubstitutedUseChecks, 0u);
  EXPECT_EQ(R.ConstantMismatches, 0u);
}

TEST(CopyDifferential, VariableIndexStoreKillsTheCell) {
  PipelineResult Base = runOk(SmashedCellSource, PipelineOptions());
  PipelineResult Copy = runOk(SmashedCellSource, copyOpts());
  // The buf(i) smash between the stash and the call must kill the
  // Const(5) fact: same substitutions, and the oracle agrees.
  EXPECT_EQ(Base.SubstitutedConstants, Copy.SubstitutedConstants);

  OracleOptions OO;
  OO.Pipeline = copyOpts();
  OracleResult R = validateTranslation(SmashedCellSource, OO);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ConstantMismatches, 0u);
}

TEST(CopyDifferential, EveryCopyFamilyGainsAndSurvivesTheOracle) {
  // The issue's acceptance: --copy substitutes strictly more than
  // classic on at least 2 of the 3 new families. All 3 gain, under both
  // base kinds, and the upgraded substitutions execute correctly.
  for (const WorkloadProgram &P : copyStressPrograms()) {
    for (JumpFunctionKind Kind :
         {JumpFunctionKind::Polynomial, JumpFunctionKind::PassThrough}) {
      PipelineResult Base = runOk(P.Source, classicOpts(Kind));
      PipelineResult Copy = runOk(P.Source, copyOpts(Kind));
      EXPECT_LT(Base.SubstitutedConstants, Copy.SubstitutedConstants)
          << P.Name;
      EXPECT_GT(Copy.CopyLoadsResolved, 0u) << P.Name;
      OracleOptions OO;
      OO.Pipeline = copyOpts(Kind);
      OracleResult R = validateTranslation(P.Source, OO);
      EXPECT_TRUE(R.Ok) << P.Name << ": " << R.Error;
      EXPECT_EQ(R.ConstantMismatches, 0u) << P.Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// A recovered copy is an ordinary pass-through.
//===----------------------------------------------------------------------===//

TEST(CopyJumpFunctions, CellRelayActualIsAPassThrough) {
  // relay's leaf(buf(1)) actual: under copy propagation buf(1) provably
  // holds the entry value of the stable formal x, so the builder emits
  // exactly the jump function a direct `call leaf(x)` gets. Classically
  // the load is opaque and the actual transmits nothing.
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(CellRelaySource, Diags);
  SymbolTable Symbols = Sema::run(*Ctx, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  AnalysisSession Session(*Ctx, Symbols);
  ProcId Relay = *Ctx->program().findProc("relay");
  SymbolId X = Symbols.formals(Relay).at(0);

  JumpFunctionOptions Classic, Copy;
  Copy.CopyPropagation = true;
  for (const JumpFunctionOptions &Opts : {Classic, Copy}) {
    ProgramJumpFunctions Jfs = buildJumpFunctions(Session, Opts);
    ASSERT_EQ(Jfs.PerSite[Relay].size(), 1u);
    const JumpFunction &Actual = Jfs.PerSite[Relay][0].Args.at(0);
    std::string Fp;
    Actual.appendFingerprint(Fp);
    if (Opts.CopyPropagation) {
      EXPECT_EQ(Actual.form(), JumpFunction::Form::PassThrough);
      EXPECT_EQ(Actual.support(), std::vector<SymbolId>{X});
      EXPECT_EQ(Fp, "P" + std::to_string(X) + ";");
    } else {
      EXPECT_TRUE(Actual.isBottom()) << Fp;
    }
    // The forward breakdown accounts for every function, recovered or not.
    const JumpFunctionStats &St = Jfs.Stats;
    EXPECT_EQ(St.NumForward, St.NumForwardConst + St.NumForwardPassThrough +
                                 St.NumForwardPoly + St.NumForwardBottom);
  }
}

//===----------------------------------------------------------------------===//
// Toggle-off identity.
//===----------------------------------------------------------------------===//

TEST(CopyDifferential, WarmedSessionLeavesClassicResultsByteIdentical) {
  // Copy cells must not perturb shared analysis state: after copy runs
  // warmed a session's caches (the CopyPropInfo slots, 6-bit-keyed jump
  // function bases, copy-aware solver memo entries), a default run over
  // the same session is byte-identical to a cold classic run.
  std::vector<WorkloadProgram> Programs = copyStressPrograms();
  Programs.push_back(benchmarkSuite()[1]);  // doduc
  Programs.push_back(benchmarkSuite()[11]); // trfd
  for (const WorkloadProgram &W : Programs) {
    PipelineOptions Classic;
    Classic.EmitTransformedSource = true;
    std::string Cold = fingerprint(runOk(W.Source, Classic));

    DiagnosticEngine Diags;
    auto Ctx = parseProgram(W.Source, Diags);
    SymbolTable Symbols = Sema::run(*Ctx, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    AnalysisSession Session(*Ctx, Symbols);
    PipelineOptions Poly = copyOpts();
    Poly.EmitTransformedSource = true;
    PipelineOptions Pass = copyOpts(JumpFunctionKind::PassThrough);
    Pass.EmitTransformedSource = true;
    ASSERT_TRUE(runPipelineOnSession(Session, Poly).Ok);
    ASSERT_TRUE(runPipelineOnSession(Session, Pass).Ok);
    PipelineResult Warm = runPipelineOnSession(Session, Classic);
    ASSERT_TRUE(Warm.Ok) << Warm.Error;
    EXPECT_EQ(Cold, fingerprint(Warm)) << W.Name;
  }
}
