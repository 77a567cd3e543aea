//===- fuzz/Fuzzer.cpp - Coverage-guided fuzzing loop ---------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "exec/Oracle.h"
#include "fuzz/AstEdit.h"
#include "fuzz/FuzzRng.h"
#include "fuzz/Mutator.h"
#include "fuzz/Reducer.h"
#include "ipcp/AnalysisConfig.h"
#include "ipcp/Cloning.h"
#include "ipcp/Inliner.h"
#include "support/FuzzFeedback.h"
#include "workloads/RandomProgram.h"

#include <chrono>
#include <cstdio>
#include <ostream>

using namespace ipcp;

const std::vector<FuzzConfig> &ipcp::fuzzConfigs() {
  static const std::vector<FuzzConfig> Configs = [] {
    std::vector<FuzzConfig> C;
    // Index 0 is the reference point of every hierarchy comparison; the
    // checks below also address the others by index.
    for (auto [Name, Flags] : {std::pair{"poly", ""},
                               {"literal", "--jf=literal"},
                               {"pass-nomod", "--jf=pass --no-mod"},
                               {"poly-complete", "--complete"},
                               {"intra-only", "--intra-only"},
                               {"poly-gsa", "--gsa"},
                               {"poly-fsa", "--fsa"},
                               {"poly-ogvn", "--ogvn"},
                               {"poly-copy", "--copy"},
                               {"copy", "--jf=pass --copy"}})
      C.push_back({Name, optionsFromFlags(Flags)});
    return C;
  }();
  return Configs;
}

namespace {

FuzzFailure makeFailure(std::string Kind, std::string Config,
                        std::string Detail, const std::string &Source) {
  FuzzFailure F;
  F.Kind = std::move(Kind);
  F.Config = std::move(Config);
  F.Detail = std::move(Detail);
  F.Source = Source;
  return F;
}

/// The "same result" notion solver strategies must agree on: everything
/// except timings (which FuzzTests also pins down for whole runs).
bool sameAnalysis(const PipelineResult &A, const PipelineResult &B) {
  return A.SubstitutedConstants == B.SubstitutedConstants &&
         A.PerProcSubstituted == B.PerProcSubstituted &&
         A.Constants == B.Constants && A.NeverCalled == B.NeverCalled;
}

/// True when every CONSTANTS(p) entry of \p Weak also appears in
/// \p Strong (procedures matched by name). This is the *sound* form of
/// the jump-function hierarchy: a weaker configuration may know fewer
/// entry constants, never more and never different values. Substituted
/// *counts* are deliberately not compared — knowing more constants can
/// fold a branch and unreach substitutable uses, so count monotonicity
/// has counterexamples (this fuzzer found them).
bool constantsSubset(const PipelineResult &Weak,
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

} // namespace

std::optional<FuzzFailure>
ipcp::evaluateProgram(const std::string &Source, FuzzFeedback &FB,
                      const FuzzOptions &Opts) {
  const std::vector<FuzzConfig> &Configs = fuzzConfigs();
  // One parse, one session and one reference run serve every check
  // below: each configuration is analyzed once, and that result feeds
  // both the cross-config checks and its oracle validation.
  OracleRuns Runs;
  Runs.Limits.MaxSteps = Opts.MaxSteps;
  Runs.Engine = Opts.Engine;
  OracleProgram Prog(Source, Runs);
  if (!Prog.parseError().empty())
    return makeFailure("pipeline-error", Configs[0].Name, Prog.parseError(),
                       Source);
  // The transforms' work runs first, while the heap is small: their
  // analyses allocate as the session's do, so the two reuse each other's
  // memory instead of stacking. Their features and checks still come
  // after the strategy checks. The cloning transform runs once, at the
  // oracle's bounds: its result gives the clone features and config 0's
  // cloning check.
  std::optional<std::string> InlinerError;
  const CloneResult *Cloned = nullptr;
  if (Opts.CheckTransforms) {
    PipelineResult InlinedRun =
        runPipeline(Prog.inlined().Source, PipelineOptions());
    if (!InlinedRun.Ok)
      InlinerError = InlinedRun.Error;
    else
      Cloned = &Prog.cloned();
  }

  std::vector<PipelineResult> Results;
  Results.reserve(Configs.size());
  for (const FuzzConfig &Cfg : Configs) {
    PipelineOptions PO = Cfg.Pipeline;
    PO.Feedback = &FB;
    PipelineResult R = Prog.analyze(PO);
    if (!R.Ok)
      return makeFailure("pipeline-error", Cfg.Name, R.Error, Source);
    Results.push_back(std::move(R));
  }

  // Cross-config hierarchy, in its sound set-inclusion form: a weaker
  // configuration's CONSTANTS sets are contained in polynomial's, and
  // polynomial's in each refining configuration's — gated SSA,
  // flow-sensitive aliasing, and optimistic numbering. (Substituted
  // counts are NOT compared — see constantsSubset.) Complete propagation
  // that folded nothing must agree with the plain run exactly.
  std::string Witness;
  auto Violation = [&](size_t I, const char *Rel) {
    return makeFailure("hierarchy-violation",
                       Configs[I].Name + Rel + Configs[0].Name,
                       "CONSTANTS entry not contained: " + Witness, Source);
  };
  if (!constantsSubset(Results[1], Results[0], Witness))
    return Violation(1, "<=");
  if (!constantsSubset(Results[2], Results[0], Witness))
    return Violation(2, "<=");
  if (!constantsSubset(Results[0], Results[5], Witness))
    return Violation(5, ">=");
  if (!constantsSubset(Results[0], Results[6], Witness))
    return Violation(6, ">=");
  if (!constantsSubset(Results[0], Results[7], Witness))
    return Violation(7, ">=");
  // The copy lattice only upgrades loads that were BOTTOM classically,
  // so poly's sets are contained in poly-copy's, and the pass-through
  // copy config's sets in poly-copy's (polynomial refines pass-through).
  if (!constantsSubset(Results[0], Results[8], Witness))
    return Violation(8, ">=");
  if (!constantsSubset(Results[9], Results[8], Witness))
    return makeFailure("hierarchy-violation",
                       Configs[9].Name + "<=" + Configs[8].Name,
                       "CONSTANTS entry not contained: " + Witness, Source);
  if (Results[3].FoldedBranches == 0 &&
      Results[3].SubstitutedConstants != Results[0].SubstitutedConstants)
    return makeFailure(
        "hierarchy-violation", "poly-complete==poly",
        "complete propagation folded nothing yet counted " +
            std::to_string(Results[3].SubstitutedConstants) + " vs " +
            std::to_string(Results[0].SubstitutedConstants),
        Source);

  // Solver strategies are alternative fixpoint schedules over the same
  // equations; any visible difference is a solver bug. They run on the
  // now-warm session against poly's run on the cold one, so the check
  // also compares warm results with cold ones.
  for (SolverStrategy S :
       {SolverStrategy::RoundRobin, SolverStrategy::BindingGraph}) {
    PipelineOptions PO = Configs[0].Pipeline;
    PO.Strategy = S;
    PipelineResult R = Prog.analyze(PO);
    if (!R.Ok || !sameAnalysis(Results[0], R))
      return makeFailure(
          "strategy-disagreement",
          solverStrategyToken(S),
          R.Ok ? "results differ from worklist solver" : R.Error, Source);
  }
  if (Opts.CheckTransforms) {
    // Feature-record the transforms' decisions and require their output
    // to stay analyzable; behavioral equivalence is the oracle's job.
    const InlineResult &Inlined = Prog.inlined();
    FB.hit(FuzzFeature::InlinedCalls, Inlined.InlinedCalls);
    FB.hit(FuzzFeature::InlineSkippedRecursive, Inlined.SkippedRecursive);
    FB.hit(FuzzFeature::InlineSkippedHasReturn, Inlined.SkippedHasReturn);
    if (InlinerError)
      return makeFailure("transform-error", "inliner", *InlinerError,
                         Source);
    if (!Cloned->Ok)
      return makeFailure("transform-error", "cloning", Cloned->Error, Source);
    FB.hit(FuzzFeature::ClonesCreated, Cloned->ClonesCreated);
    FB.hit(FuzzFeature::CloneRounds, Cloned->Rounds);
  }

  // Ground truth last (the expensive part): execution traces and claimed
  // constants must survive every configuration's transforms.
  for (size_t I = 0; I != Configs.size(); ++I) {
    OracleChecks OC;
    OC.Pipeline = Configs[I].Pipeline;
    OC.CheckInliner = OC.CheckCloning = I == 0 && Opts.CheckTransforms;
    OracleResult R = Prog.validate(Results[I], OC);
    if (!R.Ok)
      return makeFailure("oracle-mismatch", Configs[I].Name, R.Error,
                         Source);
  }
  return std::nullopt;
}

namespace {

/// Mutable campaign state shared by the corpus-replay phase and the
/// mutation loop.
class Campaign {
public:
  explicit Campaign(const FuzzOptions &Opts)
      : Opts(Opts), Start(std::chrono::steady_clock::now()) {}

  FuzzResult run() {
    std::vector<std::string> CorpusDiags;
    std::vector<CorpusEntry> Corpus =
        loadCorpusDir(Opts.CorpusDir, &CorpusDiags);
    if (Opts.Log)
      for (const std::string &D : CorpusDiags)
        *Opts.Log << "SKIP corpus " << D << "\n";
    FuzzRng Master(Opts.Seed);
    for (unsigned I = 0; I != Opts.SeedPrograms; ++I)
      Corpus.push_back(seedEntry(Master, I));
    if (Corpus.empty())
      return std::move(Result);

    // Replay the starting corpus: it charts the baseline bitmap, and a
    // checked-in reproducer that fails again is a regression.
    for (const CorpusEntry &E : Corpus)
      evaluate(E.Source, E.Trail, /*Iteration=*/0, /*Retain=*/nullptr);

    for (unsigned Iter = 1; Iter <= Opts.Runs; ++Iter) {
      if (overBudget())
        break;
      ++Result.Iterations;
      FuzzRng R = Master.derive(1000 + Iter);
      const CorpusEntry &Parent = Corpus[R.below(int(Corpus.size()))];
      std::string Src = Parent.Source;
      std::string Trail = Parent.Trail;
      if (!mutate(R, Src, Trail)) {
        ++Result.MutantsInvalid;
        continue;
      }
      CorpusEntry Retained;
      if (evaluate(Src, Trail, Iter, &Retained))
        Corpus.push_back(std::move(Retained));
    }
    Result.CorpusSize = Corpus.size();
    Result.FeatureBits = Global.countBits();
    return std::move(Result);
  }

private:
  bool overBudget() const {
    if (Opts.TimeBudgetSec <= 0)
      return false;
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    return Elapsed.count() >= Opts.TimeBudgetSec;
  }

  CorpusEntry seedEntry(const FuzzRng &Master, unsigned I) {
    FuzzRng R = Master.derive(I);
    RandomSpec Spec;
    Spec.Seed = R.next();
    Spec.Procs = 3 + R.below(5);
    Spec.Globals = 1 + R.below(4);
    Spec.MaxStmtsPerProc = 6 + R.below(8);
    Spec.AllowRecursion = R.chance(40);
    CorpusEntry E;
    char Name[32];
    std::snprintf(Name, sizeof(Name), "seed-%03u", I);
    E.Name = Name;
    E.Source = generateRandomProgram(Spec);
    E.OriginSeed = Opts.Seed;
    return E;
  }

  /// Applies 1-3 chained mutations; false when no valid mutant emerged.
  bool mutate(FuzzRng &R, std::string &Src, std::string &Trail) {
    int Count = 1 + R.below(3);
    for (int M = 0; M != Count; ++M) {
      MutationOptions MO;
      MO.Seed = R.next();
      MutationResult MR = mutateProgram(Src, MO);
      if (!MR.Ok)
        return M != 0; // Partial chains still count as mutants.
      Src = MR.Source;
      Trail += (Trail.empty() ? "" : ",") + MR.Trail;
    }
    return true;
  }

  /// Full evaluation of one program: checks + features. Returns true
  /// (and fills \p Retained when non-null) when the program lit novel
  /// bits and should join the corpus.
  bool evaluate(const std::string &Src, const std::string &Trail,
                unsigned Iteration, CorpusEntry *Retained) {
    FuzzFeedback Local;
    std::optional<FuzzFailure> Fail = evaluateProgram(Src, Local, Opts);
    if (Fail) {
      Fail->Iteration = Iteration;
      Fail->Trail = Trail;
      recordFailure(std::move(*Fail));
      return false;
    }
    if (!Global.mergeNovel(Local))
      return false;
    Result.FeatureBitsTimeline.push_back(Global.countBits());
    if (Retained) {
      ++Result.MutantsRetained;
      char Name[32];
      std::snprintf(Name, sizeof(Name), "cov-%06u", Iteration);
      Retained->Name = Name;
      Retained->Source = Src;
      Retained->OriginSeed = Opts.Seed;
      Retained->Trail = Trail;
      if (!Opts.CorpusDir.empty())
        saveCorpusEntry(Opts.CorpusDir, *Retained);
      if (Opts.Log)
        *Opts.Log << "RETAIN iter=" << Iteration
                  << " bits=" << Global.countBits() << " trail=" << Trail
                  << "\n";
    }
    return true;
  }

  void recordFailure(FuzzFailure Fail) {
    // One reproducer per (kind, config) keeps the reduction bill sane; a
    // campaign that trips dozens of distinct checks is reported as such.
    for (const FuzzFailure &Seen : Result.Failures)
      if (Seen.Kind == Fail.Kind && Seen.Config == Fail.Config)
        return;
    if (Result.Failures.size() >= 8)
      return;
    if (Opts.Log)
      *Opts.Log << "FAILURE " << Fail.Kind << " (" << Fail.Config
                << ") iter=" << Fail.Iteration << ": " << Fail.Detail
                << "\n";
    if (Opts.Reduce) {
      FuzzOptions Sub = Opts;
      Sub.Reduce = false;
      Sub.Log = nullptr;
      ReduceOptions RO;
      RO.MaxChecks = Opts.ReduceMaxChecks;
      ReduceResult RR = reduceProgram(
          Fail.Source,
          [&](const std::string &Candidate) {
            FuzzFeedback Scratch;
            std::optional<FuzzFailure> G =
                evaluateProgram(Candidate, Scratch, Sub);
            return G && G->Kind == Fail.Kind && G->Config == Fail.Config;
          },
          RO);
      if (RR.Reduced)
        Fail.Source = RR.Source;
      if (Opts.Log)
        *Opts.Log << "REDUCED " << RR.OriginalBytes << " -> "
                  << RR.ReducedBytes << " bytes in " << RR.ChecksRun
                  << " checks\n";
    }
    if (!Opts.CorpusDir.empty()) {
      CorpusEntry E;
      char Name[48];
      std::snprintf(Name, sizeof(Name), "fail-%06u", Fail.Iteration);
      E.Name = std::string(Name) + "-" + Fail.Kind;
      E.Source = Fail.Source;
      E.OriginSeed = Opts.Seed;
      E.Trail = Fail.Trail;
      E.Failure = Fail.Kind + "/" + Fail.Config;
      saveCorpusEntry(Opts.CorpusDir, E);
    }
    Result.Failures.push_back(std::move(Fail));
  }

  const FuzzOptions &Opts;
  std::chrono::steady_clock::time_point Start;
  FuzzFeedback Global;
  FuzzResult Result;
};

} // namespace

FuzzResult ipcp::runFuzzer(const FuzzOptions &Opts) {
  return Campaign(Opts).run();
}
