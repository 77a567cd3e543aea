//===- perfbench/src/Fuzz.cpp - The "fuzz" workload -----------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Corpus-replay campaigns: runFuzzer over an on-disk corpus of the 15
/// extendedSuite() programs with Runs = 0 and no generated seed
/// programs, single thread,
/// VM engine, CheckTransforms on. Each candidate evaluation is the
/// fuzzer's whole check of one program — the analyzer under every fuzz
/// config, the hierarchy and strategy checks, the inliner and cloning
/// transforms, and the translation-validation oracle on the VM.
///
/// The campaign corpora come from --seed: each holds the whole suite in
/// a seeded order (entry names carry the position, and runFuzzer loads a
/// corpus in name order), so every campaign costs the same and only the
/// order — and with it which evaluations light novel feature bits —
/// depends on the seed. A run cycles through the corpora, so every
/// campaign repeats and its outcome (corpus size, feature bits) must be
/// identical each time. After the timed window a seeded corpus replays
/// on the AST engine and must pass.
///
/// Mutants are not evaluated here: random mutants are the fuzzer's
/// defect search, and the analyzer has open defects that such a search
/// finds on a share of seeds (README.md lists reproducers). The traced
/// run still times mutateProgram chains on the corpus programs.
///
/// The traced run replays each campaign from public functions
/// (loadCorpusDir, evaluateProgram, FuzzFeedback) and asserts it reaches
/// runFuzzer's outcome, then breaks a sample of evaluations down into
/// analysis (frontend + analyzeComposed per fuzz config), transforms,
/// validateTranslation and VM runs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Stats.h"

#include "exec/ExecEngine.h"
#include "exec/Oracle.h"
#include "fuzz/Corpus.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/FuzzRng.h"
#include "fuzz/Mutator.h"
#include "ipcp/Cloning.h"
#include "ipcp/Inliner.h"
#include "support/FuzzFeedback.h"
#include "workloads/Suite.h"

#include <cstdio>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <unistd.h>

using namespace ipcp;

namespace perfbench {

namespace {

// The workload's fixed parameters (also stated in BENCHMARK.json).
/// Seeded orders of the suite, one campaign corpus each.
constexpr unsigned Campaigns = 8;
/// mutateProgram chains timed per replayed campaign (traced run only).
constexpr unsigned MutationChains = 4;

/// One campaign: a corpus directory of suite programs.
struct CampaignCorpus {
  std::string Dir;
  size_t Entries = 0;
  uint64_t Seed = 0;
};

/// Each campaign's order of the suite, as indices into extendedSuite().
std::vector<std::vector<size_t>> campaignPlan(uint64_t Seed) {
  const size_t N = extendedSuite().size();
  FuzzRng Master(Seed);
  std::vector<std::vector<size_t>> Plan;
  for (unsigned K = 0; K != Campaigns; ++K) {
    FuzzRng R = Master.derive(K);
    std::vector<size_t> Order(N);
    std::iota(Order.begin(), Order.end(), 0);
    for (size_t I = N - 1; I > 0; --I)
      std::swap(Order[I], Order[size_t(R.below(int(I + 1)))]);
    Plan.push_back(std::move(Order));
  }
  return Plan;
}

/// Writes \p Programs as a fresh corpus directory \p Dir, named so that
/// loadCorpusDir returns them in the given order.
void writeCorpus(const std::string &Dir,
                 const std::vector<const WorkloadProgram *> &Programs) {
  std::filesystem::remove_all(Dir);
  for (size_t I = 0; I != Programs.size(); ++I) {
    CorpusEntry E;
    char Position[8];
    std::snprintf(Position, sizeof(Position), "%02zu-", I);
    E.Name = Position + Programs[I]->Name;
    E.Source = Programs[I]->Source;
    if (!saveCorpusEntry(Dir, E))
      throw std::runtime_error("cannot write corpus entry under " + Dir);
  }
}

std::vector<CampaignCorpus>
writeCampaignCorpora(const std::vector<std::vector<size_t>> &Plan,
                     const std::string &Root, uint64_t Seed) {
  const std::vector<WorkloadProgram> &Suite = extendedSuite();
  FuzzRng Master(Seed);
  std::vector<CampaignCorpus> Corpora;
  for (size_t K = 0; K != Plan.size(); ++K) {
    std::vector<const WorkloadProgram *> Programs;
    for (size_t I : Plan[K])
      Programs.push_back(&Suite[I]);
    CampaignCorpus C;
    C.Dir = Root + "/c" + std::to_string(K);
    C.Entries = Programs.size();
    C.Seed = Master.derive(Campaigns + K).next();
    writeCorpus(C.Dir, Programs);
    Corpora.push_back(C);
  }
  return Corpora;
}

FuzzOptions campaignOptions(const CampaignCorpus &C) {
  FuzzOptions O;
  O.Seed = C.Seed;
  O.Runs = 0;
  O.SeedPrograms = 0;
  O.CorpusDir = C.Dir;
  O.Engine = ExecEngine::Vm;
  O.CheckTransforms = true;
  // A failure is reported, not shrunk: reduction would make the run's
  // length depend on the defect.
  O.Reduce = false;
  return O;
}

/// One campaign, replayed from public functions with spans.
struct Replica {
  CampaignOutcome Outcome;
  unsigned Novel = 0;        ///< Evaluations that lit novel bits.
  unsigned Chains = 0;       ///< mutateProgram chains attempted.
  unsigned InvalidChains = 0;
  /// Per entry: its suite program and evaluateProgram wall time.
  std::vector<std::pair<std::string, double>> EvalMs;
  bool Failed = false;
};

Replica replayCampaign(Tracer &T, const FuzzOptions &Opts, uint64_t Unit) {
  Replica Rep;
  Span Root(T, "bench.campaign", Unit << 16);
  std::vector<CorpusEntry> Corpus;
  {
    Span S(T, "fuzz.loadCorpusDir");
    Corpus = loadCorpusDir(Opts.CorpusDir);
  }
  FuzzFeedback Global;
  for (size_t I = 0; I != Corpus.size(); ++I) {
    Span U(T, "bench.candidate", (Unit << 16) | I);
    FuzzFeedback Local;
    Clock::time_point Start = Clock::now();
    std::optional<FuzzFailure> Fail;
    {
      Span S(T, "fuzz.evaluateProgram");
      Fail = evaluateProgram(Corpus[I].Source, Local, Opts);
    }
    // Entry names are "<position>-<suite program>".
    const std::string &Name = Corpus[I].Name;
    Rep.EvalMs.push_back({Name.substr(Name.find('-') + 1), msSince(Start)});
    if (Fail)
      Rep.Failed = true;
    else if (Global.mergeNovel(Local))
      ++Rep.Novel;
  }
  Rep.Outcome.CorpusSize = Corpus.size();
  Rep.Outcome.FeatureBits = Global.countBits();

  // The fuzzer's mutation step on the same corpus, as runFuzzer chains
  // it (1-3 mutations; a chain whose first mutation fails is invalid).
  // The mutants are not evaluated.
  FuzzRng Master(Opts.Seed);
  for (unsigned Iter = 1; Iter <= MutationChains && !Corpus.empty(); ++Iter) {
    FuzzRng R = Master.derive(1000 + Iter);
    std::string Src = Corpus[R.below(int(Corpus.size()))].Source;
    int Count = 1 + R.below(3);
    ++Rep.Chains;
    for (int M = 0; M != Count; ++M) {
      MutationOptions MO;
      MO.Seed = R.next();
      MutationResult MR;
      {
        Span S(T, "fuzz.mutateProgram");
        MR = mutateProgram(Src, MO);
      }
      if (!MR.Ok) {
        Rep.InvalidChains += M == 0;
        break;
      }
      Src = MR.Source;
    }
  }
  return Rep;
}

/// What evaluateProgram does, one public call per span.
void evaluateComposed(Tracer &T, const std::string &Src, uint64_t Unit) {
  Span U(T, "bench.evaluation", Unit);
  const std::vector<FuzzConfig> &Configs = fuzzConfigs();
  {
    Span S(T, "fuzz.analyze");
    for (const FuzzConfig &C : Configs)
      analyzeSourceComposed(T, Src, C.Pipeline);
    for (SolverStrategy St :
         {SolverStrategy::RoundRobin, SolverStrategy::BindingGraph}) {
      PipelineOptions O = Configs[0].Pipeline;
      O.Strategy = St;
      analyzeSourceComposed(T, Src, O);
    }
  }
  CheckedProgram Prog = frontendTraced(T, Src);
  if (!Prog.Error.empty())
    return;
  {
    Span S(T, "fuzz.transforms");
    InlineResult Inlined;
    {
      Span S2(T, "ipcp.inlineProgram");
      Inlined = inlineProgram(*Prog.Ctx, Prog.Symbols);
    }
    {
      Span S2(T, "ipcp.runPipeline");
      runPipeline(Inlined.Source, PipelineOptions());
    }
    CloneOptions CO;
    CO.MaxRounds = 2;
    CO.MaxClones = 8;
    Span S2(T, "ipcp.cloneForConstants");
    cloneForConstants(Src, CO);
  }
  for (size_t I = 0; I != Configs.size(); ++I) {
    OracleOptions OO;
    OO.Pipeline = Configs[I].Pipeline;
    OO.Limits.MaxSteps = FuzzOptions().MaxSteps;
    OO.CheckInliner = OO.CheckCloning = I == 0;
    Span S(T, "exec.validateTranslation");
    validateTranslation(Src, OO);
  }
  // The oracle's reference executions, made visible: the VM over the
  // unmodified program under its two READ streams.
  Span S(T, "exec.ProgramRunner");
  ProgramRunner Runner(Prog.Ctx->program(), Prog.Symbols, ExecEngine::Vm);
  for (uint64_t ReadSeed : {1, 2}) {
    RunOptions RO;
    RO.Limits.MaxSteps = FuzzOptions().MaxSteps;
    RO.ReadSeed = ReadSeed;
    RunResult RR = Runner.run(RO);
    T.count("exec.vm_runs", 1);
    T.count("exec.vm_steps", double(RR.Steps));
  }
}

void runTracedFuzz(const BenchArgs &Args, Report &R,
                   const std::vector<CampaignCorpus> &Corpora,
                   const std::vector<CampaignOutcome> &Outcomes,
                   double EvalMsBlackBox) {
  Tracer Off(false), On(true);
  std::vector<double> OffMs, OnMs;
  double Evaluations = 0, Novel = 0, Bits = 0, Chains = 0, Invalid = 0;
  std::map<std::string, double> EvalMsByProgram;
  std::vector<std::string> Sample; ///< Suite programs, first-seen order.
  Clock::time_point Phase = Clock::now();
  for (size_t K = 0; OnMs.empty() || msSince(Phase) < 0.4 * Args.Seconds * 1000;
       K = (K + 1) % Outcomes.size()) {
    FuzzOptions O = campaignOptions(Corpora[K]);
    Clock::time_point Start = Clock::now();
    replayCampaign(Off, O, K + 1);
    OffMs.push_back(msSince(Start));
    Start = Clock::now();
    Replica Rep = replayCampaign(On, O, K + 1);
    OnMs.push_back(msSince(Start));
    ++R.Attempted;
    if (Rep.Failed || !(Rep.Outcome == Outcomes[K]))
      R.fail("replayed campaign " + std::to_string(K) +
             " does not reach runFuzzer's outcome");
    Evaluations += double(Rep.Outcome.CorpusSize);
    Novel += Rep.Novel;
    Bits += double(Rep.Outcome.FeatureBits);
    Chains += Rep.Chains;
    Invalid += Rep.InvalidChains;
    for (const auto &[Name, Ms] : Rep.EvalMs) {
      if (!EvalMsByProgram.count(Name))
        Sample.push_back(Name);
      EvalMsByProgram[Name] = Ms;
    }
  }
  const double Campaigns = double(OnMs.size());

  // Break evaluations down on the sampled programs, into the same trace.
  std::map<std::string, const WorkloadProgram *> ByName;
  for (const WorkloadProgram &P : extendedSuite())
    ByName[P.Name] = &P;
  unsigned Broken = 0;
  double BrokenEvalMs = 0;
  Phase = Clock::now();
  while (Broken < Sample.size() &&
         (Broken == 0 || msSince(Phase) < 0.3 * Args.Seconds * 1000)) {
    evaluateComposed(On, ByName.at(Sample[Broken])->Source, Broken + 1);
    BrokenEvalMs += EvalMsByProgram[Sample[Broken]];
    ++Broken;
  }
  std::map<std::string, double> Counts = On.counts();
  TraceSummary S = summarize(On.spans());
  addAnalyzerLayers(R, S, Counts, Broken);

  const double EvaluateMs = S.SelfUsByName["fuzz.evaluateProgram"] / 1000.0;
  const double BreakdownMs = S.InclusiveUsByName["bench.evaluation"] / 1000.0;
  R.metric("exec.oracle_ms",
           S.SelfUsByName["exec.validateTranslation"] / 1000.0 / Broken, "ms");
  R.metric("exec.vm_runs", Counts["exec.vm_runs"] / Broken, "count");
  R.metric("exec.vm_steps_per_s",
           Counts["exec.vm_steps"] /
               (S.SelfUsByName["exec.ProgramRunner"] / 1e6),
           "1/s");
  R.metric("fuzz.candidates", Evaluations / Campaigns, "count");
  R.metric("fuzz.mutate_ms",
           S.SelfUsByName["fuzz.mutateProgram"] / 1000.0 / Chains, "ms");
  R.metric("fuzz.evaluate_ms", EvaluateMs / Evaluations, "ms");
  R.metric("fuzz.analyze_ms",
           S.InclusiveUsByName["fuzz.analyze"] / 1000.0 / Broken, "ms");
  R.metric("fuzz.invalid_mutant_ratio", Invalid / Chains, "ratio");
  R.metric("fuzz.retained_ratio", Novel / Evaluations, "ratio");
  R.metric("fuzz.feature_bits", Bits / Campaigns, "count");
  R.metric("trace.overhead_ratio", median(OnMs) / median(OffMs), "ratio");
  // The broken-down programs against their own traced evaluateProgram
  // times, so the program mix cancels out.
  R.metric("trace.composition_ratio", BreakdownMs / BrokenEvalMs, "ratio");
  R.note("traced fuzz: " + std::to_string(OnMs.size()) +
         " replayed campaigns, " + std::to_string(Broken) +
         " evaluations broken down; black-box evaluation " +
         std::to_string(EvalMsBlackBox) + " ms");
  if (!Args.TraceOut.empty() && !On.writeChromeTrace(Args.TraceOut))
    R.note("could not write " + Args.TraceOut);
}

} // namespace

Report runFuzz(const BenchArgs &Args) {
  Report R;
  const std::vector<std::vector<size_t>> Plan = campaignPlan(Args.Seed);
  // Per process, so concurrent runs in one checkout do not share corpora.
  const std::string Root =
      Args.WorkDir + "/fuzz-corpora-" + std::to_string(getpid());

  // Set-up: the config table, the campaign corpora on disk, and one
  // replay of the three copy-stress programs (the same on every seed, so
  // set-up time does not hang on which programs the seed draws).
  std::vector<CampaignCorpus> Corpora;
  double SetUpS = medianSetUpSeconds(SetUpReps, [&] {
    fuzzConfigs();
    Corpora = writeCampaignCorpora(Plan, Root, Args.Seed);
    std::vector<const WorkloadProgram *> WarmUp;
    for (const WorkloadProgram &P : copyStressPrograms())
      WarmUp.push_back(&P);
    CampaignCorpus C{Root + "/warm-up", WarmUp.size(), 0};
    writeCorpus(C.Dir, WarmUp);
    runFuzzer(campaignOptions(C));
  });

  // The traced run spends a third of its time on the black box.
  const double WindowMs = (Args.Trace ? 0.3 : 1.0) * Args.Seconds * 1000;
  std::vector<std::optional<CampaignOutcome>> Outcomes(Corpora.size());
  std::vector<double> CampaignMs;
  double Evaluations = 0, BusyMs = 0;
  Clock::time_point Window = Clock::now();
  for (size_t K = 0; CampaignMs.empty() || msSince(Window) < WindowMs;
       K = (K + 1) % Corpora.size()) {
    Clock::time_point Start = Clock::now();
    FuzzResult FR = runFuzzer(campaignOptions(Corpora[K]));
    CampaignMs.push_back(msSince(Start));
    BusyMs += CampaignMs.back();
    Evaluations += double(FR.CorpusSize);
    ++R.Attempted;
    std::string Why = checkCorpusReplay(FR, Corpora[K].Entries, Outcomes[K]);
    if (!Why.empty())
      R.fail("campaign " + std::to_string(K) + ": " + Why);
    Outcomes[K] = outcomeOf(FR);
  }

  // The AST interpreter is independent of the VM the window ran on.
  size_t Replayed = size_t(
      FuzzRng(Args.Seed).derive(2 * Campaigns).below(int(Corpora.size())));
  FuzzOptions Ast = campaignOptions(Corpora[Replayed]);
  Ast.Engine = ExecEngine::Ast;
  std::string Why = checkCorpusReplay(runFuzzer(Ast), Corpora[Replayed].Entries,
                                      std::nullopt);
  ++R.Attempted;
  if (!Why.empty())
    R.fail("campaign " + std::to_string(Replayed) + " on the AST engine: " +
           Why);
  R.note("fuzz: " + std::to_string(CampaignMs.size()) +
         " corpus-replay campaigns of the " +
         std::to_string(extendedSuite().size()) + " suite programs over " +
         std::to_string(Corpora.size()) + " seeded orders");

  if (Args.Trace) {
    // The window runs the campaigns in order; replay those it reached.
    std::vector<CampaignOutcome> Reached;
    for (size_t K = 0; K != Corpora.size() && Outcomes[K]; ++K)
      Reached.push_back(*Outcomes[K]);
    runTracedFuzz(Args, R, Corpora, Reached, BusyMs / Evaluations);
  } else {
    addEndToEnd(R, SetUpS, Evaluations / (BusyMs / 1000.0), CampaignMs,
                "fuzz campaign");
  }
  std::filesystem::remove_all(Root);
  return R;
}

} // namespace perfbench
