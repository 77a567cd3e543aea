//===- fuzz/Fuzzer.h - Coverage-guided fuzzing loop -------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coverage-guided fuzzing loop, libFuzzer-shaped but with the
/// analyzer's *behavior* as the coverage signal: each candidate program
/// is analyzed under ten pipeline configurations with a FuzzFeedback
/// sink attached, and a mutant joins the corpus only when its feature
/// bitmap (lattice transitions per jump-function form, solver memo
/// traffic, alias pairs, DCE rounds, inliner/cloning decisions, ...)
/// lights bits the accumulated corpus never has. Candidates are also
/// *checked* — config-hierarchy invariants, solver-strategy agreement,
/// and the translation-validation oracle — and failures are reduced to
/// minimal reproducers (fuzz/Reducer.h) and reported.
///
/// One candidate's checks share their work through an OracleProgram
/// (exec/Oracle.h): one parse, one AnalysisSession that analyzes each
/// configuration once for both the cross-config checks and the oracle,
/// and one reference run per READ seed. The solver memo features
/// therefore count memo traffic on that shared session.
///
/// Everything is deterministic from FuzzOptions::Seed (given the same
/// starting corpus and no wall-clock budget): the PRNG chain derives one
/// child per iteration, corpus order is by name, and no decision reads a
/// clock except the optional TimeBudgetSec cutoff.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_FUZZ_FUZZER_H
#define IPCP_FUZZ_FUZZER_H

#include "exec/ExecEngine.h"
#include "fuzz/Corpus.h"
#include "ipcp/Pipeline.h"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace ipcp {
class FuzzFeedback;

/// One analyzer configuration under test, with a stable display name.
struct FuzzConfig {
  std::string Name;
  PipelineOptions Pipeline;
};

/// The ten configurations every candidate runs under: the four
/// jump-function kinds' extremes, complete propagation, the
/// intraprocedural baseline, gated SSA, the precision tier
/// (flow-sensitive aliasing and optimistic value numbering), and the
/// copy tier (polynomial and pass-through with the copy lattice).
const std::vector<FuzzConfig> &fuzzConfigs();

/// Parameters of one campaign.
struct FuzzOptions {
  /// Master seed; the whole campaign derives from it.
  uint64_t Seed = 1;
  /// Mutant evaluations to attempt (the loop bound).
  unsigned Runs = 200;
  /// Optional wall-clock cutoff in seconds (0 = none). A campaign under
  /// a time budget is *not* deterministic — use Runs for replayable
  /// campaigns.
  double TimeBudgetSec = 0;
  /// Directory to load the starting corpus from and save retained
  /// entries / reduced reproducers into (empty = in-memory only).
  std::string CorpusDir;
  /// Reduce failing programs before reporting them.
  bool Reduce = true;
  /// Predicate-check budget per reduction.
  unsigned ReduceMaxChecks = 150;
  /// Random seed programs generated to prime the corpus (in addition to
  /// anything loaded from CorpusDir).
  unsigned SeedPrograms = 6;
  /// Interpreter step budget per oracle execution.
  uint64_t MaxSteps = 30000;
  /// Engine executing the oracle runs. The bytecode VM is the default
  /// hot path; --exec=ast keeps the AST interpreter available so corpus
  /// replays and campaigns can be diffed across engines.
  ExecEngine Engine = ExecEngine::Vm;
  /// Also exercise the inliner and the cloning transform (records their
  /// decision features and validates them on the first config). The
  /// costliest part of an evaluation.
  bool CheckTransforms = true;
  /// Progress log (null = silent).
  std::ostream *Log = nullptr;
};

/// One check failure, reduced when reduction is enabled.
struct FuzzFailure {
  /// "pipeline-error", "hierarchy-violation", "strategy-disagreement",
  /// "oracle-mismatch", or "transform-error".
  std::string Kind;
  /// Which configuration (or comparison) tripped.
  std::string Config;
  /// Human-readable detail.
  std::string Detail;
  /// The reproducer (reduced when reduction ran).
  std::string Source;
  /// Mutation trail from its corpus parent.
  std::string Trail;
  /// Iteration that found it (0 for corpus replay failures).
  unsigned Iteration = 0;
};

/// Campaign outcome.
struct FuzzResult {
  unsigned Iterations = 0;
  /// Mutation attempts that produced no valid mutant.
  unsigned MutantsInvalid = 0;
  /// Mutants whose feature bitmaps lit novel bits and joined the corpus.
  unsigned MutantsRetained = 0;
  /// Final corpus size (loaded + seeded + retained).
  size_t CorpusSize = 0;
  /// Final accumulated feature-bit count.
  size_t FeatureBits = 0;
  /// Accumulated bit count after each retention event, in order; by
  /// construction strictly increasing (retention requires novelty).
  std::vector<size_t> FeatureBitsTimeline;
  std::vector<FuzzFailure> Failures;
};

/// Analyzes \p Source under every fuzz configuration, recording behavior
/// features into \p FB and running the cross-config checks and the
/// oracle. Returns the first failure, or nullopt when all checks pass.
/// This is the fuzzer's whole evaluation of one program; the corpus
/// replay test calls it directly.
///
/// The checks share one OracleProgram (exec/Oracle.h): one parse, one
/// AnalysisSession and one reference run per READ seed. Each
/// configuration is analyzed once, with OracleProgram::analyze, and that
/// result feeds both the cross-config checks and its oracle validation
/// (a configuration that folded a branch replays on its own folded
/// clone). The solver strategies run after the ten
/// configurations, on the warm session. Every check and its failure
/// report are the ones separate cold runs would give, except the
/// SolverMemoHits/SolverMemoMisses features: they count memo traffic on
/// the session a configuration ran on, so hits carry over from one
/// configuration to the next.
std::optional<FuzzFailure> evaluateProgram(const std::string &Source,
                                           FuzzFeedback &FB,
                                           const FuzzOptions &Opts);

/// Runs one campaign.
FuzzResult runFuzzer(const FuzzOptions &Opts);

} // namespace ipcp

#endif // IPCP_FUZZ_FUZZER_H
