//===- bench/fuzz_throughput.cpp - Fuzzer stage costs ---------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What does one fuzzing iteration cost, and where does it go? The
/// campaign budget in check-fuzz (and any longer local run) is bounded
/// by three stages; this bench times each in isolation and end to end:
///   * mutateProgram — parse, AST edit, print, re-validate;
///   * evaluateProgram — ten analyzer configs plus cross-config checks,
///     with and without the transform checks and the oracle's cost
///     visible separately via the feature map left behind;
///   * runFuzzer — whole bounded campaigns, the number check-fuzz cares
///     about (iterations/second at steady state).
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/Mutator.h"
#include "support/FuzzFeedback.h"
#include "workloads/RandomProgram.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace ipcp;

namespace {

std::string seedProgram(uint64_t Seed) {
  RandomSpec Spec;
  Spec.Seed = Seed;
  Spec.Procs = 5;
  Spec.Globals = 3;
  return generateRandomProgram(Spec);
}

void BM_MutateProgram(benchmark::State &State) {
  std::string Source = seedProgram(3);
  uint64_t Seed = 1;
  for (auto _ : State) {
    MutationOptions Opts;
    Opts.Seed = Seed++;
    benchmark::DoNotOptimize(mutateProgram(Source, Opts));
  }
}
BENCHMARK(BM_MutateProgram);

void BM_EvaluateProgram(benchmark::State &State) {
  std::string Source = seedProgram(3);
  FuzzOptions Opts;
  Opts.CheckTransforms = State.range(0) != 0;
  for (auto _ : State) {
    FuzzFeedback FB;
    benchmark::DoNotOptimize(evaluateProgram(Source, FB, Opts));
  }
}
BENCHMARK(BM_EvaluateProgram)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"transforms"});

void BM_Campaign(benchmark::State &State) {
  for (auto _ : State) {
    FuzzOptions Opts;
    Opts.Seed = 11;
    Opts.Runs = unsigned(State.range(0));
    Opts.SeedPrograms = 3;
    Opts.CheckTransforms = false;
    FuzzResult R = runFuzzer(Opts);
    benchmark::DoNotOptimize(R);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_Campaign)->Arg(25)->Arg(100)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
