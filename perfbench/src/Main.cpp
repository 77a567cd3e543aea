//===- perfbench/src/Main.cpp - The benchmark's command line --------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload grid|serve-mix|fuzz --seed N --seconds S
///           --trace 0|1 [--root DIR] [--work-dir DIR] [--trace-out FILE]
///           [--source-id TEXT]
///
/// Runs one workload for S seconds and prints notes ("# ..." lines), a
/// provenance line, and as the last line one JSON object with the keys
/// correct, attempted, failed and metrics. --trace 0 reports the
/// end-to-end metrics; --trace 1 the per-layer metrics of the traced run.
/// Exits 2 without a result line on bad arguments, missing references,
/// or a build unfit for timing (unoptimized or sanitized).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "serve/Json.h"

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char *Unfit = "sanitizer build";
#elif !defined(__OPTIMIZE__)
constexpr const char *Unfit = "unoptimized (Debug) build";
#else
constexpr const char *Unfit = nullptr;
#endif

const char *const EndToEnd[][2] = {{"setup_s", "s"},
                                   {"peak_rss_mb", "MB"},
                                   {"throughput_per_s", "1/s"},
                                   {"p50_ms", "ms"}};

unsigned cpusAvailable() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return std::thread::hardware_concurrency();
  return unsigned(CPU_COUNT(&Set));
}

bool parseArgs(int Argc, char **Argv, BenchArgs &A, std::string &SourceId) {
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Value.empty();
      if (!HaveSeed)
        return false;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (*End != '\0' || !(A.Seconds > 0 && A.Seconds <= 60))
        return false;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      A.Trace = Value == "1";
    } else if (Flag == "--root") {
      A.Root = Value;
    } else if (Flag == "--work-dir") {
      A.WorkDir = Value;
    } else if (Flag == "--trace-out") {
      A.TraceOut = Value;
    } else if (Flag == "--source-id") {
      SourceId = Value;
    } else {
      return false;
    }
  }
  return HaveWorkload && HaveSeed && Argc % 2 == 1;
}

std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args;
  std::string SourceId = "unknown";
  if (!parseArgs(Argc, Argv, Args, SourceId)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload grid|serve-mix|fuzz --seed N "
                 "--seconds S --trace 0|1 [--root DIR] [--work-dir DIR] "
                 "[--trace-out FILE] [--source-id TEXT]\n");
    return 2;
  }
  if (Unfit) {
    std::fprintf(stderr, "perfbench: refusing to time a %s\n", Unfit);
    return 2;
  }

  Report R;
  try {
    std::filesystem::create_directories(Args.WorkDir);
    if (Args.Workload == "grid")
      R = runGrid(Args);
    else if (Args.Workload == "serve-mix")
      R = runServeMix(Args);
    else if (Args.Workload == "fuzz")
      R = runFuzz(Args);
    else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   Args.Workload.c_str());
      return 2;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }

  for (const std::string &Note : R.Notes)
    std::printf("# %s\n", Note.c_str());

  ipcp::JsonValue Prov = ipcp::JsonValue::object();
  Prov.set("workload", Args.Workload);
  Prov.set("seed", ipcp::JsonValue(Args.Seed));
  Prov.set("seconds", ipcp::JsonValue(Args.Seconds));
  Prov.set("trace", ipcp::JsonValue(Args.Trace));
  Prov.set("nproc", ipcp::JsonValue(cpusAvailable()));
  Prov.set("hardware_threads",
           ipcp::JsonValue(std::thread::hardware_concurrency()));
  Prov.set("build_type", PERFBENCH_BUILD_TYPE);
  Prov.set("compiler", PERFBENCH_COMPILER);
  Prov.set("source", SourceId);
  std::printf("# provenance %s\n", Prov.dump().c_str());

  std::vector<std::pair<std::string, std::string>> Wanted;
  if (Args.Trace)
    Wanted = perLayerMetrics();
  else
    for (const auto &M : EndToEnd)
      Wanted.push_back({M[0], M[1]});

  std::string Metrics;
  for (const auto &[Name, Unit] : Wanted) {
    double Value = 0;
    auto It = R.Metrics.find(Name);
    if (It != R.Metrics.end())
      Value = It->second.first;
    else if (!Args.Trace)
      std::printf("# metric %s was not measured\n", Name.c_str());
    if (!std::isfinite(Value)) {
      std::printf("# metric %s is not finite; reported as 0\n", Name.c_str());
      Value = 0;
    }
    if (!Metrics.empty())
      Metrics += ", ";
    Metrics += "\"" + Name + "\": {\"value\": " + number(Value) +
               ", \"unit\": \"" + Unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return 0;
}
