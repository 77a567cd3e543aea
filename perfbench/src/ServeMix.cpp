//===- perfbench/src/ServeMix.cpp - The "serve-mix" workload --------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process Server (3 workers, otherwise default options) driven
/// open loop by one generator thread through Server::submit, with
/// Poisson arrivals at a fixed rate. Every request is an analyze-source
/// line of one of two classes:
///
///   cold — a never-seen generateRandomProgram source (2 to 50 worker
///          procedures): frontend, lowering, full pipeline, session
///          insert, LRU eviction. The writes.
///   hot  — a Zipf-skewed draw over a fixed set of (suite program,
///          config) pairs: reply-cache and session hits unless cold
///          inserts evicted the program. The reads.
///
/// Each request is timed from when it was due. Every hot reply must be
/// byte-identical to a one-shot local run rendered during set-up and
/// carry the golden substituted count; every cold reply must equal a
/// one-shot local run computed after the timed window; a seeded sample
/// of cold programs must pass validateTranslation on the AST engine.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Stats.h"

#include "exec/Oracle.h"
#include "fuzz/FuzzRng.h"
#include "serve/Protocol.h"
#include "serve/Render.h"
#include "serve/Server.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"
#include "workloads/SuiteRunner.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <time.h>

using namespace ipcp;

namespace perfbench {

namespace {

// The workload's fixed parameters (also stated in BENCHMARK.json).
constexpr unsigned ServeWorkers = 3;
constexpr double ArrivalRatePerS = 300;
constexpr double ColdShare = 0.6;
constexpr double GoodputLimitMs = 50;
constexpr int MaxColdProcs = 50;
constexpr size_t OracleSample = 4;

/// Uniform double in [0, 1).
double uniform(FuzzRng &R) { return double(R.next() >> 11) * 0x1.0p-53; }

/// One (suite program, config) pair of the hot class, with its
/// references.
struct HotPair {
  const WorkloadProgram *Program = nullptr;
  SuiteConfig Config;
  std::string LineTemplate; ///< Serialized request with an empty id.
  std::string WantOutput;   ///< One-shot local run, rendered.
  unsigned WantSubstituted = 0;
};

/// The fixed hot set: every extended-suite program once, under configs
/// that cycle through all thirteen.
std::vector<HotPair> hotPairs() {
  const std::vector<SuiteConfig> Configs = allConfigs();
  std::vector<HotPair> Pairs;
  const std::vector<WorkloadProgram> &Programs = extendedSuite();
  for (size_t P = 0; P != Programs.size(); ++P) {
    HotPair H;
    H.Program = &Programs[P];
    H.Config = Configs[P % Configs.size()];
    Pairs.push_back(std::move(H));
  }
  return Pairs;
}

std::string requestTemplate(const std::string &Source,
                            const PipelineOptions &Opts) {
  ServeRequest Req;
  Req.Method = ServeMethod::AnalyzeSource;
  Req.Source = Source;
  Req.Config = Opts;
  return serializeServeRequest(Req);
}

/// Splices \p Id into a template serialized with an empty id. Keys are
/// emitted sorted, so the line starts with the id member.
std::string withId(const std::string &Template, const std::string &Id) {
  static const std::string Prefix = "{\"id\":\"\"";
  if (Template.compare(0, Prefix.size(), Prefix) != 0)
    throw std::runtime_error("unexpected request serialization");
  return "{\"id\":\"" + Id + "\"" + Template.substr(Prefix.size());
}

std::string renderOneShot(const std::string &Source,
                          const PipelineOptions &Opts) {
  PipelineResult R = runPipeline(Source, Opts);
  if (!R.Ok)
    return "local run failed: " + R.Error;
  return renderAnalysisReport(Opts, R, ReportOptions());
}

std::string coldProgram(FuzzRng R, uint64_t Tag) {
  RandomSpec Spec;
  Spec.Seed = R.next();
  Spec.Procs = 2 + R.below(MaxColdProcs - 1);
  Spec.Globals = 1 + R.below(5);
  Spec.MaxStmtsPerProc = 6 + R.below(8);
  Spec.AllowRecursion = R.chance(30);
  return generateRandomProgram(Spec) + "! cold request " +
         std::to_string(Tag) + "\n";
}

/// One scheduled request.
struct Request {
  double DueMs = 0;
  int Hot = -1;       ///< Index into the hot pairs; -1 for cold.
  size_t Cold = 0;    ///< Index into the cold sources.
};

/// Everything set-up builds: the schedule and the references.
struct Plan {
  std::vector<HotPair> Hot;
  std::vector<std::string> ColdSources;
  std::vector<Request> Schedule;
};

Plan makePlan(uint64_t Seed, double Seconds, const GoldenGrid &Golden) {
  Plan P;
  P.Hot = hotPairs();
  for (HotPair &H : P.Hot) {
    auto It = Golden.find({H.Program->Name, H.Config.Name});
    if (It == Golden.end())
      throw std::runtime_error("no golden value for a hot pair");
    H.WantSubstituted = It->second;
    H.WantOutput = renderOneShot(H.Program->Source, H.Config.Opts);
    H.LineTemplate = requestTemplate(H.Program->Source, H.Config.Opts);
  }
  // Zipf(1) weights over the hot pairs in their fixed order.
  std::vector<double> Cdf;
  double Sum = 0;
  for (size_t I = 0; I != P.Hot.size(); ++I)
    Cdf.push_back(Sum += 1.0 / double(I + 1));

  FuzzRng Master(Seed);
  FuzzRng Arrivals = Master.derive(1), Classes = Master.derive(2),
          Draws = Master.derive(3), Colds = Master.derive(4);
  for (double T = 0;;) {
    T += -std::log(1.0 - uniform(Arrivals)) * 1000.0 / ArrivalRatePerS;
    if (T >= Seconds * 1000.0)
      break;
    Request Req;
    Req.DueMs = T;
    if (uniform(Classes) < ColdShare) {
      Req.Cold = P.ColdSources.size();
      P.ColdSources.push_back(
          coldProgram(Colds.derive(Req.Cold), Seed * 1000003 + Req.Cold));
    } else {
      double U = uniform(Draws) * Sum;
      Req.Hot = int(std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
      Req.Hot = std::min<int>(Req.Hot, int(P.Hot.size()) - 1);
    }
    P.Schedule.push_back(Req);
  }
  return P;
}

/// What one open-loop window produced.
struct WindowResult {
  std::vector<OpenLoopTimes> Times;
  std::vector<std::string> Replies;
  std::vector<double> SubmitUs;
  JsonValue Stats;
  /// Share of the workers' capacity spent busy: process CPU time minus
  /// the generator's, over workers x window.
  double WorkerBusy = 0;
};

double processCpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return double(T.tv_sec) + double(T.tv_nsec) / 1e9;
}

double threadCpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return double(T.tv_sec) + double(T.tv_nsec) / 1e9;
}

WindowResult runWindow(Server &S, const Plan &P) {
  const size_t N = P.Schedule.size();
  WindowResult W;
  W.Times.resize(N);
  W.SubmitUs.reserve(N);
  // What the completion callbacks write. Shared with them, so a reply
  // that arrives after this function gave up still has somewhere to go.
  struct Completions {
    std::mutex M;
    std::condition_variable AllDone;
    size_t Done = 0;                  // Guarded by M.
    std::vector<double> DoneMs;       // Guarded by M.
    std::vector<std::string> Replies; // Guarded by M.
  };
  auto C = std::make_shared<Completions>();
  C->DoneMs.resize(N);
  C->Replies.resize(N);

  const double Cpu0 = processCpuSeconds(), Gen0 = threadCpuSeconds();
  const Clock::time_point Start = Clock::now();
  for (size_t I = 0; I != N; ++I) {
    const Request &Req = P.Schedule[I];
    std::string Id = (Req.Hot >= 0 ? "h" : "c") + std::to_string(I);
    // Built before the spin below, so its cost delays no due time unless
    // the generator is already behind (which the lateness tail reports).
    std::string Line =
        Req.Hot >= 0
            ? withId(P.Hot[Req.Hot].LineTemplate, Id)
            : withId(requestTemplate(P.ColdSources[Req.Cold],
                                     PipelineOptions()),
                     Id);
    // Sleep to just before the due time, then spin: a sleeping generator
    // would add its own wake-up latency to every request, and one that
    // spins throughout would take a core from the workers.
    const Clock::time_point Due =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(Req.DueMs));
    std::this_thread::sleep_until(Due - std::chrono::milliseconds(1));
    while (Clock::now() < Due) {
    }
    W.Times[I].DueMs = Req.DueMs;
    W.Times[I].SentMs = msSince(Start);
    Clock::time_point Before = Clock::now();
    S.submit(std::move(Line), [C, I, Start, N](std::string Reply) {
      double At = msSince(Start);
      std::lock_guard<std::mutex> Lock(C->M);
      C->DoneMs[I] = At;
      C->Replies[I] = std::move(Reply);
      if (++C->Done == N)
        C->AllDone.notify_all();
    });
    W.SubmitUs.push_back(msSince(Before) * 1000.0);
  }
  std::unique_lock<std::mutex> Lock(C->M);
  if (!C->AllDone.wait_for(Lock, std::chrono::seconds(60),
                           [&] { return C->Done == N; }))
    throw std::runtime_error("serve-mix: replies still missing after 60 s");
  W.WorkerBusy = (processCpuSeconds() - Cpu0 - (threadCpuSeconds() - Gen0)) /
                 (ServeWorkers * msSince(Start) / 1000.0);
  for (size_t I = 0; I != N; ++I)
    W.Times[I].DoneMs = C->DoneMs[I];
  W.Replies = std::move(C->Replies);
  Lock.unlock();
  W.Stats = S.statsJson();
  return W;
}

/// Checks every reply; returns per-request correctness.
std::vector<bool> checkReplies(Report &R, const Plan &P, const WindowResult &W) {
  const size_t N = P.Schedule.size();
  // Cold references are computed only now, after the timed window, on
  // four threads.
  std::vector<std::string> ColdRefs(P.ColdSources.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned J = 0; J != 4; ++J)
    Threads.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < ColdRefs.size();)
        ColdRefs[I] = renderOneShot(P.ColdSources[I], PipelineOptions());
    });
  for (std::thread &T : Threads)
    T.join();

  std::vector<bool> Good(N, false);
  for (size_t I = 0; I != N; ++I) {
    const Request &Req = P.Schedule[I];
    std::string Why =
        Req.Hot >= 0
            ? checkAnalyzeReply(W.Replies[I], P.Hot[Req.Hot].WantOutput,
                                P.Hot[Req.Hot].WantSubstituted)
            : checkAnalyzeReply(W.Replies[I], ColdRefs[Req.Cold],
                                std::nullopt);
    ++R.Attempted;
    Good[I] = Why.empty();
    if (!Good[I])
      R.fail("request " + std::to_string(I) + ": " + Why);
  }

  // The AST interpreter is independent of the VM and of the server.
  FuzzRng Pick(P.Schedule.size() * 7919 + P.ColdSources.size());
  for (size_t K = 0; K != std::min(OracleSample, P.ColdSources.size()); ++K) {
    size_t I = size_t(Pick.below(int(P.ColdSources.size())));
    OracleOptions OO;
    OO.Engine = ExecEngine::Ast;
    OracleResult O = validateTranslation(P.ColdSources[I], OO);
    ++R.Attempted;
    if (!O.Ok)
      R.fail("cold program " + std::to_string(I) +
             " fails validateTranslation: " + O.Error);
  }
  return Good;
}

double statField(const JsonValue &Stats, const char *Group, const char *Key) {
  const JsonValue *G = Group ? Stats.find(Group) : &Stats;
  const JsonValue *V = G ? G->find(Key) : nullptr;
  return V ? V->number() : 0;
}

void runTracedServe(const BenchArgs &Args, Report &R, const Plan &P,
                    const WindowResult &W) {
  std::vector<double> ColdLat, HotLat, Late;
  for (size_t I = 0; I != P.Schedule.size(); ++I) {
    (P.Schedule[I].Hot >= 0 ? HotLat : ColdLat)
        .push_back(latencyFromDue(W.Times[I]));
    Late.push_back(generatorLateness(W.Times[I]));
  }
  const JsonValue &St = W.Stats;
  double Hits = statField(St, "cache", "reply_hits"),
         SessionHits = statField(St, "cache", "session_hits"),
         Misses = statField(St, "cache", "misses");
  double Lookups = Hits + SessionHits + Misses;
  auto Rate = [&](double X) { return Lookups > 0 ? X / Lookups : 0; };
  R.metric("serve.requests", double(P.Schedule.size()), "count");
  R.metric("serve.worker_busy_ratio", W.WorkerBusy, "ratio");
  R.metric("serve.submit_us", median(W.SubmitUs), "us");
  R.metric("serve.reply_hit_rate", Rate(Hits), "ratio");
  R.metric("serve.session_hit_rate", Rate(SessionHits), "ratio");
  R.metric("serve.miss_rate", Rate(Misses), "ratio");
  R.metric("serve.evictions", statField(St, "cache", "evictions"), "count");
  R.metric("serve.coalesced", statField(St, nullptr, "coalesced"), "count");
  R.metric("serve.overloaded", statField(St, "errors", "overloaded"), "count");
  R.metric("serve.queue_high_water", statField(St, nullptr, "queue_high_water"),
           "count");
  R.metric("serve.memo_hit_rate", statField(St, "solver_memo", "hit_rate"),
           "ratio");
  R.metric("serve.cold_p50_ms", median(ColdLat), "ms");
  R.metric("serve.hot_p50_ms", median(HotLat), "ms");
  R.metric("serve.gen_late_tail_ms", tailOf(Late).Value, "ms");

  // Idle-server service time per class: one request at a time.
  FuzzRng Fresh = FuzzRng(Args.Seed).derive(99);
  std::vector<std::string> Samples;
  for (size_t I = 0; I != 24; ++I)
    Samples.push_back(coldProgram(Fresh.derive(I), ~uint64_t(0) - I));
  // The trace records these calls too, beside the composition below.
  Tracer Off(false), On(true);
  std::vector<double> ColdService, HotService;
  {
    ServerOptions SO;
    SO.Workers = ServeWorkers;
    Server Idle(SO);
    for (size_t I = 0; I != Samples.size(); ++I) {
      std::string Line =
          withId(requestTemplate(Samples[I], PipelineOptions()), "s");
      Clock::time_point Start = Clock::now();
      {
        Span S(On, "serve.handle", I + 1);
        Idle.handle(Line);
      }
      ColdService.push_back(msSince(Start));
    }
    for (size_t I = 0; I != P.Hot.size(); ++I) {
      std::string Line = withId(P.Hot[I].LineTemplate, "s");
      Idle.handle(Line);
      Clock::time_point Start = Clock::now();
      {
        Span S(On, "serve.handle", 1000 + I);
        Idle.handle(Line);
      }
      HotService.push_back(msSince(Start));
    }
    Span S(On, "serve.statsJson");
    Idle.statsJson();
  }
  double ColdServiceMs = median(ColdService);
  R.metric("serve.cold_service_ms", ColdServiceMs, "ms");
  R.metric("serve.hot_service_ms", median(HotService), "ms");
  R.metric("serve.wait_est_ms", median(ColdLat) - ColdServiceMs, "ms");

  // The cold request's analyzer work, composed from public functions,
  // alternating tracer off and on.
  std::vector<double> OffMs, OnMs;
  unsigned Rounds = 0;
  Clock::time_point Phase = Clock::now();
  while (Rounds == 0 || msSince(Phase) < 0.3 * Args.Seconds * 1000.0) {
    ++Rounds;
    for (size_t I = 0; I != Samples.size(); ++I) {
      for (Tracer *T : {&Off, &On}) {
        Clock::time_point Start = Clock::now();
        {
          Span U(*T, "bench.cold_request", Rounds * 1000 + I + 1);
          analyzeSourceComposed(*T, Samples[I], PipelineOptions());
        }
        (T == &Off ? OffMs : OnMs).push_back(msSince(Start));
      }
    }
  }
  const double Units = double(OnMs.size());
  addAnalyzerLayers(R, summarize(On.spans()), On.counts(), Units);
  R.metric("trace.overhead_ratio", median(OnMs) / median(OffMs), "ratio");
  R.metric("trace.composition_ratio", median(OffMs) / ColdServiceMs, "ratio");
  if (!Args.TraceOut.empty() && !On.writeChromeTrace(Args.TraceOut))
    R.note("could not write " + Args.TraceOut);
}

} // namespace

Report runServeMix(const BenchArgs &Args) {
  Report R;
  // The traced run spends half its time in the open-loop window.
  const double WindowS = Args.Trace ? Args.Seconds / 2 : Args.Seconds;
  std::string Error;
  std::optional<GoldenGrid> Golden =
      loadGoldenGrid(Args.Root + "/tests/golden", Error);
  if (!Golden)
    throw std::runtime_error(Error);

  Plan P;
  std::unique_ptr<Server> S;
  double SetUpS = medianSetUpSeconds(SetUpReps, [&] {
    S.reset();
    P = makePlan(Args.Seed, WindowS, *Golden);
    ServerOptions SO;
    SO.Workers = ServeWorkers;
    S = std::make_unique<Server>(SO);
  });

  WindowResult W = runWindow(*S, P);
  S.reset(); // Drains and joins the workers.
  std::vector<bool> Good = checkReplies(R, P, W);

  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "serve-mix: %zu requests (%zu cold) at %.0f/s over %.1f s, "
                "%u workers %.0f%% busy",
                P.Schedule.size(), P.ColdSources.size(), ArrivalRatePerS,
                WindowS, ServeWorkers, 100 * W.WorkerBusy);
  R.note(Line);
  if (Args.Trace) {
    runTracedServe(Args, R, P, W);
    return R;
  }

  std::vector<double> Latency, ByClass[2];
  double WithinLimit = 0;
  for (size_t I = 0; I != P.Schedule.size(); ++I) {
    double Ms = latencyFromDue(W.Times[I]);
    Latency.push_back(Ms);
    ByClass[P.Schedule[I].Hot >= 0].push_back(Ms);
    if (Good[I] && Ms <= GoodputLimitMs)
      ++WithinLimit;
  }
  std::snprintf(Line, sizeof(Line),
                "serve-mix classes: cold p50 %.3f p99 %.3f ms, hot p50 %.3f "
                "p99 %.3f ms",
                median(ByClass[0]), percentile(ByClass[0], 99),
                median(ByClass[1]), percentile(ByClass[1], 99));
  R.note(Line);
  addEndToEnd(R, SetUpS, WithinLimit / WindowS, Latency,
              "serve-mix request (from due time)");
  return R;
}

} // namespace perfbench
