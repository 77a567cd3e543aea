//===- tests/DistributedTests.cpp - The distributed-analysis wall ---------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 'check-dist' label: multi-process sharded suite runs and the
/// ipcp-serve shard router must be invisible to results.
///
///   * The full (12 programs x 13 configs) grid and 30 random-seed
///     programs come back byte-identical (deterministic fields) from
///     runShardedSuite vs a single-process runSuite.
///   * A worker crash mid-partition is recovered by reassignment with
///     an identical grid; exhausted retries fail loudly, naming the
///     partition. Garbled job/result files are rejected, not guessed at.
///   * runShardedAnalysis renders the same report as a local
///     runPipeline, including after a crash-and-reassign.
///   * The router forwards byte-identically (in-process and through
///     ipcp-driver --server-url against a spawned fleet), answers
///     malformed lines locally, survives backend death by rehash +
///     retry, degrades to structured `overloaded` when the whole fleet
///     is dead, and shuts down cleanly under concurrent traffic and a
///     concurrent kill (the TSan target for the lock-free teardown).
///
/// tools/verify.sh runs the label under the default and asan presets,
/// and the router tests under tsan.
///
//===----------------------------------------------------------------------===//

#include "ipcp/Pipeline.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Render.h"
#include "serve/Router.h"
#include "serve/Server.h"
#include "serve/Transport.h"
#include "workloads/RandomProgram.h"
#include "workloads/ShardedSuite.h"
#include "workloads/Suite.h"
#include "workloads/SuiteRunner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace ipcp;

namespace {

ShardSpawnOptions workerSpawn() {
  ShardSpawnOptions S;
#ifdef IPCP_DRIVER_PATH
  S.WorkerBinary = IPCP_DRIVER_PATH;
#endif
  return S;
}

/// Asserts the sharded grid equals the single-process one on every
/// deterministic field.
void expectGridsEqual(const SuiteRunResult &Local,
                      const ShardedSuiteResult &Sharded) {
  ASSERT_TRUE(Sharded.Ok) << Sharded.Error;
  ASSERT_EQ(Local.NumPrograms, Sharded.NumPrograms);
  ASSERT_EQ(Local.NumConfigs, Sharded.NumConfigs);
  ASSERT_EQ(Local.Cells.size(), Sharded.Cells.size());
  for (size_t I = 0; I < Local.Cells.size(); ++I) {
    const SuiteCell &L = Local.Cells[I];
    const ShardCellResult &S = Sharded.Cells[I];
    EXPECT_EQ(L.Program, S.Program) << "cell " << I;
    EXPECT_EQ(L.Config, S.Config) << "cell " << I;
    EXPECT_EQ(L.Ok, S.Ok) << L.Program << " / " << L.Config;
    EXPECT_EQ(L.SubstitutedConstants, S.SubstitutedConstants)
        << L.Program << " / " << L.Config;
    EXPECT_EQ(L.ConstantPrints, S.ConstantPrints)
        << L.Program << " / " << L.Config;
  }
}

JsonValue parsedReply(const std::string &ReplyLine) {
  std::string Err;
  std::optional<JsonValue> V = parseJson(ReplyLine, Err);
  EXPECT_TRUE(V.has_value()) << Err << " in: " << ReplyLine;
  return V ? *V : JsonValue::object();
}

std::string errorKind(const JsonValue &Reply) {
  const JsonValue *E = Reply.find("error");
  return E ? E->strOr("kind", "") : "";
}

std::string analyzeLine(const std::string &Id, const std::string &Source) {
  return "{\"id\":\"" + Id +
         "\",\"method\":\"analyze-source\",\"params\":{\"source\":" +
         JsonValue(Source).dump() + "}}";
}

/// A distinct tiny program per index so requests spread across the
/// rendezvous ring instead of all hashing to one backend.
std::string distinctProgram(unsigned I) {
  return "proc main()\n  call f(" + std::to_string(I + 1) +
         ")\nend\nproc f(x)\n  print x\nend\n";
}

} // namespace

//===----------------------------------------------------------------------===//
// Sharded suite runs: byte-identity with the single process
//===----------------------------------------------------------------------===//

TEST(ShardedSuite, FullGridMatchesSingleProcess) {
  const std::vector<WorkloadProgram> &Programs = benchmarkSuite();
  std::vector<SuiteConfig> Configs = configsByName("all");

  SuiteRunResult Local = runSuite(Programs, Configs);

  ShardedSuiteOptions Opts;
  Opts.NumWorkers = 4;
  Opts.ConfigSet = "all";
  Opts.Spawn = workerSpawn();
  ShardedSuiteResult Sharded = runShardedSuite(Programs, Opts);

  EXPECT_EQ(4u, Sharded.WorkersSpawned);
  EXPECT_EQ(0u, Sharded.WorkerCrashes);
  expectGridsEqual(Local, Sharded);
}

TEST(ShardedSuite, RandomProgramsMatchSingleProcess) {
  std::vector<WorkloadProgram> Programs;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    RandomSpec Spec;
    Spec.Seed = Seed;
    WorkloadProgram W{};
    W.Name = "rand" + std::to_string(Seed);
    W.Source = generateRandomProgram(Spec);
    Programs.push_back(std::move(W));
  }

  SuiteRunResult Local = runSuite(Programs, configsByName("all"));

  ShardedSuiteOptions Opts;
  Opts.NumWorkers = 3;
  Opts.ConfigSet = "all";
  Opts.Spawn = workerSpawn();
  ShardedSuiteResult Sharded = runShardedSuite(Programs, Opts);
  expectGridsEqual(Local, Sharded);
}

TEST(ShardedSuite, CrashedWorkerPartitionIsReassigned) {
  const std::vector<WorkloadProgram> &Suite = benchmarkSuite();
  std::vector<WorkloadProgram> Programs(Suite.begin(), Suite.begin() + 6);

  SuiteRunResult Local = runSuite(Programs, configsByName("table2"));

  ShardedSuiteOptions Opts;
  Opts.NumWorkers = 3;
  Opts.ConfigSet = "table2";
  Opts.Spawn = workerSpawn();
  Opts.Spawn.CrashPartitionIndex = 1;
  Opts.Spawn.CrashAfterCells = 1; // Die mid-partition, not before work.
  ShardedSuiteResult Sharded = runShardedSuite(Programs, Opts);

  EXPECT_GE(Sharded.WorkerCrashes, 1u);
  EXPECT_GE(Sharded.PartitionsReassigned, 1u);
  expectGridsEqual(Local, Sharded);
}

TEST(ShardedSuite, ExhaustedRetriesFailLoudly) {
  const std::vector<WorkloadProgram> &Suite = benchmarkSuite();
  std::vector<WorkloadProgram> Programs(Suite.begin(), Suite.begin() + 2);

  ShardedSuiteOptions Opts;
  Opts.NumWorkers = 2;
  Opts.ConfigSet = "table2";
  Opts.Spawn = workerSpawn();
  Opts.Spawn.MaxAttempts = 1; // No recovery budget: the crash is fatal.
  Opts.Spawn.CrashPartitionIndex = 0;
  Opts.Spawn.CrashAfterCells = 0;
  ShardedSuiteResult Sharded = runShardedSuite(Programs, Opts);

  EXPECT_FALSE(Sharded.Ok);
  EXPECT_NE(std::string::npos, Sharded.Error.find("partition"))
      << Sharded.Error;
  EXPECT_GE(Sharded.WorkerCrashes, 1u);
}

//===----------------------------------------------------------------------===//
// Job/result file hardening: parse-or-reject, never guess
//===----------------------------------------------------------------------===//

TEST(ShardFiles, JobRoundTripsAndRejectsGarbage) {
  ShardJob Job;
  Job.JobMode = ShardJob::Mode::Cells;
  Job.ConfigSet = "table3";
  Job.Programs.push_back({"p1", "proc main()\n  print 1\nend\n"});
  Job.Programs.push_back({"p2", "proc main()\n  print 2\nend\n"});

  std::string Text = serializeShardJob(Job);
  ShardJob Back;
  std::string Error;
  ASSERT_TRUE(parseShardJob(Text, Back, Error)) << Error;
  EXPECT_EQ(serializeShardJob(Back), Text);

  for (const std::string &Bad : {
           std::string("not json at all"),
           std::string("[1,2,3]"),
           Text.substr(0, Text.size() / 2),
           std::string("{\"format\":\"ipcp-shard-job\",\"version\":99}"),
           std::string("{\"format\":\"ipcp-summary\",\"version\":1}"),
       }) {
    ShardJob Out;
    std::string Err;
    EXPECT_FALSE(parseShardJob(Bad, Out, Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

TEST(ShardFiles, ResultRoundTripsAndRejectsGarbage) {
  ShardResult R;
  R.Cells.push_back({"p1", "poly", true, 4, 2});
  R.Cells.push_back({"p1", "pass", true, 3, 1});
  R.Summaries.push_back("{\"format\":\"ipcp-summary\"}");

  std::string Text = serializeShardResult(R);
  ShardResult Back;
  std::string Error;
  ASSERT_TRUE(parseShardResult(Text, Back, Error)) << Error;
  EXPECT_EQ(serializeShardResult(Back), Text);

  for (const std::string &Bad : {
           std::string(""),
           Text.substr(0, Text.size() - 3),
           std::string("{\"format\":\"ipcp-shard-result\",\"version\":2}"),
           std::string("{\"format\":\"ipcp-shard-job\",\"version\":1}"),
       }) {
    ShardResult Out;
    std::string Err;
    EXPECT_FALSE(parseShardResult(Bad, Out, Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Sharded analysis: merged summaries render the local report
//===----------------------------------------------------------------------===//

TEST(ShardedAnalysis, MatchesLocalPipelineReport) {
  const std::vector<WorkloadProgram> &Suite = extendedSuite();
  ReportOptions Report;
  Report.Stats = true;

  for (const char *ProgramName : {"trfd", "ocean", "doduc", "copychains"}) {
    const WorkloadProgram *W = nullptr;
    for (const WorkloadProgram &P : Suite)
      if (P.Name == ProgramName)
        W = &P;
    ASSERT_NE(nullptr, W);

    for (const SuiteConfig &C : allConfigs()) {
      // Neither has a stage 2 to shard (RejectsNonShardableConfigs).
      if (C.Opts.CompletePropagation || C.Opts.IntraproceduralOnly)
        continue;
      PipelineResult Local = runPipeline(W->Source, C.Opts);
      ASSERT_TRUE(Local.Ok) << Local.Error;

      ShardedAnalysisOptions SOpts;
      SOpts.NumShards = 3;
      SOpts.Spawn = workerSpawn();
      ShardedAnalysisResult Sharded =
          runShardedAnalysis(W->Name, W->Source, C.Opts, SOpts);
      ASSERT_TRUE(Sharded.Ok) << Sharded.Error;

      EXPECT_EQ(renderAnalysisReport(C.Opts, Local, Report),
                renderAnalysisReport(C.Opts, Sharded.Pipeline, Report))
          << ProgramName << " / " << C.Name;
    }
  }
}

TEST(ShardedAnalysis, RecoversFromWorkerCrash) {
  const std::vector<WorkloadProgram> &Suite = benchmarkSuite();
  const WorkloadProgram &W = Suite.front();
  PipelineOptions Opts; // Default: polynomial + return jump functions.

  PipelineResult Local = runPipeline(W.Source, Opts);
  ASSERT_TRUE(Local.Ok) << Local.Error;

  ShardedAnalysisOptions SOpts;
  SOpts.NumShards = 2;
  SOpts.Spawn = workerSpawn();
  SOpts.Spawn.CrashPartitionIndex = 0;
  ShardedAnalysisResult Sharded =
      runShardedAnalysis(W.Name, W.Source, Opts, SOpts);
  ASSERT_TRUE(Sharded.Ok) << Sharded.Error;
  EXPECT_GE(Sharded.WorkerCrashes, 1u);
  EXPECT_GE(Sharded.PartitionsReassigned, 1u);

  ReportOptions Report;
  Report.Stats = true;
  EXPECT_EQ(renderAnalysisReport(Opts, Local, Report),
            renderAnalysisReport(Opts, Sharded.Pipeline, Report));
}

TEST(ShardedAnalysis, RejectsNonShardableConfigs) {
  PipelineOptions Complete;
  Complete.CompletePropagation = true;
  ShardedAnalysisOptions SOpts;
  SOpts.Spawn = workerSpawn();
  ShardedAnalysisResult R = runShardedAnalysis(
      "p", "proc main()\n  print 1\nend\n", Complete, SOpts);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

//===----------------------------------------------------------------------===//
// Router: in-process backend (no subprocess needed)
//===----------------------------------------------------------------------===//

namespace {

/// One backend Server behind a loopback listener, for router tests that
/// don't need process isolation.
struct InProcessBackend {
  Server S{{.Workers = 2}};
  TcpListener Listener;
  std::thread Accept;
  bool Up = false;

  std::string start() {
    std::string Error;
    if (!Listener.listen(0, Error))
      return Error;
    Accept = std::thread([this] { Listener.run(S); });
    Up = true;
    return "";
  }
  std::string url() const {
    return "127.0.0.1:" + std::to_string(Listener.port());
  }
  ~InProcessBackend() {
    if (Up) {
      Listener.stop();
      Accept.join();
    }
    S.shutdown();
  }
};

} // namespace

TEST(Router, ForwardsByteIdenticallyToDirectBackend) {
  InProcessBackend Routed, Direct;
  std::string Error = Routed.start();
  if (!Error.empty())
    GTEST_SKIP() << "cannot bind a loopback socket here: " << Error;
  ASSERT_EQ("", Direct.start());

  RouterOptions ROpts;
  ROpts.Backends = {Routed.url()};
  Router R(ROpts);
  ASSERT_TRUE(R.start(Error)) << Error;

  // The same request sequence against two cold servers — one direct,
  // one through the router — must produce byte-identical replies,
  // including the repeat (its "cached" flag flips identically).
  std::vector<std::string> Lines = {
      analyzeLine("a", distinctProgram(0)),
      analyzeLine("b", distinctProgram(1)),
      analyzeLine("a", distinctProgram(0)), // Repeat: reply-cache hit.
      "{\"id\":\"c\",\"method\":\"analyze-suite-program\","
      "\"params\":{\"program\":\"trfd\",\"report\":{\"stats\":true}}}",
  };
  for (const std::string &Line : Lines)
    EXPECT_EQ(Direct.S.handle(Line), R.handle(Line)) << Line;

  JsonValue Stats = R.statsJson();
  EXPECT_EQ(4, Stats.intOr("forwarded", -1));
  EXPECT_EQ(1, Stats.intOr("backends_alive", -1));

  R.shutdown();
}

TEST(Router, MalformedLinesAnsweredLocally) {
  InProcessBackend B;
  std::string Error = B.start();
  if (!Error.empty())
    GTEST_SKIP() << "cannot bind a loopback socket here: " << Error;

  RouterOptions ROpts;
  ROpts.Backends = {B.url()};
  Router R(ROpts);
  ASSERT_TRUE(R.start(Error)) << Error;

  for (const char *Bad :
       {"{nope", "[]", "{\"id\":\"x\",\"method\":\"no-such-method\"}"}) {
    JsonValue Reply = parsedReply(R.handle(Bad));
    EXPECT_FALSE(Reply.boolOr("ok", true)) << Bad;
    EXPECT_EQ("malformed", errorKind(Reply)) << Bad;
  }

  // None of them cost a backend round trip.
  JsonValue Stats = R.statsJson();
  EXPECT_EQ(3, Stats.intOr("malformed", -1));
  EXPECT_EQ(0, Stats.intOr("forwarded", -1));

  R.shutdown();
}

TEST(Router, StatsAggregatesBackendBlocks) {
  InProcessBackend B;
  std::string Error = B.start();
  if (!Error.empty())
    GTEST_SKIP() << "cannot bind a loopback socket here: " << Error;

  RouterOptions ROpts;
  ROpts.Backends = {B.url()};
  Router R(ROpts);
  ASSERT_TRUE(R.start(Error)) << Error;

  ASSERT_TRUE(
      parsedReply(R.handle(analyzeLine("a", distinctProgram(0))))
          .boolOr("ok", false));

  JsonValue Reply =
      parsedReply(R.handle("{\"id\":\"s\",\"method\":\"stats\"}"));
  ASSERT_TRUE(Reply.boolOr("ok", false));
  const JsonValue *Result = Reply.find("result");
  ASSERT_NE(nullptr, Result);
  EXPECT_EQ("router", Result->strOr("role", ""));
  const JsonValue *Backends = Result->find("backends");
  ASSERT_NE(nullptr, Backends);
  ASSERT_TRUE(Backends->isArray());
  ASSERT_EQ(1u, Backends->elements().size());
  const JsonValue &Block = Backends->elements().front();
  EXPECT_EQ(B.url(), Block.strOr("url", ""));
  EXPECT_TRUE(Block.boolOr("alive", false));
  EXPECT_EQ(1, Block.intOr("forwarded", -1));
  // The live backend's own stats reply is embedded.
  const JsonValue *Inner = Block.find("stats");
  ASSERT_NE(nullptr, Inner);
  EXPECT_GE(Inner->intOr("received", -1), 1);

  R.shutdown();
}

//===----------------------------------------------------------------------===//
// Router: spawned fleet (process isolation, death, teardown)
//===----------------------------------------------------------------------===//

#ifdef IPCP_SERVE_PATH
namespace {

RouterOptions spawnedFleet(unsigned N) {
  RouterOptions O;
  O.SpawnBackends = N;
  O.ServeBinary = IPCP_SERVE_PATH;
  O.BackendWorkers = 2;
  return O;
}

} // namespace

TEST(RouterFleet, BackendDeathRehashesAndRetries) {
  Router R(spawnedFleet(2));
  std::string Error;
  if (!R.start(Error))
    GTEST_SKIP() << "cannot spawn a backend fleet here: " << Error;
  ASSERT_EQ(2u, R.numBackends());

  // Warm both backends with traffic spread across the ring.
  for (unsigned I = 0; I < 8; ++I)
    ASSERT_TRUE(parsedReply(R.handle(analyzeLine("w" + std::to_string(I),
                                                 distinctProgram(I))))
                    .boolOr("ok", false));

  R.killBackend(0);

  // killBackend does not mark the backend dead — forwards discover the
  // death organically. Distinct keys rendezvous ~half to the corpse, so
  // a bounded stream of fresh requests reaches it with certainty for
  // all practical purposes (miss probability 2^-48); every reply must
  // still be ok, computed by the survivor after rehash + retry.
  for (unsigned I = 0; I < 48 && R.numAlive() == 2; ++I)
    ASSERT_TRUE(parsedReply(R.handle(analyzeLine("k" + std::to_string(I),
                                                 distinctProgram(100 + I))))
                    .boolOr("ok", false));
  EXPECT_EQ(1u, R.numAlive());

  JsonValue Stats = R.statsJson();
  EXPECT_EQ(1, Stats.intOr("backend_deaths", -1));
  EXPECT_GE(Stats.intOr("retries", -1), 1);
  EXPECT_EQ(1, Stats.intOr("backends_alive", -1));

  R.shutdown();
}

TEST(RouterFleet, AllBackendsDownYieldsOverloaded) {
  Router R(spawnedFleet(2));
  std::string Error;
  if (!R.start(Error))
    GTEST_SKIP() << "cannot spawn a backend fleet here: " << Error;

  R.killBackend(0);
  R.killBackend(1);

  JsonValue Reply =
      parsedReply(R.handle(analyzeLine("x", distinctProgram(0))));
  EXPECT_FALSE(Reply.boolOr("ok", true));
  EXPECT_EQ("overloaded", errorKind(Reply));
  const JsonValue *E = Reply.find("error");
  ASSERT_NE(nullptr, E);
  EXPECT_NE(std::string::npos, E->strOr("message", "").find("down"));

  // The router itself is still alive: stats answers locally.
  EXPECT_TRUE(parsedReply(R.handle("{\"id\":\"s\",\"method\":\"stats\"}"))
                  .boolOr("ok", false));
  EXPECT_EQ(0u, R.numAlive());

  R.shutdown();
}

/// The TSan target for the teardown ordering: traffic, a backend kill,
/// and shutdown() all race, and every submitted request must still get
/// exactly one reply (computed, shed, or error — never dropped).
TEST(RouterFleet, ShutdownRacesWithTrafficAndBackendDeath) {
  Router R(spawnedFleet(2));
  std::string Error;
  if (!R.start(Error))
    GTEST_SKIP() << "cannot spawn a backend fleet here: " << Error;

  std::atomic<unsigned> Submitted{0}, Answered{0};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T < 4; ++T)
    Clients.emplace_back([&, T] {
      for (unsigned I = 0; I < 8; ++I) {
        std::string Line =
            I % 4 == 3 ? "{malformed"
                       : analyzeLine("t" + std::to_string(T) + "." +
                                         std::to_string(I),
                                     distinctProgram(T * 8 + I));
        Submitted.fetch_add(1);
        R.submit(std::move(Line),
                 [&](std::string) { Answered.fetch_add(1); });
      }
    });
  std::thread Killer([&] { R.killBackend(0); });
  std::thread Stopper([&] { R.shutdown(); });

  for (std::thread &T : Clients)
    T.join();
  Killer.join();
  Stopper.join();
  R.shutdown(); // Idempotent.

  EXPECT_EQ(Submitted.load(), Answered.load());
  EXPECT_TRUE(R.draining());

  // Post-shutdown submissions are shed with a structured reply.
  JsonValue Reply =
      parsedReply(R.handle(analyzeLine("late", distinctProgram(0))));
  EXPECT_FALSE(Reply.boolOr("ok", true));
  EXPECT_EQ("shutting-down", errorKind(Reply));
}

//===----------------------------------------------------------------------===//
// Differential: driver --server-url through the front tier
//===----------------------------------------------------------------------===//

#ifdef IPCP_DRIVER_PATH
namespace {

bool runCommand(const std::string &Cmd, std::string &Out) {
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return false;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  return pclose(P) == 0;
}

} // namespace

TEST(RouterFleet, DriverThroughRouterMatchesLocal) {
  Router R(spawnedFleet(2));
  std::string Error;
  if (!R.start(Error))
    GTEST_SKIP() << "cannot spawn a backend fleet here: " << Error;

  TcpListener Front;
  ASSERT_TRUE(Front.listen(0, Error)) << Error;
  std::thread Accept([&] { Front.run(R); });
  std::string Url = "127.0.0.1:" + std::to_string(Front.port());

  const std::string Driver = IPCP_DRIVER_PATH;
  for (const char *Flags :
       {"--suite=ocean", "--suite=ocean --stats", "--suite=trfd --quiet",
        "--suite=mdg --jf=pass --no-rjf", "--suite=qcd --emit-source"}) {
    std::string Local, Routed;
    ASSERT_TRUE(runCommand(Driver + " " + Flags + " 2>/dev/null", Local))
        << Flags;
    ASSERT_TRUE(runCommand(Driver + " " + Flags + " --server-url=" + Url +
                               " 2>/dev/null",
                           Routed))
        << Flags;
    EXPECT_EQ(Local, Routed) << "output diverged through the router for: "
                             << Flags;
  }

  Front.stop();
  Accept.join();
  R.shutdown();
}
#endif // IPCP_DRIVER_PATH
#endif // IPCP_SERVE_PATH
