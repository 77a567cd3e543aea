//===- tests/ServeTests.cpp - Analysis server tests -----------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The check-serve suite: protocol goldens, the session cache and
/// request coalescing, deadline cancellation, overload shedding,
/// graceful drain, the TCP transport (round trip, drain with an idle
/// connection open, reaping of finished connections), and the differential
/// test pinning --server-url output byte-identical to local ipcp-driver
/// output.
///
/// Concurrency-sensitive tests are made deterministic with
/// Server::TestHookBeforeCompute: the hook parks the leader computation
/// on a latch while the test arranges followers, queue pressure, or a
/// drain around it — no sleeps, no races on "did it start yet".
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Render.h"
#include "serve/Server.h"
#include "serve/Transport.h"
#include "support/Cancellation.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

using namespace ipcp;

namespace {

const char *SampleProgram = R"(proc main()
  call f(5)
end
proc f(x)
  print x
end
)";

/// Collects asynchronous replies and lets the test block for a count.
struct ReplyBin {
  std::mutex Mutex;
  std::condition_variable Cv;
  std::vector<std::string> Replies;

  std::function<void(std::string)> sink() {
    return [this](std::string R) {
      std::lock_guard<std::mutex> Lock(Mutex);
      Replies.push_back(std::move(R));
      Cv.notify_all();
    };
  }

  std::vector<std::string> waitFor(size_t N) {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return Replies.size() >= N; });
    return Replies;
  }
};

/// A one-shot gate the test hook parks on.
struct Gate {
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Open = false;
  bool Reached = false;

  void waitOpen() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Reached = true;
    Cv.notify_all();
    Cv.wait(Lock, [&] { return Open; });
  }
  void waitReached() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return Reached; });
  }
  void open() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Open = true;
    Cv.notify_all();
  }
};

std::string analyzeRequest(const std::string &Id, const std::string &Source,
                           const std::string &Extra = "") {
  return "{\"id\":\"" + Id +
         "\",\"method\":\"analyze-source\",\"params\":{\"source\":" +
         JsonValue(Source).dump() + Extra + "}}";
}

JsonValue parsedOk(const std::string &ReplyLine) {
  std::string Err;
  std::optional<JsonValue> V = parseJson(ReplyLine, Err);
  EXPECT_TRUE(V.has_value()) << Err << " in: " << ReplyLine;
  return V ? *V : JsonValue::object();
}

std::string errorKind(const JsonValue &Reply) {
  const JsonValue *E = Reply.find("error");
  return E ? E->strOr("kind", "") : "";
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol goldens
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, ReplyGoldens) {
  JsonValue Payload = JsonValue::object();
  Payload.set("substituted", JsonValue(12));
  EXPECT_EQ(makeOkReply("r1", Payload),
            "{\"id\":\"r1\",\"ok\":true,\"result\":{\"substituted\":12}}");
  EXPECT_EQ(makeErrorReply("r9", ServeErrorKind::Overloaded,
                           "queue full (64 pending)"),
            "{\"error\":{\"kind\":\"overloaded\",\"message\":\"queue full "
            "(64 pending)\"},\"id\":\"r9\",\"ok\":false}");
}

TEST(ServeProtocol, RequestGolden) {
  ServeRequest Req;
  std::string Err;
  ASSERT_TRUE(parseServeRequest(
      "{\"id\":\"a\",\"method\":\"analyze-source\",\"params\":{"
      "\"source\":\"proc main()\\nend\\n\",\"config\":{\"jf\":\"pass\","
      "\"rjf\":false,\"complete\":true},\"report\":{\"stats\":true},"
      "\"deadline_ms\":250}}",
      Req, Err))
      << Err;
  EXPECT_EQ(Req.Id, "a");
  EXPECT_EQ(Req.Method, ServeMethod::AnalyzeSource);
  EXPECT_EQ(Req.Source, "proc main()\nend\n");
  EXPECT_EQ(Req.Config.Kind, JumpFunctionKind::PassThrough);
  EXPECT_FALSE(Req.Config.UseReturnJumpFunctions);
  EXPECT_TRUE(Req.Config.CompletePropagation);
  EXPECT_TRUE(Req.Report.Stats);
  EXPECT_EQ(Req.DeadlineMs, 250);
}

TEST(ServeProtocol, SerializeRoundTrips) {
  ServeRequest Req;
  Req.Id = "rt";
  Req.Method = ServeMethod::AnalyzeSource;
  Req.Source = SampleProgram;
  Req.Config.Kind = JumpFunctionKind::PassThrough;
  Req.Config.UseMod = false;
  Req.Report.Quiet = true;
  Req.DeadlineMs = 1500;

  ServeRequest Back;
  std::string Err;
  ASSERT_TRUE(parseServeRequest(serializeServeRequest(Req), Back, Err)) << Err;
  EXPECT_EQ(Back.Id, "rt");
  EXPECT_EQ(Back.Source, Req.Source);
  EXPECT_EQ(Back.Config.Kind, JumpFunctionKind::PassThrough);
  EXPECT_FALSE(Back.Config.UseMod);
  EXPECT_TRUE(Back.Report.Quiet);
  EXPECT_EQ(Back.DeadlineMs, 1500);
  EXPECT_EQ(configKey(Back.Config, Back.Report),
            configKey(Req.Config, Req.Report));
}

TEST(ServeProtocol, PrecisionFlagsSkewAcrossVersions) {
  // Pre-precision request lines carry no fsa/ogvn keys: a default-config
  // request serializes without them, such a line parses to the flags'
  // defaults, and re-serialization reproduces it byte-identically — old
  // and new peers exchange the same bytes.
  ServeRequest Req;
  Req.Id = "v1";
  Req.Method = ServeMethod::AnalyzeSource;
  Req.Source = "proc main()\nend\n";
  std::string Line = serializeServeRequest(Req);
  EXPECT_EQ(Line.find("fsa"), std::string::npos);
  EXPECT_EQ(Line.find("ogvn"), std::string::npos);

  ServeRequest Back;
  std::string Err;
  ASSERT_TRUE(parseServeRequest(Line, Back, Err)) << Err;
  EXPECT_FALSE(Back.Config.FlowSensitiveAlias);
  EXPECT_FALSE(Back.Config.OptimisticVn);
  EXPECT_EQ(serializeServeRequest(Back), Line);

  // Spelled-out flags parse, round-trip, and split the cache key from
  // the classic configuration.
  std::string DefaultKey = configKey(Req.Config, Req.Report);
  Req.Config.FlowSensitiveAlias = true;
  std::string FsaLine = serializeServeRequest(Req);
  EXPECT_NE(FsaLine.find("\"fsa\":true"), std::string::npos);
  ASSERT_TRUE(parseServeRequest(FsaLine, Back, Err)) << Err;
  EXPECT_TRUE(Back.Config.FlowSensitiveAlias);
  EXPECT_EQ(serializeServeRequest(Back), FsaLine);
  EXPECT_NE(configKey(Back.Config, Back.Report), DefaultKey);

  Req.Config.FlowSensitiveAlias = false;
  Req.Config.OptimisticVn = true;
  ASSERT_TRUE(parseServeRequest(serializeServeRequest(Req), Back, Err)) << Err;
  EXPECT_TRUE(Back.Config.OptimisticVn);
  EXPECT_NE(configKey(Back.Config, Back.Report), DefaultKey);

  // The optional keys stay strictly typed.
  EXPECT_FALSE(parseServeRequest(
      "{\"id\":\"x\",\"method\":\"analyze-source\",\"params\":{"
      "\"source\":\"s\",\"config\":{\"fsa\":\"yes\"}}}",
      Back, Err));
  EXPECT_NE(Err.find("config.fsa must be a boolean"), std::string::npos);
}

TEST(ServeProtocol, CopyFlagSkewAcrossVersions) {
  // Pre-copy request lines carry no copy key: a default-config request
  // serializes without it, such a line parses to the flag's default,
  // and re-serialization reproduces it byte-identically — old and new
  // peers exchange the same bytes.
  ServeRequest Req;
  Req.Id = "v1";
  Req.Method = ServeMethod::AnalyzeSource;
  Req.Source = "proc main()\nend\n";
  std::string Line = serializeServeRequest(Req);
  EXPECT_EQ(Line.find("copy"), std::string::npos);

  ServeRequest Back;
  std::string Err;
  ASSERT_TRUE(parseServeRequest(Line, Back, Err)) << Err;
  EXPECT_FALSE(Back.Config.CopyPropagation);
  EXPECT_EQ(serializeServeRequest(Back), Line);

  // The spelled-out flag parses, round-trips, and splits the cache key
  // from the classic configuration.
  std::string DefaultKey = configKey(Req.Config, Req.Report);
  Req.Config.CopyPropagation = true;
  std::string CopyLine = serializeServeRequest(Req);
  EXPECT_NE(CopyLine.find("\"copy\":true"), std::string::npos);
  ASSERT_TRUE(parseServeRequest(CopyLine, Back, Err)) << Err;
  EXPECT_TRUE(Back.Config.CopyPropagation);
  EXPECT_EQ(serializeServeRequest(Back), CopyLine);
  EXPECT_NE(configKey(Back.Config, Back.Report), DefaultKey);

  // A spelled-out false is tolerated and canonicalizes back to the
  // elided v1 bytes.
  ASSERT_TRUE(parseServeRequest(
      "{\"id\":\"v1\",\"method\":\"analyze-source\",\"params\":{"
      "\"source\":\"proc main()\\nend\\n\",\"config\":{\"copy\":false}}}",
      Back, Err))
      << Err;
  EXPECT_FALSE(Back.Config.CopyPropagation);
  EXPECT_EQ(serializeServeRequest(Back), Line);

  // The optional key stays strictly typed.
  EXPECT_FALSE(parseServeRequest(
      "{\"id\":\"x\",\"method\":\"analyze-source\",\"params\":{"
      "\"source\":\"s\",\"config\":{\"copy\":\"yes\"}}}",
      Back, Err));
  EXPECT_NE(Err.find("config.copy must be a boolean"), std::string::npos);
}

TEST(ServeProtocol, RejectsUnknownFields) {
  ServeRequest Req;
  std::string Err;
  EXPECT_FALSE(parseServeRequest("{\"id\":\"x\",\"method\":\"analyze-source\","
                                 "\"params\":{\"source\":\"s\","
                                 "\"config\":{\"jfx\":\"poly\"}}}",
                                 Req, Err));
  EXPECT_NE(Err.find("unknown config field 'jfx'"), std::string::npos);
  EXPECT_EQ(Req.Id, "x") << "id must be salvaged for the error reply";
}

TEST(ServeProtocol, ContentHashSeparatesFields) {
  EXPECT_NE(contentHash("ab", "c"), contentHash("a", "bc"));
  EXPECT_NE(contentHash("x", ""), contentHash("", "x"));
  EXPECT_EQ(contentHash("src", "cfg"), contentHash("src", "cfg"));
}

//===----------------------------------------------------------------------===//
// Malformed requests never hurt the server
//===----------------------------------------------------------------------===//

TEST(ServeServer, MalformedRequestsGetStructuredReplies) {
  Server S({.Workers = 1, .QueueLimit = 4, .CacheCapacity = 2});
  for (const char *Bad :
       {"not json at all", "[1,2,3]", "{\"id\":\"q\"}",
        "{\"id\":\"q\",\"method\":\"warp\"}",
        "{\"id\":\"q\",\"method\":\"analyze-source\",\"params\":{}}"}) {
    JsonValue Reply = parsedOk(S.handle(Bad));
    EXPECT_FALSE(Reply.boolOr("ok", true)) << Bad;
    EXPECT_EQ(errorKind(Reply), "malformed") << Bad;
  }
  // The server is still healthy after the abuse.
  JsonValue Good = parsedOk(S.handle(analyzeRequest("ok", SampleProgram)));
  EXPECT_TRUE(Good.boolOr("ok", false));
  JsonValue Stats = parsedOk(S.handle("{\"method\":\"stats\"}"));
  const JsonValue *Result = Stats.find("result");
  ASSERT_NE(Result, nullptr);
  EXPECT_EQ(Result->find("errors")->intOr("malformed", -1), 5);
}

TEST(ServeServer, FrontendErrorsAreAnalysisErrors) {
  Server S({.Workers = 1});
  JsonValue R1 = parsedOk(S.handle(analyzeRequest("b1", "proc main(\nend\n")));
  EXPECT_EQ(errorKind(R1), "analysis-error");
  // Repeat: the cached frontend failure answers without reparsing, and
  // the reply is identical apart from the id.
  JsonValue R2 = parsedOk(S.handle(analyzeRequest("b1", "proc main(\nend\n")));
  EXPECT_EQ(errorKind(R2), "analysis-error");
}

TEST(ServeServer, UnknownSuiteProgramIsAnalysisError) {
  Server S({.Workers = 1});
  JsonValue R = parsedOk(
      S.handle("{\"id\":\"s\",\"method\":\"analyze-suite-program\","
               "\"params\":{\"program\":\"nonesuch\"}}"));
  EXPECT_EQ(errorKind(R), "analysis-error");
}

//===----------------------------------------------------------------------===//
// Session cache
//===----------------------------------------------------------------------===//

TEST(ServeServer, RepeatRequestIsServedFromReplyCache) {
  Server S({.Workers = 1, .CacheCapacity = 4});
  JsonValue First = parsedOk(S.handle(analyzeRequest("a", SampleProgram)));
  ASSERT_TRUE(First.boolOr("ok", false));
  EXPECT_FALSE(First.find("result")->boolOr("cached", true));

  JsonValue Second = parsedOk(S.handle(analyzeRequest("b", SampleProgram)));
  ASSERT_TRUE(Second.boolOr("ok", false));
  EXPECT_TRUE(Second.find("result")->boolOr("cached", false));
  EXPECT_EQ(First.find("result")->strOr("output", "L"),
            Second.find("result")->strOr("output", "R"));

  JsonValue Stats = parsedOk(S.handle("{\"method\":\"stats\"}"));
  const JsonValue *Result = Stats.find("result");
  ASSERT_NE(Result, nullptr);
  EXPECT_EQ(Result->find("cache")->intOr("reply_hits", -1), 1);
  EXPECT_EQ(Result->find("cache")->intOr("misses", -1), 1);
}

TEST(ServeServer, NewConfigOnWarmProgramReusesSession) {
  Server S({.Workers = 1, .CacheCapacity = 4});
  ASSERT_TRUE(parsedOk(S.handle(analyzeRequest("a", SampleProgram)))
                  .boolOr("ok", false));
  ASSERT_TRUE(
      parsedOk(S.handle(analyzeRequest("b", SampleProgram,
                                       ",\"config\":{\"jf\":\"pass\"}")))
          .boolOr("ok", false));
  JsonValue Stats = parsedOk(S.handle("{\"method\":\"stats\"}"));
  const JsonValue *Result = Stats.find("result");
  ASSERT_NE(Result, nullptr);
  EXPECT_EQ(Result->find("cache")->intOr("session_hits", -1), 1);
  EXPECT_EQ(Result->find("cache")->intOr("misses", -1), 1);
  EXPECT_EQ(Result->find("cache")->intOr("reply_hits", -1), 0);
}

TEST(ServeServer, LruEvictsLeastRecentProgram) {
  Server S({.Workers = 1, .CacheCapacity = 2});
  // Three distinct programs through a capacity-2 cache (a unique
  // trailing comment changes the content hash, not the analysis).
  for (const char *Tag : {"a", "b", "c"})
    ASSERT_TRUE(parsedOk(S.handle(analyzeRequest(
                             Tag, std::string(SampleProgram) + "! " + Tag +
                                      "\n")))
                    .boolOr("ok", false));
  JsonValue Stats = parsedOk(S.handle("{\"method\":\"stats\"}"));
  const JsonValue *Result = Stats.find("result");
  ASSERT_NE(Result, nullptr);
  EXPECT_EQ(Result->find("cache")->intOr("entries", -1), 2);
  EXPECT_EQ(Result->find("cache")->intOr("evictions", -1), 1);
}

TEST(ServeServer, ServedOutputMatchesLocalRender) {
  Server S({.Workers = 1});
  std::string Extra = ",\"report\":{\"stats\":true}";
  JsonValue Reply = parsedOk(S.handle(analyzeRequest("r", SampleProgram,
                                                     Extra)));
  ASSERT_TRUE(Reply.boolOr("ok", false));

  PipelineOptions Opts;
  ReportOptions Report;
  Report.Stats = true;
  PipelineResult Local = runPipeline(SampleProgram, Opts);
  ASSERT_TRUE(Local.Ok);
  EXPECT_EQ(Reply.find("result")->strOr("output", ""),
            renderAnalysisReport(Opts, Local, Report));
}

//===----------------------------------------------------------------------===//
// Coalescing
//===----------------------------------------------------------------------===//

TEST(ServeServer, IdenticalInflightRequestsCoalesce) {
  Server S({.Workers = 2, .QueueLimit = 16});
  Gate G;
  S.TestHookBeforeCompute = [&](const ServeRequest &) { G.waitOpen(); };

  ReplyBin Bin;
  S.submit(analyzeRequest("leader", SampleProgram), Bin.sink());
  G.waitReached(); // Leader is parked inside compute.
  for (int I = 0; I != 3; ++I)
    S.submit(analyzeRequest("follower" + std::to_string(I), SampleProgram),
             Bin.sink());
  G.open();

  std::vector<std::string> Replies = Bin.waitFor(4);
  for (const std::string &Line : Replies) {
    JsonValue R = parsedOk(Line);
    EXPECT_TRUE(R.boolOr("ok", false)) << Line;
  }
  JsonValue Stats = parsedOk(S.handle("{\"method\":\"stats\"}"));
  EXPECT_EQ(Stats.find("result")->intOr("coalesced", -1), 3);
  // One computation: a single cold miss, no reply hits.
  EXPECT_EQ(Stats.find("result")->find("cache")->intOr("misses", -1), 1);
  EXPECT_EQ(Stats.find("result")->find("cache")->intOr("reply_hits", -1), 0);

  // All four replies agree apart from the id.
  for (std::string Line : Replies) {
    JsonValue R = parsedOk(Line);
    R.set("id", JsonValue("x"));
    JsonValue First = parsedOk(Replies[0]);
    First.set("id", JsonValue("x"));
    EXPECT_EQ(R.dump(), First.dump());
  }
}

//===----------------------------------------------------------------------===//
// Deadlines
//===----------------------------------------------------------------------===//

TEST(ServeCancellation, PipelineHonoursCancelledToken) {
  CancelToken Token;
  Token.cancel();
  PipelineOptions Opts;
  Opts.Cancel = &Token;
  PipelineResult R = runPipeline(SampleProgram, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Cancelled);
}

TEST(ServeCancellation, ExpiredDeadlineTokenReportsExpiry) {
  CancelToken Token;
  Token.setDeadlineAfterMs(0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(Token.expired());
}

TEST(ServeServer, DeadlineExpiryYieldsDeadlineReply) {
  Server S({.Workers = 1});
  // Park the doomed request until its 5ms deadline has certainly
  // expired; the pre-compute deadline check then fires
  // deterministically. Keyed on the id so the health-check request
  // after it is not delayed.
  S.TestHookBeforeCompute = [&](const ServeRequest &Req) {
    if (Req.Id == "d")
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
  };
  JsonValue R = parsedOk(
      S.handle(analyzeRequest("d", SampleProgram, ",\"deadline_ms\":5")));
  EXPECT_FALSE(R.boolOr("ok", true));
  EXPECT_EQ(errorKind(R), "deadline");

  // The server is healthy afterwards.
  EXPECT_TRUE(parsedOk(S.handle(analyzeRequest("ok", SampleProgram)))
                  .boolOr("ok", false));
  JsonValue Stats = parsedOk(S.handle("{\"method\":\"stats\"}"));
  EXPECT_EQ(Stats.find("result")->find("errors")->intOr("deadline", -1), 1);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(ServeServer, OverloadShedsWithStructuredReply) {
  Server S({.Workers = 1, .QueueLimit = 2});
  Gate G;
  S.TestHookBeforeCompute = [&](const ServeRequest &) { G.waitOpen(); };

  ReplyBin Bin;
  // Two distinct programs fill the queue (1 computing + 1 queued).
  S.submit(analyzeRequest("q1", std::string(SampleProgram) + "! q1\n"),
           Bin.sink());
  G.waitReached();
  S.submit(analyzeRequest("q2", std::string(SampleProgram) + "! q2\n"),
           Bin.sink());

  // The third is shed synchronously.
  JsonValue Shed = parsedOk(
      S.handle(analyzeRequest("q3", std::string(SampleProgram) + "! q3\n")));
  EXPECT_FALSE(Shed.boolOr("ok", true));
  EXPECT_EQ(errorKind(Shed), "overloaded");

  G.open();
  for (const std::string &Line : Bin.waitFor(2))
    EXPECT_TRUE(parsedOk(Line).boolOr("ok", false)) << Line;

  JsonValue Stats = parsedOk(S.handle("{\"method\":\"stats\"}"));
  EXPECT_EQ(Stats.find("result")->find("errors")->intOr("overloaded", -1), 1);
  EXPECT_EQ(Stats.find("result")->intOr("queue_high_water", -1), 2);
  EXPECT_EQ(Stats.find("result")->intOr("pending", -1), 0);
}

//===----------------------------------------------------------------------===//
// Graceful drain
//===----------------------------------------------------------------------===//

TEST(ServeServer, ShutdownDrainsInflightAndRejectsNew) {
  Server S({.Workers = 1, .QueueLimit = 8});
  Gate G;
  S.TestHookBeforeCompute = [&](const ServeRequest &) { G.waitOpen(); };

  ReplyBin Bin;
  S.submit(analyzeRequest("inflight", SampleProgram), Bin.sink());
  G.waitReached();

  // Begin the drain via the protocol.
  JsonValue Ack = parsedOk(S.handle("{\"id\":\"down\",\"method\":\"shutdown\"}"));
  EXPECT_TRUE(Ack.boolOr("ok", false));
  EXPECT_TRUE(S.draining());
  EXPECT_EQ(Ack.find("result")->intOr("pending", -1), 1);

  // New compute traffic is refused; stats still answers.
  JsonValue Refused = parsedOk(S.handle(analyzeRequest("late", SampleProgram)));
  EXPECT_EQ(errorKind(Refused), "shutting-down");
  EXPECT_TRUE(parsedOk(S.handle("{\"method\":\"stats\"}")).boolOr("ok", false));

  std::thread Drainer([&] { S.shutdown(); });
  G.open();
  Drainer.join();

  // The in-flight request completed successfully during the drain.
  std::vector<std::string> Replies = Bin.waitFor(1);
  EXPECT_TRUE(parsedOk(Replies[0]).boolOr("ok", false)) << Replies[0];
  EXPECT_EQ(S.pending(), 0u);
}

//===----------------------------------------------------------------------===//
// Other methods
//===----------------------------------------------------------------------===//

TEST(ServeServer, ValidateMethodRunsOracle) {
  Server S({.Workers = 1});
  JsonValue R = parsedOk(
      S.handle("{\"id\":\"v\",\"method\":\"validate\",\"params\":{"
               "\"source\":" +
               JsonValue(SampleProgram).dump() + ",\"max_steps\":10000}}"));
  ASSERT_TRUE(R.boolOr("ok", false));
  EXPECT_TRUE(R.find("result")->boolOr("valid", false));
  EXPECT_GT(R.find("result")->intOr("runs_executed", 0), 0);
}

TEST(ServeServer, FuzzReplayMethodEvaluatesEntry) {
  Server S({.Workers = 1});
  std::string Entry = "! ipcp-fuzz corpus\n! origin-seed: 1\n";
  Entry += SampleProgram;
  JsonValue R = parsedOk(
      S.handle("{\"id\":\"f\",\"method\":\"fuzz-replay\",\"params\":{"
               "\"entry\":" +
               JsonValue(Entry).dump() + "}}"));
  ASSERT_TRUE(R.boolOr("ok", false));
  EXPECT_FALSE(R.find("result")->boolOr("failed", true));
  EXPECT_GT(R.find("result")->intOr("feature_bits", 0), 0);
}

TEST(ServeServer, FuzzReplayRejectsMangledEntry) {
  // A truncated/garbled corpus header must come back as a structured
  // analysis-error, not be silently replayed (or worse, crash).
  Server S({.Workers = 1});
  std::string Entry = "! ipcp-fuzz corpus\n! origin-seed: 1x\n";
  Entry += SampleProgram;
  JsonValue R = parsedOk(
      S.handle("{\"id\":\"g\",\"method\":\"fuzz-replay\",\"params\":{"
               "\"entry\":" +
               JsonValue(Entry).dump() + "}}"));
  EXPECT_EQ(errorKind(R), "analysis-error");
  const JsonValue *Err = R.find("error");
  ASSERT_NE(Err, nullptr);
  EXPECT_NE(Err->strOr("message", "").find("garbled origin-seed"),
            std::string::npos);
}

TEST(ServeServer, HugeArrayRequestsLeaveServerAndCacheIntact) {
  // Executing a program that declares more array cells than an engine
  // may allocate must answer with a structured reply, not take down the
  // process and every warm session in it.
  Server S({.Workers = 1, .CacheCapacity = 4});
  ASSERT_TRUE(parsedOk(S.handle(analyzeRequest("warm", SampleProgram)))
                  .boolOr("ok", false));

  const std::string HugeGlobal = "array buf(4000000000)\n"
                                 "proc main()\n  buf(1) = 2\n"
                                 "  print buf(1)\nend\n";
  JsonValue V = parsedOk(
      S.handle("{\"id\":\"v\",\"method\":\"validate\",\"params\":{"
               "\"source\":" +
               JsonValue(HugeGlobal).dump() + "}}"));
  EXPECT_TRUE(V.boolOr("ok", false)) << V.dump();

  std::string Entry = "! ipcp-fuzz corpus\n! origin-seed: 1\n"
                      "proc main()\n  call f(3)\nend\n"
                      "proc f(x)\n  array w(3000000000)\n  w(1) = x\n"
                      "  print w(1)\nend\n";
  JsonValue F = parsedOk(
      S.handle("{\"id\":\"f\",\"method\":\"fuzz-replay\",\"params\":{"
               "\"entry\":" +
               JsonValue(Entry).dump() + "}}"));
  EXPECT_TRUE(F.boolOr("ok", false)) << F.dump();

  // The next request is answered, from the cache the first one warmed.
  JsonValue Again = parsedOk(S.handle(analyzeRequest("again", SampleProgram)));
  ASSERT_TRUE(Again.boolOr("ok", false));
  EXPECT_TRUE(Again.find("result")->boolOr("cached", false));
}

TEST(ServeServer, DeeplyNestedSourceIsAnalysisError) {
  // A ~40 KB line nesting 20,000 parentheses used to overflow the
  // parser's stack and take every resident session down with it. It is
  // now a frontend diagnostic, and the warm cache survives.
  Server S({.Workers = 1, .CacheCapacity = 4});
  ASSERT_TRUE(parsedOk(S.handle(analyzeRequest("warm", SampleProgram)))
                  .boolOr("ok", false));

  const std::string Deep = "proc main()\n  integer x\n  x = " +
                           std::string(20000, '(') + "1" +
                           std::string(20000, ')') + "\n  print x\nend\n";
  JsonValue R = parsedOk(S.handle(analyzeRequest("deep", Deep)));
  EXPECT_EQ(errorKind(R), "analysis-error");
  EXPECT_NE(R.dump().find("nesting too deep"), std::string::npos)
      << R.dump();

  JsonValue Again = parsedOk(S.handle(analyzeRequest("again", SampleProgram)));
  ASSERT_TRUE(Again.boolOr("ok", false));
  EXPECT_TRUE(Again.find("result")->boolOr("cached", false));
}

TEST(ServeServer, StatsReportTheSubstitutionMemo) {
  // Two configurations of one program share the warm session's
  // substitution memo; stats reports it beside the solver memo.
  Server S({.Workers = 1, .CacheCapacity = 4});
  ASSERT_TRUE(parsedOk(S.handle(analyzeRequest("a", SampleProgram)))
                  .boolOr("ok", false));
  ASSERT_TRUE(
      parsedOk(S.handle(analyzeRequest("b", SampleProgram,
                                       ",\"config\":{\"jf\":\"pass\"}")))
          .boolOr("ok", false));
  JsonValue Stats = parsedOk(S.handle("{\"method\":\"stats\"}"));
  const JsonValue *Memo = Stats.find("result")->find("substitution_memo");
  ASSERT_NE(Memo, nullptr) << Stats.dump();
  EXPECT_GT(Memo->intOr("misses", 0), 0);
  EXPECT_GT(Memo->intOr("hits", 0), 0);
  ASSERT_NE(Stats.find("result")->find("solver_memo"), nullptr);
}

//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

TEST(ServeTransport, StreamPumpAnswersAndDrains) {
  Server S({.Workers = 2});
  std::istringstream In(analyzeRequest("s1", SampleProgram) + "\n" +
                        analyzeRequest("s2", SampleProgram) + "\n" +
                        "{\"id\":\"down\",\"method\":\"shutdown\"}\n");
  std::ostringstream Out;
  serveStream(S, In, Out);

  size_t Count = 0;
  std::istringstream Lines(Out.str());
  std::string Line;
  while (std::getline(Lines, Line)) {
    ++Count;
    parsedOk(Line);
  }
  EXPECT_EQ(Count, 3u);
}

TEST(ServeTransport, TcpRoundTrip) {
  Server S({.Workers = 2});
  TcpListener Listener;
  std::string Error;
  if (!Listener.listen(0, Error))
    GTEST_SKIP() << "cannot bind a loopback socket here: " << Error;
  std::thread Accept([&] { Listener.run(S); });

  ServeClient Client;
  ASSERT_TRUE(Client.connect("127.0.0.1:" + std::to_string(Listener.port()),
                             Error))
      << Error;
  std::string Reply;
  ASSERT_TRUE(Client.call(analyzeRequest("t1", SampleProgram), Reply, Error))
      << Error;
  EXPECT_TRUE(parsedOk(Reply).boolOr("ok", false));
  // Same connection, repeat request: served from the reply cache.
  ASSERT_TRUE(Client.call(analyzeRequest("t2", SampleProgram), Reply, Error))
      << Error;
  EXPECT_TRUE(parsedOk(Reply).find("result")->boolOr("cached", false));

  Client.close();
  Listener.stop();
  Accept.join();
  S.shutdown();
}

/// A well-formed analyze request one byte over MaxRequestLineBytes.
std::string overlongRequest() {
  std::string Source = SampleProgram;
  Source.append(MaxRequestLineBytes, ' ');
  return analyzeRequest("big", Source);
}

TEST(ServeTransport, StreamRefusesOverlongLineAndKeepsServing) {
  Server S({.Workers = 1});
  ASSERT_TRUE(parsedOk(S.handle(analyzeRequest("warm", SampleProgram)))
                  .boolOr("ok", false));
  std::istringstream In(overlongRequest() + "\n" +
                        analyzeRequest("next", SampleProgram) + "\n");
  std::ostringstream Out;
  serveStream(S, In, Out);

  std::istringstream Lines(Out.str());
  std::string Refused, Next, Extra;
  ASSERT_TRUE(std::getline(Lines, Refused));
  ASSERT_TRUE(std::getline(Lines, Next));
  EXPECT_FALSE(std::getline(Lines, Extra)) << Extra;
  EXPECT_EQ(errorKind(parsedOk(Refused)), "malformed") << Refused;
  JsonValue R = parsedOk(Next);
  EXPECT_EQ(R.strOr("id", ""), "next");
  ASSERT_NE(R.find("result"), nullptr) << Next;
  EXPECT_TRUE(R.find("result")->boolOr("cached", false)) << Next;
}

TEST(ServeTransport, TcpRefusesOverlongLineAndKeepsServing) {
  Server S({.Workers = 1});
  TcpListener Listener;
  std::string Error;
  if (!Listener.listen(0, Error))
    GTEST_SKIP() << "cannot bind a loopback socket here: " << Error;
  std::thread Accept([&] { Listener.run(S); });

  ServeClient Client;
  ASSERT_TRUE(Client.connect("127.0.0.1:" + std::to_string(Listener.port()),
                             Error))
      << Error;
  std::string Reply;
  ASSERT_TRUE(Client.call(analyzeRequest("t1", SampleProgram), Reply, Error))
      << Error;
  EXPECT_TRUE(parsedOk(Reply).boolOr("ok", false)) << Reply;
  ASSERT_TRUE(Client.call(overlongRequest(), Reply, Error)) << Error;
  EXPECT_EQ(errorKind(parsedOk(Reply)), "malformed") << Reply;
  ASSERT_TRUE(Client.call(analyzeRequest("t2", SampleProgram), Reply, Error))
      << Error;
  JsonValue R = parsedOk(Reply);
  EXPECT_EQ(R.strOr("id", ""), "t2");
  ASSERT_NE(R.find("result"), nullptr) << Reply;
  EXPECT_TRUE(R.find("result")->boolOr("cached", false)) << Reply;

  Client.close();
  Listener.stop();
  Accept.join();
  S.shutdown();
}

namespace {

/// Runs \p L.run(S) on a thread and reports when it returns.
struct ListenerThread {
  TcpListener &L;
  std::promise<void> Returned;
  std::future<void> Done = Returned.get_future();
  std::thread T;

  ListenerThread(TcpListener &L, Server &S)
      : L(L), T([this, &S] {
          this->L.run(S);
          Returned.set_value();
        }) {}
  ~ListenerThread() {
    L.stop();
    T.join();
  }
};

/// Threads of this process.
size_t threadCount() {
  size_t N = 0;
  for ([[maybe_unused]] const auto &E :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++N;
  return N;
}

/// Memory mappings of this process.
size_t mappingCount() {
  std::ifstream Maps("/proc/self/maps");
  size_t N = 0;
  for (std::string Line; std::getline(Maps, Line);)
    ++N;
  return N;
}

} // namespace

TEST(ServeTransport, IdleConnectionDoesNotBlockDrain) {
  Server S({.Workers = 2});
  Gate Hold;
  S.TestHookBeforeCompute = [&](const ServeRequest &) { Hold.waitOpen(); };
  TcpListener Listener;
  std::string Error;
  if (!Listener.listen(0, Error))
    GTEST_SKIP() << "cannot bind a loopback socket here: " << Error;
  const std::string Url = "127.0.0.1:" + std::to_string(Listener.port());
  ListenerThread Accept(Listener, S);

  // A client that connects and never sends a byte.
  ServeClient Idle;
  ASSERT_TRUE(Idle.connect(Url, Error)) << Error;

  // A request admitted before the drain, parked in its computation.
  std::string BusyReply;
  std::thread Busy([&] {
    ServeClient C;
    std::string Err;
    if (C.connect(Url, Err))
      C.call(analyzeRequest("busy", SampleProgram), BusyReply, Err);
  });
  Hold.waitReached();

  ServeClient Control;
  std::string Reply;
  EXPECT_TRUE(Control.connect(Url, Error) &&
              Control.call("{\"id\":\"down\",\"method\":\"shutdown\"}",
                           Reply, Error))
      << Error;
  EXPECT_TRUE(S.draining()) << Reply;
  Hold.open();

  // run() returns with the idle connection still open.
  bool Returned =
      Accept.Done.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  EXPECT_TRUE(Returned) << "run() still waiting 2 s after shutdown";
  Idle.close(); // Lets a stuck run() return so the test can finish.
  Busy.join();
  JsonValue Busied = parsedOk(BusyReply);
  EXPECT_TRUE(Busied.boolOr("ok", false)) << BusyReply;
  EXPECT_EQ(Busied.strOr("id", ""), "busy");
  S.shutdown();
}

TEST(ServeTransport, FinishedConnectionsAreReaped) {
  Server S({.Workers = 2});
  TcpListener Listener;
  std::string Error;
  if (!Listener.listen(0, Error))
    GTEST_SKIP() << "cannot bind a loopback socket here: " << Error;
  const std::string Url = "127.0.0.1:" + std::to_string(Listener.port());
  ListenerThread Accept(Listener, S);

  // Warm up one connection so lazily created state is in the baseline.
  auto OneConnection = [&] {
    ServeClient C;
    std::string Err, Reply;
    ASSERT_TRUE(C.connect(Url, Err)) << Err;
    ASSERT_TRUE(C.call("{\"id\":\"s\",\"method\":\"stats\"}", Reply, Err))
        << Err;
  };
  OneConnection();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const size_t BaseThreads = threadCount();
  const size_t BaseMaps = mappingCount();

  for (int I = 0; I != 200; ++I)
    OneConnection();

  // An exited thread leaves /proc/self/task at once, but its stack (and
  // guard page) stay mapped until the thread is joined, so the mapping
  // count is what shows an unjoined backlog: 200 threads add about 400.
  // Joined stacks are cached or unmapped; new malloc arenas add a few.
  size_t Threads = 0, Maps = 0;
  for (int Try = 0; Try != 40; ++Try) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Threads = threadCount();
    Maps = mappingCount();
    if (Threads <= BaseThreads + 1 && Maps <= BaseMaps + 100)
      break;
  }
  EXPECT_LE(Threads, BaseThreads + 1);
  EXPECT_LE(Maps, BaseMaps + 100);
  S.shutdown();
}

//===----------------------------------------------------------------------===//
// Differential: --server-url output is byte-identical to local mode
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

TEST(ServeDifferential, DriverServedOutputMatchesLocal) {
  Server S({.Workers = 2});
  TcpListener Listener;
  std::string Error;
  if (!Listener.listen(0, Error))
    GTEST_SKIP() << "cannot bind a loopback socket here: " << Error;
  std::thread Accept([&] { Listener.run(S); });
  std::string Url = "127.0.0.1:" + std::to_string(Listener.port());

  const std::string Driver = IPCP_DRIVER_PATH;
  for (const char *Flags :
       {"--suite=ocean", "--suite=ocean --stats", "--suite=trfd --quiet",
        "--suite=mdg --jf=pass --no-rjf", "--suite=qcd --emit-source",
        "--suite=linpackd --complete"}) {
    std::string Local, Served;
    ASSERT_TRUE(runCommand(Driver + " " + Flags + " 2>/dev/null", Local))
        << Flags;
    ASSERT_TRUE(runCommand(Driver + " " + Flags + " --server-url=" + Url +
                               " 2>/dev/null",
                           Served))
        << Flags;
    EXPECT_EQ(Local, Served) << "output diverged for: " << Flags;
  }

  Listener.stop();
  Accept.join();
  S.shutdown();
}
#endif // IPCP_DRIVER_PATH
