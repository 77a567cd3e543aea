//===- tests/DistributedTests.cpp - The serve router wall -----------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 'check-dist' label: the ipcp-serve front-tier router must be
/// invisible to results. It forwards byte-identically (in-process and
/// through ipcp-driver --server-url against a spawned fleet), answers
/// malformed lines locally, survives backend death by rehash + retry,
/// degrades to structured `overloaded` when the whole fleet is dead, and
/// shuts down cleanly under concurrent traffic and a concurrent kill (the
/// TSan target for the lock-free teardown).
///
/// tools/verify.sh runs the label under the default and asan presets,
/// and under tsan.
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Router.h"
#include "serve/Server.h"
#include "serve/Transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace ipcp;

namespace {

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
