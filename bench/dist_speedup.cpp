//===- bench/dist_speedup.cpp - Serve router vs one backend ---------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the ipcp-serve front-tier router buys at equal cores:
/// 0%-repeat load (every request a distinct random program) against one
/// server with N workers vs a router over N spawned backends with one
/// worker each (N = 4 by default, --workers=N). Both sides get the same
/// N analysis workers and the same client harness — 2N closed-loop
/// clients, one loopback TCP connection each — so the comparison
/// isolates process scale-out from thread scale-out inside one server.
/// The single server is driven directly, not through a router: a router
/// holds one connection per backend, so it would serialize a lone
/// backend's requests. Replies for the same request must be
/// byte-identical between the two sides.
///
/// Gates: replies must be identical, and a full run's routed side must
/// reach at least half the single server's throughput — a bound on what
/// the router costs, not a claim that it wins (at equal cores it does
/// not; see EXPERIMENTS.md "Distributed analysis"). Both sides have the
/// same workers, so the bound needs no core-count relaxation; the JSON
/// records the core count. --smoke (ctest -L check-bench) shrinks the
/// workload to 48 requests, too few to time, and checks identity only.
///
/// Results land in machine-readable JSON (--json=PATH, default
/// BENCH_dist.json). See EXPERIMENTS.md "Distributed analysis".
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Router.h"
#include "serve/Server.h"
#include "serve/Transport.h"
#include "workloads/RandomProgram.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace ipcp;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// One closed-loop load run: \p Clients threads, each on its own TCP
/// connection, split \p Lines between them and hammer \p H through a
/// loopback listener. Returns wall ms (negative if the listener cannot
/// bind); replies land in \p Replies (index-aligned with Lines; empty
/// where a call failed).
double driveLoad(RequestHandler &H, const std::vector<std::string> &Lines,
                 unsigned Clients, std::vector<std::string> &Replies) {
  Replies.assign(Lines.size(), "");
  TcpListener Listener;
  std::string Error;
  if (!Listener.listen(0, Error)) {
    std::cerr << "FAIL: cannot listen on loopback: " << Error << '\n';
    return -1;
  }
  std::thread Accept([&] { Listener.run(H); });
  const std::string Url = "127.0.0.1:" + std::to_string(Listener.port());
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Clients; ++T)
    Threads.emplace_back([&, T] {
      ServeClient Client;
      std::string Err;
      if (!Client.connect(Url, Err))
        return;
      for (size_t I = T; I < Lines.size(); I += Clients)
        if (!Client.call(Lines[I], Replies[I], Err))
          return;
    });
  for (std::thread &T : Threads)
    T.join();
  double Wall = msSince(Start);
  Listener.stop();
  Accept.join();
  return Wall;
}

std::string analyzeLine(size_t I, const std::string &Source) {
  return "{\"id\":\"q" + std::to_string(I) +
         "\",\"method\":\"analyze-source\",\"params\":{\"source\":" +
         JsonValue(Source).dump() + "}}";
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string JsonPath = "BENCH_dist.json";
  unsigned Workers = 4;
  unsigned Requests = 240;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--smoke")
      Smoke = true;
    else if (Arg.rfind("--json=", 0) == 0)
      JsonPath = Arg.substr(7);
    else if (Arg.rfind("--workers=", 0) == 0)
      Workers =
          static_cast<unsigned>(std::strtoul(Arg.c_str() + 10, nullptr, 10));
    else if (Arg.rfind("--requests=", 0) == 0)
      Requests =
          static_cast<unsigned>(std::strtoul(Arg.c_str() + 11, nullptr, 10));
    else {
      std::cerr << "usage: dist_speedup [--smoke] [--json=PATH] "
                   "[--workers=N] [--requests=N]\n";
      return 1;
    }
  }
  if (Workers == 0) {
    std::cerr << "error: --workers expects at least 1\n";
    return 1;
  }
  if (Smoke)
    Requests = 48;
  // Two closed-loop clients per worker keep every worker busy on both
  // sides even when the rendezvous hash spreads requests unevenly.
  const unsigned Clients = 2 * Workers;

  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores == 0)
    Cores = 1;
  // Routed throughput over single-server throughput; no timing gate on
  // a smoke run.
  const double MinSpeedup = Smoke ? 0.0 : 0.5;

  std::cout << "Serve router: 1 server x " << Workers << " workers vs "
            << Workers << " routed backends x 1 worker\n"
            << "cores=" << Cores << (Smoke ? " (smoke)" : "") << "\n\n";

  // Every request is a distinct random program — 0% repeats, so neither
  // side gets reply-cache help and the comparison is pure compute
  // scale-out. Generated up front, outside the timed region.
  std::vector<std::string> Lines;
  Lines.reserve(Requests);
  for (size_t I = 0; I != Requests; ++I) {
    RandomSpec Spec;
    Spec.Seed = 1000 + I;
    Lines.push_back(analyzeLine(I, generateRandomProgram(Spec)));
  }

  std::vector<std::string> SingleReplies, RoutedReplies;
  double SingleMs = 0;
  {
    Server S({.Workers = Workers});
    SingleMs = driveLoad(S, Lines, Clients, SingleReplies);
    S.shutdown();
  }
  double RoutedMs = 0;
  {
    RouterOptions ROpts;
    ROpts.SpawnBackends = Workers;
#ifdef IPCP_SERVE_PATH
    ROpts.ServeBinary = IPCP_SERVE_PATH;
#endif
    ROpts.BackendWorkers = 1;
    // One forward in flight per client, so a request queued on a busy
    // backend never holds up one bound for an idle backend.
    ROpts.ForwardThreads = Clients;
    Router R(ROpts);
    std::string Error;
    if (!R.start(Error)) {
      std::cerr << "FAIL: cannot spawn a " << Workers
                << "-backend fleet: " << Error << '\n';
      return 1;
    }
    RoutedMs = driveLoad(R, Lines, Clients, RoutedReplies);
    R.shutdown();
  }
  if (SingleMs < 0 || RoutedMs < 0)
    return 1;

  size_t IdenticalReplies = 0;
  bool RouterOk = true;
  for (size_t I = 0; I != Lines.size(); ++I) {
    if (SingleReplies[I] == RoutedReplies[I] && !SingleReplies[I].empty())
      ++IdenticalReplies;
    else {
      std::cerr << "FAIL: reply " << I << " diverged between the two sides\n";
      RouterOk = false;
    }
  }

  double SingleRps = SingleMs > 0 ? 1000.0 * Requests / SingleMs : 0.0;
  double RoutedRps = RoutedMs > 0 ? 1000.0 * Requests / RoutedMs : 0.0;
  double RouterSpeedup = SingleRps > 0 ? RoutedRps / SingleRps : 0.0;
  std::printf("router: 1x%u %7.1f rps, routed %ux1 %7.1f rps, speedup %.2fx, "
              "identical replies %zu/%u\n",
              Workers, SingleRps, Workers, RoutedRps, RouterSpeedup,
              IdenticalReplies, Requests);

  std::ofstream Json(JsonPath);
  if (!Json) {
    std::cerr << "error: cannot write '" << JsonPath << "'\n";
    return 1;
  }
  char Buf[512];
  Json << "{\n";
  Json << "  \"cores\": " << Cores
       << ", \"smoke\": " << (Smoke ? "true" : "false") << ",\n";
  std::snprintf(
      Buf, sizeof(Buf),
      "  \"router\": {\"workers_per_side\": %u, \"single_rps\": %.2f, "
      "\"single_server_workers\": %u, \"routed_rps\": %.2f, "
      "\"backends\": %u, \"routed_backend_workers\": 1, \"clients\": %u, "
      "\"requests\": %u, \"speedup\": %.3f, \"identical_replies\": %zu},\n",
      Workers, SingleRps, Workers, RoutedRps, Workers, Clients, Requests,
      RouterSpeedup, IdenticalReplies);
  Json << Buf;
  Json << "  \"gates\": {\"identical_replies\": true, \"min_speedup\": "
       << MinSpeedup << "}\n}\n";
  Json.flush();
  if (!Json) {
    std::cerr << "error: failed writing '" << JsonPath << "'\n";
    return 1;
  }
  std::cout << "wrote " << JsonPath << "\n";

  if (!RouterOk) {
    std::cout << "RESULT: FAIL (routed replies diverged from the single "
                 "server's)\n";
    return 1;
  }
  if (RouterSpeedup < MinSpeedup) {
    std::cout << "RESULT: FAIL (router speedup " << RouterSpeedup
              << "x below the " << MinSpeedup << "x gate)\n";
    return 1;
  }
  std::cout << "RESULT: OK\n";
  return 0;
}
