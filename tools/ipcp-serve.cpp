//===- tools/ipcp-serve.cpp - The analysis server binary ------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ipcp-serve: a long-lived analysis server speaking line-delimited JSON
/// (docs/SERVING.md) over stdio and, optionally, a loopback TCP socket.
///
///   ipcp-serve [options]
///     --tcp=<port>        also listen on 127.0.0.1:<port> (0 = ephemeral)
///     --port-file=<path>  write the bound TCP port to <path> (for
///                         scripts using --tcp=0)
///     --no-stdio          serve TCP only (run until a shutdown request)
///     --workers=<n>       request workers (default 2, 0 = all cores)
///     --queue-limit=<n>   admission bound on pending requests (default 64)
///     --cache-capacity=<n> resident programs in the session LRU (default 16)
///     --deadline-ms=<d>   default per-request deadline (0 = none)
///
/// The process exits after stdin closes or a shutdown request drains
/// (whichever transport it arrives on). It never exits on malformed
/// input — bad requests get structured error replies.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "serve/Transport.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

using namespace ipcp;

static void printUsage() {
  std::cerr << "usage: ipcp-serve [--tcp=<port>] [--port-file=<path>] "
               "[--no-stdio]\n"
               "                  [--workers=<n>] [--queue-limit=<n>]\n"
               "                  [--cache-capacity=<n>] [--deadline-ms=<d>]\n";
}

static bool parseUnsigned(const std::string &Value, const char *Flag,
                          unsigned long &Out) {
  if (Value.empty() ||
      Value.find_first_not_of("0123456789") != std::string::npos) {
    std::cerr << "error: " << Flag << " expects a non-negative integer, got '"
              << Value << "'\n";
    return false;
  }
  Out = std::strtoul(Value.c_str(), nullptr, 10);
  return true;
}

int main(int argc, char **argv) {
  ServerOptions Opts;
  long TcpPort = -1; // -1 = no TCP listener.
  std::string PortFile;
  bool Stdio = true;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    unsigned long N = 0;
    if (Arg.rfind("--tcp=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(6), "--tcp", N) || N > 65535) {
        std::cerr << "error: --tcp expects a port number\n";
        return 1;
      }
      TcpPort = static_cast<long>(N);
    } else if (Arg.rfind("--port-file=", 0) == 0) {
      PortFile = Arg.substr(12);
    } else if (Arg == "--no-stdio") {
      Stdio = false;
    } else if (Arg.rfind("--workers=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(10), "--workers", N) || N > 1024)
        return 1;
      Opts.Workers = static_cast<unsigned>(N);
    } else if (Arg.rfind("--queue-limit=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(14), "--queue-limit", N) || N == 0)
        return 1;
      Opts.QueueLimit = N;
    } else if (Arg.rfind("--cache-capacity=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(17), "--cache-capacity", N) || N == 0)
        return 1;
      Opts.CacheCapacity = N;
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(14), "--deadline-ms", N))
        return 1;
      Opts.DefaultDeadlineMs = static_cast<double>(N);
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else {
      std::cerr << "error: unknown option '" << Arg << "'\n";
      printUsage();
      return 1;
    }
  }

  if (!Stdio && TcpPort < 0) {
    std::cerr << "error: --no-stdio requires --tcp=<port>\n";
    return 1;
  }
  Server Srv(Opts);


  TcpListener Listener;
  std::thread TcpThread;
  if (TcpPort >= 0) {
    std::string Error;
    if (!Listener.listen(static_cast<uint16_t>(TcpPort), Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    std::cerr << "! listening on 127.0.0.1:" << Listener.port() << '\n';
    if (!PortFile.empty()) {
      std::ofstream Out(PortFile);
      Out << Listener.port() << '\n';
      if (!Out) {
        std::cerr << "error: cannot write '" << PortFile << "'\n";
        return 1;
      }
    }
    TcpThread = std::thread([&] { Listener.run(Srv); });
  }

  if (Stdio) {
    serveStream(Srv, std::cin, std::cout);
  } else {
    // TCP-only: run() returns once a shutdown request starts draining.
    TcpThread.join();
  }

  Listener.stop();
  if (TcpThread.joinable())
    TcpThread.join();
  Srv.shutdown();
  return 0;
}
