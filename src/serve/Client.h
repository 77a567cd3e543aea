//===- serve/Client.h - Client for a running ipcp-serve ---------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A blocking TCP client for the serve protocol, used by the driver's
/// --server-url mode and the TCP transport tests. One call() is one
/// request line out and one reply line back; a ServeClient is
/// single-threaded (open one per client thread).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SERVE_CLIENT_H
#define IPCP_SERVE_CLIENT_H

#include "serve/Json.h"

#include <string>

namespace ipcp {

class ServeClient {
public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient &) = delete;
  ServeClient &operator=(const ServeClient &) = delete;

  /// Connects to \p Url — "host:port" or just "port" (localhost). Only
  /// loopback addresses are supported, matching the listener. Returns
  /// false and fills \p Error on failure.
  bool connect(const std::string &Url, std::string &Error);

  bool connected() const { return Fd >= 0; }

  /// Sends \p RequestLine (newline appended) and blocks for one reply
  /// line. Returns false on transport failure (never on a protocol-level
  /// error reply — those are successful calls whose reply says ok:false).
  bool call(const std::string &RequestLine, std::string &ReplyLine,
            std::string &Error);

  void close();

private:
  int Fd = -1;
  std::string Buffer; ///< Bytes read past the previous reply line.
};

} // namespace ipcp

#endif // IPCP_SERVE_CLIENT_H
