//===- serve/Transport.h - stdio and TCP line pumps -------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's transports. Both are deliberately dumb line pumps: all
/// protocol intelligence (parsing, admission, coalescing, deadlines)
/// lives in Server; a transport only moves request lines in and reply
/// lines out.
///
/// serveStream() pumps an istream/ostream pair (the stdio mode, and the
/// in-process harness the tests use). Requests are submitted
/// asynchronously, so replies may interleave out of request order —
/// clients match by id. The pump returns at EOF or once a shutdown
/// request begins draining, after every submitted request has been
/// answered.
///
/// TcpListener accepts loopback connections and serves each on its own
/// thread, one request at a time per connection (concurrency comes from
/// opening more connections). Threads of connections whose client hung
/// up are joined while the listener runs. When it stops, it shuts the
/// read side of every open connection: an idle client cannot hold the
/// server open, and a request already being answered still gets its
/// reply. The listener binds 127.0.0.1 only — this is a local analysis
/// daemon, not a network service.
///
/// Both transports bound a request line at MaxRequestLineBytes. A longer
/// line is answered with one `malformed` reply and skipped through its
/// newline without being buffered; the stream or connection then keeps
/// serving.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SERVE_TRANSPORT_H
#define IPCP_SERVE_TRANSPORT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <string>
#include <thread>

namespace ipcp {

class Server;

/// The longest request line either transport accepts, in bytes, not
/// counting the newline.
inline constexpr size_t MaxRequestLineBytes = size_t(16) << 20;

/// Pumps request lines from \p In into \p S and reply lines to \p Out
/// (one per line, flushed). Returns at EOF or when a shutdown request
/// begins draining; every reply for a submitted request has been
/// written by the time it returns. Blank lines are ignored, and a line
/// over MaxRequestLineBytes gets a `malformed` reply.
void serveStream(Server &S, std::istream &In, std::ostream &Out);

/// A loopback TCP acceptor serving one connection per thread.
class TcpListener {
public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener &) = delete;
  TcpListener &operator=(const TcpListener &) = delete;

  /// Binds 127.0.0.1:\p Port (0 = kernel-assigned ephemeral port; query
  /// the result with port()). Returns false and fills \p Error on
  /// failure — the environment may forbid sockets, so callers must
  /// treat failure as a degraded mode, not a crash.
  bool listen(uint16_t Port, std::string &Error);

  /// The bound port (after a successful listen()).
  uint16_t port() const { return BoundPort; }

  /// Accept loop. Returns once stop() is called or \p S starts
  /// draining. Before it returns it shuts the read side of every open
  /// connection, waits for replies already being computed to be
  /// written, and joins all connection threads.
  void run(Server &S);

  /// Signals run() to return. Safe from any thread.
  void stop() { Stopping.store(true, std::memory_order_release); }

private:
  int Fd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Stopping{false};

  /// One accepted connection. The listener closes Fd after joining
  /// Thread, so the descriptor is never reused under a live thread.
  struct Connection {
    int Fd = -1;
    std::atomic<bool> Done{false}; ///< Set as Thread finishes.
    std::thread Thread;
  };
  std::list<Connection> Conns; ///< Touched only by run() and the destructor.

  /// Joins and closes the connections whose client hung up.
  void reapFinished();
  /// Shuts the read side of every connection, then joins and closes it.
  void closeConnections();
};

} // namespace ipcp

#endif // IPCP_SERVE_TRANSPORT_H
