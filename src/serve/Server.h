//===- serve/Server.h - The ipcp analysis server ----------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived analysis service behind ipcp-serve. A Server owns a
/// worker pool, the content-addressed SessionCache, and the request
/// queue's admission control; transports (stdio, TCP — Transport.h) are
/// thin line pumps that hand request lines to submit() and write back
/// whatever reply line the completion callback delivers.
///
/// Robustness contract, in order of evaluation for each line:
///
///   1. Unparseable / ill-formed requests get a `malformed` error reply
///      (carrying the request id when one could be salvaged). The
///      process never dies on bad input.
///   2. `stats` and `shutdown` are control traffic: answered inline,
///      never queued, never shed.
///   3. After shutdown begins draining, new compute requests get
///      `shutting-down`; in-flight ones run to completion.
///   4. When admitted-but-unfinished compute requests reach QueueLimit,
///      new ones are shed with `overloaded` (admission control).
///   5. An admitted request identical (by content hash of source +
///      canonical config) to one already in flight coalesces: it is
///      recorded as a follower and answered from the leader's
///      computation, paying zero additional analysis.
///   6. Each admitted request carries a CancelToken whose deadline
///      starts at admission (queue wait counts). The pipeline polls it
///      cooperatively; expiry yields a `deadline` error reply and a
///      healthy server.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SERVE_SERVER_H
#define IPCP_SERVE_SERVER_H

#include "serve/Protocol.h"
#include "serve/SessionCache.h"
#include "support/Cancellation.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ipcp {

struct ServerOptions {
  /// Request-execution workers (0 = one per hardware thread).
  unsigned Workers = 2;
  /// Admitted-but-unfinished compute requests beyond which new ones are
  /// shed with `overloaded`.
  size_t QueueLimit = 64;
  /// SessionCache capacity (resident programs).
  size_t CacheCapacity = 16;
  /// Deadline applied to requests that do not set deadline_ms
  /// (milliseconds; 0 = none).
  double DefaultDeadlineMs = 0;
};

class Server {
public:
  explicit Server(ServerOptions Opts = {});
  ~Server();

  /// Parses and executes one request line asynchronously. \p Done is
  /// invoked exactly once — possibly on the calling thread (control
  /// traffic, rejections), possibly on a worker — with the serialized
  /// reply line (no trailing newline). \p Done must be thread-safe
  /// against other replies and must not block.
  void submit(std::string Line, std::function<void(std::string)> Done);

  /// Synchronous submit: blocks until the reply is ready. The TCP
  /// transport answers each connection's lines with it.
  std::string handle(const std::string &Line);

  /// The `malformed` reply to a line a transport refused without
  /// handing it over (an over-long one), counted like any other
  /// malformed line.
  std::string malformed(const std::string &Message);

  /// Begins draining (idempotent) and blocks until every admitted
  /// request has been answered. New compute requests are rejected with
  /// `shutting-down` from the moment drain begins.
  void shutdown();

  /// True once a shutdown has begun draining; transports stop reading.
  bool draining() const {
    return Draining.load(std::memory_order_acquire);
  }

  /// The `stats` reply payload (also reachable without the protocol).
  JsonValue statsJson() const;

  /// Admitted-but-unfinished compute requests (leaders + followers).
  size_t pending() const;

  /// Test hook, called on the worker thread immediately before a
  /// leader's computation (after admission and coalescing decisions).
  /// Tests use it to hold a leader in place deterministically while
  /// followers pile up, queues fill, or deadlines expire. Set before
  /// submitting; never called under a server lock.
  std::function<void(const ServeRequest &)> TestHookBeforeCompute;

private:
  /// One in-flight computation: the leader's request plus every
  /// coalesced follower waiting for the same content.
  struct InflightOp {
    uint64_t Key = 0;
    ServeRequest Req; ///< The leader's parse (followers differ in id only).
    std::shared_ptr<CancelToken> Cancel;
    std::function<void(std::string)> LeaderDone;
    std::vector<std::pair<std::string, std::function<void(std::string)>>>
        Followers;
  };

  void compute(std::shared_ptr<InflightOp> Op);
  void computeAnalyze(InflightOp &Op);
  void computeValidate(InflightOp &Op);
  void computeFuzzReplay(InflightOp &Op);

  /// Delivers the outcome to the leader and every follower, retires the
  /// in-flight entry, and releases the queue slots.
  void completeOk(InflightOp &Op, const JsonValue &Payload);
  void completeError(InflightOp &Op, ServeErrorKind Kind,
                     const std::string &Message);
  void retire(InflightOp &Op, const std::string &LeaderReply, bool OkOutcome,
              ServeErrorKind Kind);

  void countError(ServeErrorKind Kind);

  const ServerOptions Opts;
  SessionCache Cache;
  ThreadPool Pool;

  mutable std::mutex Mutex;
  std::condition_variable Drained;
  std::unordered_map<uint64_t, std::shared_ptr<InflightOp>> Inflight;
  size_t Pending = 0; ///< Admitted compute requests not yet answered.
  size_t QueueHighWater = 0;
  std::atomic<bool> Draining{false};

  // Counters (relaxed; stats is a monitoring snapshot, not a barrier).
  std::atomic<uint64_t> Lines{0};
  std::atomic<uint64_t> MethodCount[6] = {};
  std::atomic<uint64_t> OkReplies{0};
  std::atomic<uint64_t> ErrorCount[6] = {};
  std::atomic<uint64_t> Coalesced{0};
};

} // namespace ipcp

#endif // IPCP_SERVE_SERVER_H
