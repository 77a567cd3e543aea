//===- serve/Protocol.h - ipcp-serve wire protocol --------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-delimited JSON protocol of the analysis server (documented
/// for humans in docs/SERVING.md). One request per line:
///
///   {"id":"r1","method":"analyze-source",
///    "params":{"source":"...","config":{"jf":"poly","rjf":true,...},
///              "report":{"stats":true},"deadline_ms":2000}}
///
/// One reply per line, matched by id (replies may arrive out of request
/// order):
///
///   {"id":"r1","ok":true,"result":{"output":"...","substituted":12,
///                                  "cached":false,...}}
///   {"id":"r1","ok":false,
///    "error":{"kind":"overloaded","message":"queue full (64 pending)"}}
///
/// Methods: analyze-source, analyze-suite-program, validate,
/// fuzz-replay, stats, shutdown. Error kinds: malformed, overloaded,
/// deadline, shutting-down, analysis-error, internal. Every malformed
/// or rejected request produces a structured error reply — never a
/// dropped connection, never a dead process.
///
/// This header also owns the canonical configuration key and the
/// content hash of (source, config, report): the cache and the
/// coalescing table key requests by it, so two textually different but
/// semantically identical config objects (key order, defaulted fields)
/// coalesce onto one computation.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SERVE_PROTOCOL_H
#define IPCP_SERVE_PROTOCOL_H

#include "exec/ExecEngine.h"
#include "ipcp/Pipeline.h"
#include "serve/Json.h"
#include "serve/Render.h"

#include <cstdint>
#include <string>

namespace ipcp {

/// Request methods, plus the parse failure states the dispatcher turns
/// into structured errors.
enum class ServeMethod : uint8_t {
  AnalyzeSource,
  AnalyzeSuiteProgram,
  Validate,
  FuzzReplay,
  Stats,
  Shutdown,
};

/// Structured error kinds (the protocol's `error.kind` values).
enum class ServeErrorKind : uint8_t {
  Malformed,     ///< Unparseable JSON / missing or bad fields.
  Overloaded,    ///< Admission control shed the request (queue full).
  Deadline,      ///< The request's deadline expired before completion.
  ShuttingDown,  ///< Arrived after a shutdown began draining.
  AnalysisError, ///< The pipeline/oracle/replay itself reported failure.
  Internal,      ///< Bug guard; should not happen.
};

const char *serveMethodName(ServeMethod M);
const char *serveErrorKindName(ServeErrorKind K);

/// One parsed request.
struct ServeRequest {
  /// Echoed verbatim into the reply ("" when the request had none).
  std::string Id;
  ServeMethod Method = ServeMethod::Stats;
  /// The analyzer configuration (analyze-*/validate).
  PipelineOptions Config;
  /// Report rendering flags (analyze-*).
  ReportOptions Report;
  /// MiniFort source text (analyze-source/validate) or serialized corpus
  /// entry (fuzz-replay).
  std::string Source;
  /// Suite program name (analyze-suite-program).
  std::string SuiteProgram;
  /// Per-request deadline in milliseconds; 0 = use the server default,
  /// negative = no deadline.
  double DeadlineMs = 0;
  /// READ seed / step budget (validate).
  uint64_t ReadSeed = 1;
  uint64_t MaxSteps = 0;
  /// Execution engine (validate/fuzz-replay): params.exec, "vm" (the
  /// default) or "ast". Part of the coalescing key.
  ExecEngine Exec = ExecEngine::Vm;
};

/// Parses one request line. On failure returns false and fills \p Error
/// with a message for the `malformed` reply.
bool parseServeRequest(const std::string &Line, ServeRequest &Out,
                       std::string &Error);

/// The canonical configuration key: every field that can change the
/// rendered reply, in a fixed order (the analysis half is configKeyOf,
/// ipcp/AnalysisConfig.h). Two requests with equal (source, configKey)
/// are interchangeable.
std::string configKey(const PipelineOptions &Opts, const ReportOptions &R);

/// 64-bit FNV-1a over the request's analysis content — the cache and
/// coalescing key.
uint64_t contentHash(const std::string &Source, const std::string &CfgKey);

/// The whole request's content key: contentHash over everything that
/// determines the reply (method class, source text, config, report
/// flags, seeds, engine). The server coalesces identical in-flight
/// requests on it. It hashes Req.Source, so a suite-program request
/// must be resolved to its source text first; analyze-source and
/// analyze-suite-program of the same source then share keys.
uint64_t requestContentKey(const ServeRequest &Req);

/// Reply builders (each returns one serialized line, no trailing '\n').
std::string makeOkReply(const std::string &Id, JsonValue Result);
std::string makeErrorReply(const std::string &Id, ServeErrorKind Kind,
                           const std::string &Message);

/// Serializes a request — the client-side mirror of parseServeRequest.
std::string serializeServeRequest(const ServeRequest &Req);

} // namespace ipcp

#endif // IPCP_SERVE_PROTOCOL_H
