//===- serve/Server.cpp - The ipcp analysis server ------------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "exec/Oracle.h"
#include "fuzz/Corpus.h"
#include "fuzz/Fuzzer.h"
#include "support/FuzzFeedback.h"
#include "workloads/Suite.h"

#include <future>

using namespace ipcp;

namespace {

const WorkloadProgram *findSuiteProgram(const std::string &Name) {
  for (const WorkloadProgram &W : benchmarkSuite())
    if (W.Name == Name)
      return &W;
  return nullptr;
}

} // namespace

Server::Server(ServerOptions O)
    : Opts(O), Cache(O.CacheCapacity), Pool(O.Workers ? O.Workers : 0) {}

Server::~Server() { shutdown(); }

void Server::countError(ServeErrorKind Kind) {
  ErrorCount[static_cast<unsigned>(Kind)].fetch_add(1,
                                                    std::memory_order_relaxed);
}

std::string Server::malformed(const std::string &Message) {
  Lines.fetch_add(1, std::memory_order_relaxed);
  countError(ServeErrorKind::Malformed);
  return makeErrorReply("", ServeErrorKind::Malformed, Message);
}

void Server::submit(std::string Line, std::function<void(std::string)> Done) {
  Lines.fetch_add(1, std::memory_order_relaxed);

  ServeRequest Req;
  std::string Err;
  if (!parseServeRequest(Line, Req, Err)) {
    countError(ServeErrorKind::Malformed);
    Done(makeErrorReply(Req.Id, ServeErrorKind::Malformed, Err));
    return;
  }
  MethodCount[static_cast<unsigned>(Req.Method)].fetch_add(
      1, std::memory_order_relaxed);

  // Control traffic: answered inline, never queued, never shed.
  if (Req.Method == ServeMethod::Stats) {
    OkReplies.fetch_add(1, std::memory_order_relaxed);
    Done(makeOkReply(Req.Id, statsJson()));
    return;
  }
  if (Req.Method == ServeMethod::Shutdown) {
    Draining.store(true, std::memory_order_release);
    JsonValue P = JsonValue::object();
    P.set("draining", JsonValue(true));
    P.set("pending", JsonValue(static_cast<uint64_t>(pending())));
    OkReplies.fetch_add(1, std::memory_order_relaxed);
    Done(makeOkReply(Req.Id, P));
    return;
  }

  if (Req.Method == ServeMethod::AnalyzeSuiteProgram) {
    const WorkloadProgram *W = findSuiteProgram(Req.SuiteProgram);
    if (!W) {
      countError(ServeErrorKind::AnalysisError);
      Done(makeErrorReply(Req.Id, ServeErrorKind::AnalysisError,
                          "unknown suite program '" + Req.SuiteProgram + "'"));
      return;
    }
    Req.Source = W->Source;
  }

  // The coalescing key (serve/Protocol.h): requests with equal keys are
  // interchangeable and share one computation. Computed after suite-name
  // resolution, so analyze-source and analyze-suite-program of the same
  // source text deliberately share keys.
  const std::string Id = Req.Id;
  const uint64_t Key = requestContentKey(Req);
  double DeadlineMs = Req.DeadlineMs > 0 ? Req.DeadlineMs
                      : Req.DeadlineMs < 0 ? 0
                                           : Opts.DefaultDeadlineMs;

  bool Rejected = false;
  ServeErrorKind RejectKind = ServeErrorKind::Internal;
  std::string RejectMsg;
  bool IsFollower = false;
  std::shared_ptr<InflightOp> Op;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Draining.load(std::memory_order_acquire)) {
      Rejected = true;
      RejectKind = ServeErrorKind::ShuttingDown;
      RejectMsg = "server is shutting down";
    } else if (Pending >= Opts.QueueLimit) {
      Rejected = true;
      RejectKind = ServeErrorKind::Overloaded;
      RejectMsg = "queue full (" + std::to_string(Pending) + " pending)";
    } else {
      ++Pending;
      QueueHighWater = std::max(QueueHighWater, Pending);
      auto It = Inflight.find(Key);
      if (It != Inflight.end()) {
        // Identical content already computing: ride along. (A 64-bit
        // key collision between distinct requests would mis-coalesce;
        // as with the session cache, astronomically rare and bounded to
        // one wrong reply, not corruption.)
        It->second->Followers.emplace_back(Id, std::move(Done));
        IsFollower = true;
      } else {
        Op = std::make_shared<InflightOp>();
        Op->Key = Key;
        Op->Req = std::move(Req);
        Op->LeaderDone = std::move(Done);
        Op->Cancel = std::make_shared<CancelToken>();
        if (DeadlineMs > 0)
          Op->Cancel->setDeadlineAfterMs(DeadlineMs);
        Inflight.emplace(Key, Op);
      }
    }
  }

  if (Rejected) {
    countError(RejectKind);
    Done(makeErrorReply(Id, RejectKind, RejectMsg));
    return;
  }
  if (IsFollower) {
    Coalesced.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Pool.post([this, Op] { compute(Op); });
}

std::string Server::handle(const std::string &Line) {
  std::promise<std::string> P;
  std::future<std::string> F = P.get_future();
  submit(Line, [&P](std::string Reply) { P.set_value(std::move(Reply)); });
  return F.get();
}

void Server::compute(std::shared_ptr<InflightOp> Op) {
  if (TestHookBeforeCompute)
    TestHookBeforeCompute(Op->Req);
  if (Op->Cancel->expired()) {
    completeError(*Op, ServeErrorKind::Deadline,
                  "deadline expired before analysis started");
    return;
  }
  switch (Op->Req.Method) {
  case ServeMethod::AnalyzeSource:
  case ServeMethod::AnalyzeSuiteProgram:
    computeAnalyze(*Op);
    return;
  case ServeMethod::Validate:
    computeValidate(*Op);
    return;
  case ServeMethod::FuzzReplay:
    computeFuzzReplay(*Op);
    return;
  case ServeMethod::Stats:
  case ServeMethod::Shutdown:
    break; // Handled inline in submit(); unreachable here.
  }
  completeError(*Op, ServeErrorKind::Internal, "unhandled method");
}

void Server::computeAnalyze(InflightOp &Op) {
  bool WasResident = false;
  std::shared_ptr<SessionCache::Program> P =
      Cache.acquire(Op.Req.Source, WasResident);
  const std::string CfgKey = configKey(Op.Req.Config, Op.Req.Report);

  auto finishWith = [&](JsonValue Payload, bool Cached) {
    Payload.set("cached", JsonValue(Cached));
    if (Op.Req.Method == ServeMethod::AnalyzeSuiteProgram)
      Payload.set("program", JsonValue(Op.Req.SuiteProgram));
    completeOk(Op, Payload);
  };

  if (std::optional<JsonValue> Hit = Cache.cachedReply(*P, CfgKey)) {
    finishWith(std::move(*Hit), /*Cached=*/true);
    return;
  }

  P->ensureFrontend();
  if (!P->FrontendError.empty()) {
    completeError(Op, ServeErrorKind::AnalysisError, P->FrontendError);
    return;
  }
  if (WasResident)
    Cache.countSessionHit();

  PipelineOptions PO = Op.Req.Config;
  PO.Cancel = Op.Cancel.get();
  PO.EmitTransformedSource = Op.Req.Report.EmitSource;

  // Complete propagation included: its rounds never mutate the cached
  // program (ipcp/Pipeline.h).
  PipelineResult R = runPipelineOnSession(*P->Session, PO);

  if (R.Cancelled) {
    completeError(Op, ServeErrorKind::Deadline, R.Error);
    return;
  }
  if (!R.Ok) {
    completeError(Op, ServeErrorKind::AnalysisError, R.Error);
    return;
  }

  JsonValue Payload = JsonValue::object();
  Payload.set("output",
              JsonValue(renderAnalysisReport(PO, R, Op.Req.Report)));
  Payload.set("substituted",
              JsonValue(static_cast<uint64_t>(R.SubstitutedConstants)));
  Cache.storeReply(*P, CfgKey, Payload);
  finishWith(std::move(Payload), /*Cached=*/false);
}

void Server::computeValidate(InflightOp &Op) {
  OracleOptions OO;
  OO.Pipeline = Op.Req.Config;
  OO.Pipeline.Cancel = Op.Cancel.get();
  OO.ReadSeeds = {Op.Req.ReadSeed};
  OO.Engine = Op.Req.Exec;
  if (Op.Req.MaxSteps)
    OO.Limits.MaxSteps = Op.Req.MaxSteps;

  OracleResult R = validateTranslation(Op.Req.Source, OO);
  if (!R.Ok && Op.Cancel->expired()) {
    completeError(Op, ServeErrorKind::Deadline,
                  "validation cancelled (deadline expired)");
    return;
  }

  JsonValue Payload = JsonValue::object();
  Payload.set("valid", JsonValue(R.Ok));
  if (!R.Ok)
    Payload.set("error", JsonValue(R.Error));
  Payload.set("runs_executed", JsonValue(R.RunsExecuted));
  Payload.set("trace_comparisons", JsonValue(R.TraceComparisons));
  Payload.set("substituted_use_checks", JsonValue(R.SubstitutedUseChecks));
  Payload.set("entry_constant_checks", JsonValue(R.EntryConstantChecks));
  completeOk(Op, Payload);
}

void Server::computeFuzzReplay(InflightOp &Op) {
  std::string Diag;
  CorpusEntry Entry = parseCorpusEntry(Op.Req.Source, "request", &Diag);
  if (!Diag.empty()) {
    completeError(Op, ServeErrorKind::AnalysisError,
                  "corpus entry rejected: " + Diag);
    return;
  }
  FuzzFeedback FB;
  FuzzOptions FO;
  FO.Engine = Op.Req.Exec;
  if (Op.Req.MaxSteps)
    FO.MaxSteps = Op.Req.MaxSteps;

  std::optional<FuzzFailure> Failure = evaluateProgram(Entry.Source, FB, FO);
  if (Failure && Op.Cancel->expired()) {
    completeError(Op, ServeErrorKind::Deadline,
                  "replay cancelled (deadline expired)");
    return;
  }

  JsonValue Payload = JsonValue::object();
  Payload.set("failed", JsonValue(Failure.has_value()));
  if (Failure) {
    Payload.set("failure_kind", JsonValue(Failure->Kind));
    Payload.set("failure_config", JsonValue(Failure->Config));
    Payload.set("failure_detail", JsonValue(Failure->Detail));
  }
  Payload.set("feature_bits", JsonValue(static_cast<uint64_t>(FB.countBits())));
  completeOk(Op, Payload);
}

void Server::completeOk(InflightOp &Op, const JsonValue &Payload) {
  retire(Op, makeOkReply(Op.Req.Id, Payload), /*OkOutcome=*/true,
         ServeErrorKind::Internal);
}

void Server::completeError(InflightOp &Op, ServeErrorKind Kind,
                           const std::string &Message) {
  retire(Op, makeErrorReply(Op.Req.Id, Kind, Message), /*OkOutcome=*/false,
         Kind);
}

void Server::retire(InflightOp &Op, const std::string &LeaderReply,
                    bool OkOutcome, ServeErrorKind Kind) {
  // Snapshot and unregister under the lock: once the in-flight entry is
  // gone no new follower can attach, so the snapshot is complete.
  std::vector<std::pair<std::string, std::function<void(std::string)>>>
      Followers;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Inflight.erase(Op.Key);
    Followers.swap(Op.Followers);
    Pending -= 1 + Followers.size();
    if (Pending == 0)
      Drained.notify_all();
  }

  const uint64_t Outcomes = 1 + Followers.size();
  if (OkOutcome)
    OkReplies.fetch_add(Outcomes, std::memory_order_relaxed);
  else
    ErrorCount[static_cast<unsigned>(Kind)].fetch_add(
        Outcomes, std::memory_order_relaxed);

  Op.LeaderDone(LeaderReply);
  // Followers get the leader's reply re-addressed to their own id. Both
  // reply shapes keep the id in a fixed member, so rebuilding from the
  // leader's line is a parse + set.
  for (auto &[Id, Done] : Followers) {
    std::string Err;
    std::optional<JsonValue> Reply = parseJson(LeaderReply, Err);
    JsonValue V = Reply ? std::move(*Reply) : JsonValue::object();
    V.set("id", JsonValue(Id));
    Done(V.dump());
  }
}

size_t Server::pending() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Pending;
}

void Server::shutdown() {
  Draining.store(true, std::memory_order_release);
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Drained.wait(Lock, [this] { return Pending == 0; });
  }
  // Pending hits zero inside retire(); wait for the worker tasks
  // themselves to unwind before tearing anything down.
  Pool.wait();
}

JsonValue Server::statsJson() const {
  JsonValue S = JsonValue::object();
  S.set("received", JsonValue(Lines.load(std::memory_order_relaxed)));

  JsonValue Methods = JsonValue::object();
  for (unsigned M = 0; M != 6; ++M)
    Methods.set(serveMethodName(static_cast<ServeMethod>(M)),
                JsonValue(MethodCount[M].load(std::memory_order_relaxed)));
  S.set("methods", Methods);

  S.set("ok_replies", JsonValue(OkReplies.load(std::memory_order_relaxed)));
  JsonValue Errors = JsonValue::object();
  for (unsigned K = 0; K != 6; ++K)
    Errors.set(serveErrorKindName(static_cast<ServeErrorKind>(K)),
               JsonValue(ErrorCount[K].load(std::memory_order_relaxed)));
  S.set("errors", Errors);
  S.set("coalesced", JsonValue(Coalesced.load(std::memory_order_relaxed)));

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    S.set("pending", JsonValue(static_cast<uint64_t>(Pending)));
    S.set("queue_high_water",
          JsonValue(static_cast<uint64_t>(QueueHighWater)));
  }
  S.set("queue_limit", JsonValue(static_cast<uint64_t>(Opts.QueueLimit)));
  S.set("draining", JsonValue(draining()));
  S.set("workers", JsonValue(Pool.size()));

  SessionCacheStats CS = Cache.stats();
  JsonValue C = JsonValue::object();
  C.set("reply_hits", JsonValue(CS.ReplyHits));
  C.set("session_hits", JsonValue(CS.SessionHits));
  C.set("misses", JsonValue(CS.Misses));
  C.set("evictions", JsonValue(CS.Evictions));
  C.set("entries", JsonValue(CS.Entries));
  C.set("capacity", JsonValue(static_cast<uint64_t>(Opts.CacheCapacity)));
  S.set("cache", C);

  // Value-context memo effectiveness across every session this server
  // has run (resident + evicted). The hit *rate* is the headline — raw
  // counters alone hid a 0-hit memo for three PRs — with the empty
  // denominator reported as 0 rather than NaN.
  auto MemoStats = [](uint64_t Hits, uint64_t Misses) {
    JsonValue M = JsonValue::object();
    M.set("hits", JsonValue(Hits));
    M.set("misses", JsonValue(Misses));
    uint64_t Total = Hits + Misses;
    M.set("hit_rate",
          JsonValue(Total ? double(Hits) / double(Total) : 0.0));
    return M;
  };
  S.set("solver_memo", MemoStats(CS.MemoHits, CS.MemoMisses));
  // The substitution memo (stage 4), aggregated the same way.
  S.set("substitution_memo",
        MemoStats(CS.SubstMemoHits, CS.SubstMemoMisses));
  return S;
}
