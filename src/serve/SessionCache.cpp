//===- serve/SessionCache.cpp - Content-addressed session LRU -------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/SessionCache.h"

#include "lang/Parser.h"
#include "serve/Protocol.h"

using namespace ipcp;

void SessionCache::Program::ensureFrontend() {
  std::call_once(FrontendOnce, [this] {
    DiagnosticEngine Diags;
    Ctx = parseProgram(Source, Diags);
    if (!Diags.hasErrors())
      Symbols = Sema::run(*Ctx, Diags);
    if (Diags.hasErrors()) {
      FrontendError = Diags.str();
      Ctx.reset();
      return;
    }
    Session = std::make_unique<AnalysisSession>(*Ctx, Symbols);
    SessionReady.store(Session.get(), std::memory_order_release);
  });
}

SessionCache::SessionCache(size_t Capacity)
    : Capacity(Capacity ? Capacity : 1) {}

std::shared_ptr<SessionCache::Program>
SessionCache::acquire(const std::string &Source, bool &WasResident) {
  uint64_t Key = contentHash(Source, "");
  // Declared before the lock so an evicted Program (a full AST plus
  // analysis session, milliseconds to tear down) is destroyed *after*
  // the mutex is released, not while every other worker waits on it.
  std::shared_ptr<Program> Doomed;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    if (It->second.P->Source == Source) {
      WasResident = true;
      Lru.splice(Lru.begin(), Lru, It->second.LruIt);
      return It->second.P;
    }
    // 64-bit hash collision between distinct sources: serve the new one
    // uncached rather than corrupting the resident entry. (Astronomically
    // rare; correctness must not depend on it being impossible.)
    WasResident = false;
    Misses.fetch_add(1, std::memory_order_relaxed);
    auto P = std::make_shared<Program>();
    P->Source = Source;
    return P;
  }

  WasResident = false;
  Misses.fetch_add(1, std::memory_order_relaxed);
  auto P = std::make_shared<Program>();
  P->Source = Source;
  Lru.push_front(Key);
  Index.emplace(Key, Slot{P, Lru.begin()});
  if (Index.size() > Capacity) {
    uint64_t Victim = Lru.back();
    Lru.pop_back();
    auto VictimIt = Index.find(Victim);
    if (AnalysisSession *S =
            VictimIt->second.P->SessionReady.load(std::memory_order_acquire)) {
      RetiredMemoHits.fetch_add(S->solverMemo().hits(),
                                std::memory_order_relaxed);
      RetiredMemoMisses.fetch_add(S->solverMemo().misses(),
                                  std::memory_order_relaxed);
      RetiredSubstMemoHits.fetch_add(S->substitutionMemo().hits(),
                                     std::memory_order_relaxed);
      RetiredSubstMemoMisses.fetch_add(S->substitutionMemo().misses(),
                                       std::memory_order_relaxed);
    }
    Doomed = std::move(VictimIt->second.P);
    Index.erase(VictimIt);
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return P;
}

std::optional<JsonValue> SessionCache::cachedReply(Program &P,
                                                   const std::string &CfgKey) {
  std::lock_guard<std::mutex> Lock(P.ReplyMutex);
  auto It = P.Replies.find(CfgKey);
  if (It == P.Replies.end())
    return std::nullopt;
  ReplyHits.fetch_add(1, std::memory_order_relaxed);
  return It->second;
}

void SessionCache::storeReply(Program &P, const std::string &CfgKey,
                              JsonValue Payload) {
  std::lock_guard<std::mutex> Lock(P.ReplyMutex);
  P.Replies.emplace(CfgKey, std::move(Payload));
}

SessionCacheStats SessionCache::stats() const {
  SessionCacheStats S;
  S.ReplyHits = ReplyHits.load(std::memory_order_relaxed);
  S.SessionHits = SessionHits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  S.MemoHits = RetiredMemoHits.load(std::memory_order_relaxed);
  S.MemoMisses = RetiredMemoMisses.load(std::memory_order_relaxed);
  S.SubstMemoHits = RetiredSubstMemoHits.load(std::memory_order_relaxed);
  S.SubstMemoMisses = RetiredSubstMemoMisses.load(std::memory_order_relaxed);
  {
    auto *Self = const_cast<SessionCache *>(this);
    std::lock_guard<std::mutex> Lock(Self->Mutex);
    S.Entries = Index.size();
    for (const auto &[Key, Slot] : Self->Index) {
      if (AnalysisSession *Live =
              Slot.P->SessionReady.load(std::memory_order_acquire)) {
        S.MemoHits += Live->solverMemo().hits();
        S.MemoMisses += Live->solverMemo().misses();
        S.SubstMemoHits += Live->substitutionMemo().hits();
        S.SubstMemoMisses += Live->substitutionMemo().misses();
      }
    }
  }
  return S;
}
