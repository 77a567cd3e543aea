//===- serve/SessionCache.h - Content-addressed session LRU -----*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's warm state: a size-bounded LRU of analyzed programs,
/// content-addressed by a hash of the source text. Each entry owns the
/// whole frontend product — AstContext, SymbolTable, and the
/// AnalysisSession whose per-procedure IR/SSA/VN caches PR 3 built —
/// plus a per-configuration map of finished reply payloads. A repeated
/// (source, config) request is served from the reply map without
/// touching the analyzer at all; a new config of a known source reuses
/// the warm session (the ~3.4x that motivated the service in the first
/// place); only a never-seen source pays the frontend.
///
/// Concurrency: the LRU index has one lock, held only for
/// lookup/insert/evict — never during parsing or analysis. Entries are
/// handed out as shared_ptr, so an entry evicted while a slow request
/// still analyzes it stays alive until that request finishes. Frontend
/// construction is per-entry call_once: concurrent first requests for
/// the same source parse it exactly once. Every configuration shares the
/// session: runPipelineOnSession never mutates its program (complete
/// propagation folds a private clone).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SERVE_SESSIONCACHE_H
#define IPCP_SERVE_SESSIONCACHE_H

#include "ipcp/AnalysisSession.h"
#include "lang/Sema.h"
#include "serve/Json.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace ipcp {

/// Cache-effectiveness counters (snapshot; live counters are atomics).
struct SessionCacheStats {
  uint64_t ReplyHits = 0;   ///< (source, config) repeats served verbatim.
  uint64_t SessionHits = 0; ///< Known source, new config (warm session).
  uint64_t Misses = 0;      ///< Never-seen source (cold frontend).
  uint64_t Evictions = 0;   ///< Entries dropped by the LRU bound.
  uint64_t Entries = 0;     ///< Current resident programs.
  /// Solver value-context memo counters, summed over every resident
  /// session plus the sessions retired by eviction — the server-lifetime
  /// view of how often warm sessions replayed recorded evaluations.
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
  /// The substitution memo's counters, summed the same way.
  uint64_t SubstMemoHits = 0;
  uint64_t SubstMemoMisses = 0;
};

class SessionCache {
public:
  /// One resident program. Member order matters: Session refers to Ctx
  /// and Symbols, so it is declared (and therefore destroyed) last-first.
  struct Program {
    std::string Source;
    /// Frontend diagnostics; non-empty means the source does not check
    /// and Session is null (the failure itself is cached — a repeated
    /// bad request reparses nothing).
    std::string FrontendError;
    std::unique_ptr<AstContext> Ctx;
    SymbolTable Symbols;
    std::unique_ptr<AnalysisSession> Session;

    /// Session.get(), published (release) once ensureFrontend finishes.
    /// The stats path reads sessions of programs it did not acquire, so
    /// it must not touch the unique_ptr a concurrent first request may
    /// still be assigning.
    std::atomic<AnalysisSession *> SessionReady{nullptr};

    /// Finished reply payloads keyed by configKey(). Guarded by
    /// ReplyMutex (concurrent cells may finish different configs).
    std::mutex ReplyMutex;
    std::map<std::string, JsonValue> Replies;

    /// Runs parse+sema+session construction exactly once across
    /// concurrent acquirers.
    void ensureFrontend();

  private:
    std::once_flag FrontendOnce;
  };

  explicit SessionCache(size_t Capacity);

  /// Returns the entry for \p Source, creating (and counting a miss) or
  /// refreshing (recency) as needed. \p WasResident reports whether the
  /// program was already cached. Never blocks on analysis work.
  std::shared_ptr<Program> acquire(const std::string &Source,
                                   bool &WasResident);

  /// The cached reply payload for \p CfgKey, if any. Counts a reply hit.
  std::optional<JsonValue> cachedReply(Program &P, const std::string &CfgKey);

  /// Stores a finished reply payload (first writer wins; replays are
  /// deterministic so losers wrote the same bytes).
  void storeReply(Program &P, const std::string &CfgKey, JsonValue Payload);

  /// Counts a warm-session use (resident program, uncached config).
  void countSessionHit() { SessionHits.fetch_add(1, std::memory_order_relaxed); }

  SessionCacheStats stats() const;

private:
  const size_t Capacity;

  std::mutex Mutex;
  /// Front = most recent. Values are source hashes.
  std::list<uint64_t> Lru;
  struct Slot {
    std::shared_ptr<Program> P;
    std::list<uint64_t>::iterator LruIt;
  };
  std::unordered_map<uint64_t, Slot> Index;

  std::atomic<uint64_t> ReplyHits{0};
  std::atomic<uint64_t> SessionHits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Evictions{0};
  /// Memo counters of evicted sessions, folded in at eviction time so
  /// the lifetime totals survive the LRU bound. (An in-flight request on
  /// an evicted entry may still add a few hits afterwards — stats are a
  /// snapshot, not an audit.)
  std::atomic<uint64_t> RetiredMemoHits{0};
  std::atomic<uint64_t> RetiredMemoMisses{0};
  std::atomic<uint64_t> RetiredSubstMemoHits{0};
  std::atomic<uint64_t> RetiredSubstMemoMisses{0};
};

} // namespace ipcp

#endif // IPCP_SERVE_SESSIONCACHE_H
