//===- ipcp/ValueContextMemo.h - Shared value-context tables ----*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver's value-context memo, re-keyed per Padhye & Khedker's
/// value-contexts method (arXiv 1304.6274) and hoisted out of per-solve
/// state so recorded evaluations are shared across call sites,
/// configurations, and serve requests.
///
/// A *group* is keyed by the exact extensional serialization of a
/// procedure's site jump-function list (JumpFunction::appendFingerprint):
/// two procedures — or the same procedure under two configurations —
/// whose jump functions serialize identically evaluate identically under
/// every environment, so they share one table. Within a group, a
/// *context* projects the caller's VAL onto the union of the jump
/// functions' support sets; the table maps each context to the vector of
/// evaluation results, in flat (site, arg, global) order. Recursive
/// re-entries and round-robin convergence sweeps resolve to the same
/// context node and replay it.
///
/// Replays are byte-identical to fresh evaluation by construction: a
/// recorded vector is a pure function of (fingerprint, context), both of
/// which pin every input the evaluations can read. The meets into the
/// callees always run, so worklist dynamics — and therefore VAL sets,
/// JfEvaluations, and every golden cell — never change. Only the
/// hit/miss counters are warmth-dependent, which is why they are
/// excluded from determinism fingerprints and rendered replies.
///
/// Thread safety: groups resolve under a per-shard mutex and context
/// lookup/record run under a per-group mutex (the shared suite runner
/// and the server analyze one session from many threads). Map nodes are
/// stable and recorded vectors are immutable after publication, so a
/// replay pointer stays valid without holding the lock. Nothing is ever
/// dropped: the memo lives exactly as long as its session, whose program
/// never changes.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_VALUECONTEXTMEMO_H
#define IPCP_IPCP_VALUECONTEXTMEMO_H

#include "ipcp/Lattice.h"
#include "lang/Sema.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ipcp {

class ValueContextMemo {
public:
  /// One table shared by every procedure/config whose site jump-function
  /// list carries this group's fingerprint. KeySyms and NumSiteJfs are
  /// set once (under the shard lock) when the group is created and are
  /// immutable afterwards.
  struct Group {
    /// Sorted union of the support sets: the only VAL cells the
    /// evaluations can read, hence the context projection.
    std::vector<SymbolId> KeySyms;
    /// Flattened jump-function count — the length of every recorded
    /// vector.
    size_t NumSiteJfs = 0;

    /// The recorded evaluations for \p Context, or null on a miss.
    const std::vector<LatticeValue> *find(const std::vector<int64_t> &Context);

    /// Records a fresh evaluation vector (first writer wins; any
    /// concurrent loser computed the same bytes). Stops recording past
    /// MaxContexts so one pathological program cannot grow the table
    /// unboundedly; lookups keep hitting the retained contexts.
    void record(std::vector<int64_t> &&Context,
                std::vector<LatticeValue> &&Values);

    static constexpr size_t MaxContexts = 128;

  private:
    std::mutex M;
    std::map<std::vector<int64_t>, std::vector<LatticeValue>> Table;
  };

  ValueContextMemo() = default;
  ValueContextMemo(const ValueContextMemo &) = delete;
  ValueContextMemo &operator=(const ValueContextMemo &) = delete;

  /// Resolves (creating on first use) the group keyed by \p Fingerprint.
  /// \p Init runs under the shard lock exactly once, on creation, to
  /// populate KeySyms/NumSiteJfs. The reference stays valid for the
  /// memo's lifetime.
  Group &group(std::string &&Fingerprint,
               const std::function<void(Group &)> &Init);

  /// Cumulative counters across every solve that used this memo (the
  /// serve stats reply aggregates these over warm sessions).
  void noteHit() { HitCount.fetch_add(1, std::memory_order_relaxed); }
  void noteMiss() { MissCount.fetch_add(1, std::memory_order_relaxed); }
  uint64_t hits() const { return HitCount.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return MissCount.load(std::memory_order_relaxed);
  }

private:
  static constexpr size_t NumShards = 8;
  struct Shard {
    std::mutex M;
    std::map<std::string, Group> Groups;
  };
  Shard Shards[NumShards];
  std::atomic<uint64_t> HitCount{0};
  std::atomic<uint64_t> MissCount{0};
};

} // namespace ipcp

#endif // IPCP_IPCP_VALUECONTEXTMEMO_H
