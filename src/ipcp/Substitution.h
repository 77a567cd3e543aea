//===- ipcp/Substitution.h - Constant substitution counting -----*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 4 of the analyzer: recording the results. Following Metzger &
/// Stroud (paper §4.1), effectiveness is measured as the number of
/// constants actually substituted into the code — "known but irrelevant"
/// constants do not count. We count, uniformly for every configuration,
/// the source-level variable uses that the configuration proves to carry
/// a known constant (see DESIGN.md §3 "Metric"): an SCCP pass seeded with
/// the interprocedural CONSTANTS sets (or with BOTTOM for the purely
/// intraprocedural baseline) runs over each reachable procedure, and
/// every executable, substitutable use with a constant lattice value
/// counts once.
///
/// A use is *not* substitutable when it is a by-reference actual the
/// callee may modify — replacing the variable with a literal would break
/// the binding.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_SUBSTITUTION_H
#define IPCP_IPCP_SUBSTITUTION_H

#include "analysis/CallGraph.h"
#include "analysis/DeadCodeElim.h"
#include "analysis/ModRef.h"
#include "analysis/RefAlias.h"
#include "ipcp/JumpFunctionBuilder.h"
#include "ipcp/Solver.h"
#include "lang/AstPrinter.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ipcp {
class AnalysisSession;
class CopyPropInfo;
class FlowAliasInfo;

/// Outcome of the substitution pass over one program.
struct SubstitutionResult {
  /// Total substituted (constant-valued) variable uses.
  unsigned Total = 0;
  /// Per-procedure breakdown, indexed by ProcId.
  std::vector<unsigned> PerProc;
  /// VarRefExpr id -> constant, for emitting transformed source.
  SubstitutionMap Map;
  /// Branches proven constant by the seeded SCCP (input to DCE in the
  /// complete-propagation loop).
  DeadCodeElim::Decisions Branches;
  /// Executable print statements whose operand is a known constant — a
  /// transform-stable effectiveness metric (print sites survive
  /// procedure integration, unlike call-argument use sites).
  unsigned ConstantPrints = 0;
};

/// One procedure's share of the substitution pass: the unit the session's
/// substitution memo stores and replays.
struct ProcSubstitutions {
  unsigned Count = 0;
  unsigned ConstantPrints = 0;
  SubstitutionMap Map;
  DeadCodeElim::Decisions Branches;
};

/// A session's per-procedure substitution results, keyed by everything
/// one procedure's seeded SCCP reads (the key argument is in
/// ipcp/AnalysisSession.h). Sharded; entries are immutable once
/// published and their nodes never move, so a replay pointer stays valid
/// without the lock. Like ValueContextMemo, it lives exactly as long as
/// its session.
class SubstitutionMemo {
public:
  SubstitutionMemo() = default;
  SubstitutionMemo(const SubstitutionMemo &) = delete;
  SubstitutionMemo &operator=(const SubstitutionMemo &) = delete;

  /// The recorded result for \p Key, or null; counts a hit or a miss.
  const ProcSubstitutions *find(const std::string &Key);

  /// Publishes a fresh result and returns the stored one (first writer
  /// wins; a concurrent loser computed the same result).
  const ProcSubstitutions &record(std::string &&Key,
                                  ProcSubstitutions &&Value);

  uint64_t hits() const { return HitCount.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return MissCount.load(std::memory_order_relaxed);
  }

private:
  static constexpr size_t NumShards = 8;
  struct Shard {
    std::mutex M;
    std::unordered_map<std::string, ProcSubstitutions> Entries;
  };
  Shard &shardOf(const std::string &Key) {
    return Shards[std::hash<std::string>()(Key) % NumShards];
  }
  Shard Shards[NumShards];
  std::atomic<uint64_t> HitCount{0};
  std::atomic<uint64_t> MissCount{0};
};

/// Runs the seeded-SCCP substitution pass.
///
/// \p Solve supplies the entry seeds (CONSTANTS sets); pass null for the
/// purely intraprocedural baseline (all entries BOTTOM). \p MRI controls
/// call kill sets (null = worst case). \p Jfs supplies return jump
/// functions for call-kill recovery; pass null to disable them.
/// \p Aliases supplies by-reference alias pairs; symbols it marks
/// unstable propagate as BOTTOM (null = no aliasing, only sound for
/// programs that never pass a modified variable by reference). With a
/// non-null \p FlowAliases the whole-procedure masks are replaced by
/// per-point dirty gating (analysis/FlowAlias.h): only reads at points
/// where an aliased store may have happened resolve to BOTTOM, so uses
/// of an aliased symbol before the first interfering store still count.
///
/// Each procedure's SCCP run is independent (it reads only the immutable
/// module and the frozen CONSTANTS sets), so with a non-null \p Pool the
/// procedures fan out across the workers; per-procedure partial results
/// are merged on the calling thread in the serial order, making the
/// outcome bit-identical to the serial run.
///
/// With a non-null \p Session each procedure's dominator tree and SSA
/// form come from the session's per-procedure cache (keyed by MOD
/// presence, which the kill oracle depends on) instead of being rebuilt,
/// and each procedure's result is looked up in, or recorded into, the
/// session's substitution memo; the result is byte-identical either way.
/// The memo keys the alias, flow-alias and copy facts by presence, so
/// with a session they must be the session's own under the MOD setting
/// \p MRI implies.
///
/// With a non-null \p CopyFacts each procedure's SCCP run consumes the
/// copy-propagation facts (analysis/CopyProp.h): array loads whose cell
/// provably holds a literal or the (seeded) entry value of a stable
/// symbol resolve instead of going BOTTOM — the substitution-side half
/// of --copy.
SubstitutionResult countSubstitutions(const Module &M,
                                      const SymbolTable &Symbols,
                                      const CallGraph &CG,
                                      const SolveResult *Solve,
                                      const ModRefInfo *MRI,
                                      const ProgramJumpFunctions *Jfs,
                                      const RefAliasInfo *Aliases = nullptr,
                                      ThreadPool *Pool = nullptr,
                                      AnalysisSession *Session = nullptr,
                                      const FlowAliasInfo *FlowAliases =
                                          nullptr,
                                      const CopyPropInfo *CopyFacts =
                                          nullptr);

} // namespace ipcp

#endif // IPCP_IPCP_SUBSTITUTION_H
