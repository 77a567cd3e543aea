//===- ipcp/SummaryIO.h - Serializable jump-function summaries --*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The jump-function interchange format: per-procedure jump-function
/// summaries as versioned, canonical JSON — the analogue of libosuction's
/// per-TU jump-function files, which a compiler process writes and a
/// later whole-program propagation loads instead of rebuilding them
/// (`ipcp-driver --summary-out` / `--summary-in`). A summary carries, per
/// procedure, the forward jump functions of every call site, the return
/// jump functions, and the alias-unstable mask the builder saw; every
/// jump function is stored as its extensional fingerprint
/// (JumpFunction::appendFingerprint), so
///
///   * serialization is deterministic: equal summaries produce equal
///     bytes (JsonValue keeps object keys sorted, fingerprints are exact
///     structural encodings, procedures and return entries are sorted);
///   * a load round-trips byte-identically under the existing
///     fingerprint machinery — re-fingerprinting a reconstituted jump
///     function reproduces the stored bytes, so the value-context memo
///     groups reconstituted functions with freshly built ones.
///
/// Robustness contract (summary files cross process boundaries, like the
/// fuzz corpus and the serve protocol): parseSummary,
/// reconstituteJumpFunctions and runPipelineFromSummary never abort on
/// malformed input. Truncated files, version skew, unknown fields,
/// out-of-range ids, fingerprint garbage, stats that disagree with
/// content, partial summaries, and summaries of another configuration or
/// source all produce a diagnostic and a clean failure — a summary is
/// either loaded exactly or rejected loudly, never silently applied.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_SUMMARYIO_H
#define IPCP_IPCP_SUMMARYIO_H

#include "ipcp/JumpFunctionBuilder.h"
#include "ipcp/Pipeline.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ipcp {
class AnalysisSession;
class ThreadPool;

/// The on-disk format version serializeSummary writes and parseSummary
/// accepts. Bump on any schema change; loaders reject other versions.
inline constexpr int SummaryFormatVersion = 1;

/// The summary of one procedure's jump functions.
struct ProcSummary {
  ProcId Proc = 0;
  /// Procedure name — a cheap cross-process guard that the summary and
  /// the program it is applied to agree on procedure numbering.
  std::string Name;
  /// Parallel to CallGraph::callSitesIn(Proc); empty for procedures the
  /// builder skipped as unreachable.
  std::vector<CallSiteJumpFunctions> Sites;
  /// Return jump functions, sorted by callee-side SymbolId.
  std::vector<std::pair<SymbolId, JumpFunction>> Returns;
  /// Symbols RefAliasInfo marked unstable in this procedure (ascending):
  /// the alias mask the jump functions above were built under.
  std::vector<SymbolId> AliasUnstable;

  ProcSummary() = default;
  ProcSummary(ProcSummary &&) = default;
  ProcSummary &operator=(ProcSummary &&) = default;
};

/// A serializable (possibly partial) jump-function summary of one
/// program under one builder configuration.
struct ProgramSummary {
  std::string Program;
  /// FNV-1a of the program source; guards against applying a summary to
  /// a program that merely shares the name.
  uint64_t SourceHash = 0;
  JumpFunctionOptions Options;
  /// Optimistic value numbering's phi merges over the whole build
  /// (JumpFunctionStats::NumGvnPhiMerges). Not derivable from the stored
  /// functions, so carried as is; every partial summary of one build
  /// carries the same value.
  size_t GvnPhiMerges = 0;
  /// Whole-program shape guards: procedure and global-scalar counts.
  size_t NumProcs = 0;
  size_t NumGlobals = 0;
  /// Covered procedures, ascending by ProcId. The format admits a
  /// partial summary (a subset); only a complete one reconstitutes.
  std::vector<ProcSummary> Procs;

  ProgramSummary() = default;
  ProgramSummary(ProgramSummary &&) = default;
  ProgramSummary &operator=(ProgramSummary &&) = default;

  /// True when every procedure 0..NumProcs-1 is covered.
  bool complete() const { return Procs.size() == NumProcs; }
};

/// Byte-wise FNV-1a of \p Source. Serialized into summary files, so its
/// values are pinned — do not change the mixing.
uint64_t summarySourceHash(std::string_view Source);

/// Statistics recomputed from a summary's content (deterministic in the
/// content alone; serialized alongside it and checked on load as a
/// structural checksum). Matches JumpFunctionStats' counting for the
/// fields derivable from the stored functions.
JumpFunctionStats summaryStats(const ProgramSummary &S);

/// Serializes to one canonical JSON line (no trailing newline). Equal
/// summaries produce equal bytes.
std::string serializeSummary(const ProgramSummary &S);

/// Strict parse + validation of one summary document. Returns false with
/// a diagnostic on any malformation (see the file comment's contract);
/// \p Out is unspecified then.
bool parseSummary(std::string_view Text, ProgramSummary &Out,
                  std::string &Error);

/// Builds the full summary of one checked program through \p Session's
/// caches (byte-identical to a cold build; see JumpFunctionBuilder).
ProgramSummary buildSummary(AnalysisSession &Session,
                            const JumpFunctionOptions &Opts,
                            std::string ProgramName, uint64_t SourceHash,
                            ThreadPool *Pool = nullptr);

/// Reconstitutes a complete summary into solver-ready jump functions,
/// validating its shape against the program actually loaded: procedure
/// names, per-procedure call-site counts, per-site argument counts
/// against the callee's formals, and global counts must all line up.
bool reconstituteJumpFunctions(const ProgramSummary &S, const Module &M,
                               const SymbolTable &Symbols,
                               const CallGraph &CG,
                               ProgramJumpFunctions &Out, std::string &Error);

/// The summary loader (`ipcp-driver --summary-in`): stage 3 from a file
/// instead of a same-process stage 2. Parses \p SummaryText, checks
/// \p Source through the frontend, rejects a summary built under a
/// jump-function configuration other than \p Opts' or from other source
/// text, reconstitutes the functions against the loaded program, and
/// runs solve + substitution over them (runPipelineOnSession with
/// preloaded functions). When the summary is \p Opts' build of
/// \p Source, the result is byte-identical to runPipeline(Source, Opts),
/// timings excepted. On failure Result.Error holds the complete
/// diagnostic text (newline-terminated lines, the summary named as
/// \p SummaryName); pipeline errors pass through unchanged.
PipelineResult runPipelineFromSummary(std::string_view SummaryText,
                                      std::string_view Source,
                                      const PipelineOptions &Opts,
                                      const std::string &SummaryName);

} // namespace ipcp

#endif // IPCP_IPCP_SUMMARYIO_H
