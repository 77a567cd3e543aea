//===- ipcp/SummaryIO.cpp - Serializable jump-function summaries ----------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/SummaryIO.h"

#include "ipcp/AnalysisConfig.h"
#include "ipcp/AnalysisSession.h"
#include "lang/Parser.h"
#include "serve/Json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

using namespace ipcp;

uint64_t ipcp::summarySourceHash(std::string_view Source) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Source) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

namespace {

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

bool parseHex64(const std::string &S, uint64_t &V) {
  if (S.size() != 16)
    return false;
  auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), V, 16);
  return Ec == std::errc() && Ptr == S.data() + S.size();
}

std::string fingerprintOf(const JumpFunction &J) {
  std::string Fp;
  J.appendFingerprint(Fp);
  return Fp;
}

void tallyForward(const JumpFunction &J, JumpFunctionStats &S) {
  ++S.NumForward;
  switch (J.form()) {
  case JumpFunction::Form::Bottom:
    ++S.NumForwardBottom;
    break;
  case JumpFunction::Form::Const:
    ++S.NumForwardConst;
    break;
  case JumpFunction::Form::PassThrough:
    ++S.NumForwardPassThrough;
    break;
  case JumpFunction::Form::Poly:
    ++S.NumForwardPoly;
    S.TotalPolySupport += J.support().size();
    S.MaxPolySupport = std::max(S.MaxPolySupport, J.support().size());
    break;
  case JumpFunction::Form::Copy:
    ++S.NumForwardCopy;
    break;
  }
}

JsonValue statsJson(const JumpFunctionStats &S) {
  JsonValue J = JsonValue::object();
  J.set("forward", uint64_t(S.NumForward));
  J.set("forward_const", uint64_t(S.NumForwardConst));
  J.set("forward_pass", uint64_t(S.NumForwardPassThrough));
  J.set("forward_poly", uint64_t(S.NumForwardPoly));
  J.set("forward_bottom", uint64_t(S.NumForwardBottom));
  // Elided at zero so pre-copy summaries keep their exact byte layout
  // (the stats block is compared as a dumped string on load).
  if (S.NumForwardCopy)
    J.set("forward_copy", uint64_t(S.NumForwardCopy));
  J.set("poly_support_total", uint64_t(S.TotalPolySupport));
  J.set("poly_support_max", uint64_t(S.MaxPolySupport));
  J.set("returns", uint64_t(S.NumReturn));
  J.set("return_const", uint64_t(S.NumReturnConst));
  J.set("return_poly", uint64_t(S.NumReturnPoly));
  J.set("return_bottom", uint64_t(S.NumReturnBottom));
  return J;
}

/// Exact-key-set check: serialization never emits unknown members, so a
/// loader that meets one is reading a different (or corrupted) schema.
/// \p Optional keys may be absent (members elided at their defaults).
bool checkKeys(const JsonValue &Obj, std::initializer_list<const char *> Keys,
               const char *What, std::string &Error,
               std::initializer_list<const char *> Optional = {}) {
  auto In = [](std::initializer_list<const char *> List,
               const std::string &K) {
    return std::find_if(List.begin(), List.end(), [&](const char *Want) {
             return K == Want;
           }) != List.end();
  };
  for (const auto &[K, V] : Obj.members()) {
    (void)V;
    if (!In(Keys, K) && !In(Optional, K)) {
      Error = std::string("unknown ") + What + " field '" + K + "'";
      return false;
    }
  }
  for (const char *Want : Keys)
    if (!Obj.find(Want)) {
      Error = std::string("missing ") + What + " field '" + Want + "'";
      return false;
    }
  return true;
}

bool parseJf(const JsonValue &V, JumpFunction &Out, const char *What,
             std::string &Error) {
  if (!V.isString()) {
    Error = std::string(What) + " must be a fingerprint string";
    return false;
  }
  std::string FpError;
  if (!JumpFunction::parseFingerprint(V.str(), Out, FpError)) {
    Error = std::string("bad ") + What + ": " + FpError;
    return false;
  }
  return true;
}

} // namespace

JumpFunctionStats ipcp::summaryStats(const ProgramSummary &S) {
  JumpFunctionStats Out;
  for (const ProcSummary &P : S.Procs) {
    for (const CallSiteJumpFunctions &Site : P.Sites) {
      for (const JumpFunction &J : Site.Args)
        tallyForward(J, Out);
      for (const JumpFunction &J : Site.Globals)
        tallyForward(J, Out);
    }
    for (const auto &[Sym, J] : P.Returns) {
      (void)Sym;
      ++Out.NumReturn;
      switch (J.form()) {
      case JumpFunction::Form::Const:
        ++Out.NumReturnConst;
        break;
      case JumpFunction::Form::Poly:
        ++Out.NumReturnPoly;
        break;
      case JumpFunction::Form::Bottom:
        ++Out.NumReturnBottom;
        break;
      case JumpFunction::Form::Copy:
        // Matches the builder: a copy-form return counts as polynomial.
        ++Out.NumReturnPoly;
        break;
      case JumpFunction::Form::PassThrough:
        break; // Counted in NumReturn only.
      }
    }
  }
  return Out;
}

std::string ipcp::serializeSummary(const ProgramSummary &S) {
  JsonValue Doc = JsonValue::object();
  Doc.set("format", "ipcp-jf-summary");
  Doc.set("version", SummaryFormatVersion);
  Doc.set("program", S.Program);
  Doc.set("source_fnv", hex64(S.SourceHash));

  Doc.set("config", jumpFunctionConfigJson(S.Options));

  Doc.set("num_procs", uint64_t(S.NumProcs));
  Doc.set("num_globals", uint64_t(S.NumGlobals));
  // Elided at zero: only optimistic numbering merges phis, so every other
  // configuration keeps the v1 layout byte for byte.
  if (S.GvnPhiMerges)
    Doc.set("gvn_phi_merges", uint64_t(S.GvnPhiMerges));

  JsonValue Procs = JsonValue::array();
  for (const ProcSummary &P : S.Procs) {
    JsonValue PJ = JsonValue::object();
    PJ.set("id", uint64_t(P.Proc));
    PJ.set("name", P.Name);
    JsonValue Sites = JsonValue::array();
    for (const CallSiteJumpFunctions &Site : P.Sites) {
      JsonValue SJ = JsonValue::object();
      JsonValue Args = JsonValue::array();
      for (const JumpFunction &J : Site.Args)
        Args.push(fingerprintOf(J));
      JsonValue Globals = JsonValue::array();
      for (const JumpFunction &J : Site.Globals)
        Globals.push(fingerprintOf(J));
      SJ.set("args", std::move(Args));
      SJ.set("globals", std::move(Globals));
      Sites.push(std::move(SJ));
    }
    PJ.set("sites", std::move(Sites));
    JsonValue Returns = JsonValue::array();
    for (const auto &[Sym, J] : P.Returns) {
      JsonValue Pair = JsonValue::array();
      Pair.push(uint64_t(Sym));
      Pair.push(fingerprintOf(J));
      Returns.push(std::move(Pair));
    }
    PJ.set("returns", std::move(Returns));
    JsonValue Unstable = JsonValue::array();
    for (SymbolId Sym : P.AliasUnstable)
      Unstable.push(uint64_t(Sym));
    PJ.set("alias_unstable", std::move(Unstable));
    Procs.push(std::move(PJ));
  }
  Doc.set("procs", std::move(Procs));
  Doc.set("stats", statsJson(summaryStats(S)));
  return Doc.dump();
}

bool ipcp::parseSummary(std::string_view Text, ProgramSummary &Out,
                        std::string &Error) {
  std::optional<JsonValue> Doc = parseJson(Text, Error);
  if (!Doc) {
    Error = "summary is not valid JSON: " + Error;
    return false;
  }
  if (!Doc->isObject()) {
    Error = "summary must be a JSON object";
    return false;
  }
  if (!checkKeys(*Doc,
                 {"format", "version", "program", "source_fnv", "config",
                  "num_procs", "num_globals", "procs", "stats"},
                 "summary", Error, {"gvn_phi_merges"}))
    return false;

  const JsonValue *Format = Doc->find("format");
  if (!Format->isString() || Format->str() != "ipcp-jf-summary") {
    Error = "not an ipcp jump-function summary (bad 'format')";
    return false;
  }
  const JsonValue *Version = Doc->find("version");
  if (!Version->isInt() || Version->integer() != SummaryFormatVersion) {
    Error = "summary format version mismatch (got " +
            (Version->isInt() ? std::to_string(Version->integer())
                              : std::string("non-integer")) +
            ", want " + std::to_string(SummaryFormatVersion) + ")";
    return false;
  }

  ProgramSummary S;
  const JsonValue *Program = Doc->find("program");
  if (!Program->isString() || Program->str().empty()) {
    Error = "summary 'program' must be a non-empty string";
    return false;
  }
  S.Program = Program->str();

  const JsonValue *Fnv = Doc->find("source_fnv");
  if (!Fnv->isString() || !parseHex64(Fnv->str(), S.SourceHash)) {
    Error = "summary 'source_fnv' must be a 16-digit hex string";
    return false;
  }

  if (!parseJumpFunctionConfigJson(*Doc->find("config"), S.Options, Error))
    return false;

  const JsonValue *NumProcs = Doc->find("num_procs");
  const JsonValue *NumGlobals = Doc->find("num_globals");
  if (!NumProcs->isInt() || NumProcs->integer() < 0 || !NumGlobals->isInt() ||
      NumGlobals->integer() < 0) {
    Error = "summary proc/global counts must be non-negative integers";
    return false;
  }
  S.NumProcs = size_t(NumProcs->integer());
  S.NumGlobals = size_t(NumGlobals->integer());
  if (const JsonValue *Merges = Doc->find("gvn_phi_merges")) {
    if (!Merges->isInt() || Merges->integer() <= 0) {
      Error = "summary 'gvn_phi_merges' must be a positive integer";
      return false;
    }
    S.GvnPhiMerges = size_t(Merges->integer());
  }

  const JsonValue *Procs = Doc->find("procs");
  if (!Procs->isArray()) {
    Error = "summary 'procs' must be an array";
    return false;
  }
  int64_t PrevId = -1;
  for (const JsonValue &PJ : Procs->elements()) {
    if (!PJ.isObject()) {
      Error = "summary procedure entries must be objects";
      return false;
    }
    if (!checkKeys(PJ, {"id", "name", "sites", "returns", "alias_unstable"},
                   "procedure", Error))
      return false;
    ProcSummary P;
    const JsonValue *Id = PJ.find("id");
    if (!Id->isInt() || Id->integer() <= PrevId ||
        Id->integer() >= int64_t(S.NumProcs)) {
      Error = "procedure ids must be ascending and below num_procs";
      return false;
    }
    PrevId = Id->integer();
    P.Proc = ProcId(Id->integer());
    const JsonValue *Name = PJ.find("name");
    if (!Name->isString() || Name->str().empty()) {
      Error = "procedure 'name' must be a non-empty string";
      return false;
    }
    P.Name = Name->str();

    const JsonValue *Sites = PJ.find("sites");
    if (!Sites->isArray()) {
      Error = "procedure 'sites' must be an array";
      return false;
    }
    for (const JsonValue &SJ : Sites->elements()) {
      if (!SJ.isObject()) {
        Error = "call-site entries must be objects";
        return false;
      }
      if (!checkKeys(SJ, {"args", "globals"}, "site", Error))
        return false;
      CallSiteJumpFunctions Site;
      const JsonValue *Args = SJ.find("args");
      const JsonValue *Globals = SJ.find("globals");
      if (!Args->isArray() || !Globals->isArray()) {
        Error = "site 'args'/'globals' must be arrays";
        return false;
      }
      for (const JsonValue &V : Args->elements()) {
        JumpFunction J;
        if (!parseJf(V, J, "argument jump function", Error))
          return false;
        Site.Args.push_back(std::move(J));
      }
      if (Globals->elements().size() != S.NumGlobals) {
        Error = "site global jump-function count disagrees with num_globals";
        return false;
      }
      for (const JsonValue &V : Globals->elements()) {
        JumpFunction J;
        if (!parseJf(V, J, "global jump function", Error))
          return false;
        Site.Globals.push_back(std::move(J));
      }
      P.Sites.push_back(std::move(Site));
    }

    const JsonValue *Returns = PJ.find("returns");
    if (!Returns->isArray()) {
      Error = "procedure 'returns' must be an array";
      return false;
    }
    int64_t PrevSym = -1;
    for (const JsonValue &Pair : Returns->elements()) {
      if (!Pair.isArray() || Pair.elements().size() != 2 ||
          !Pair.elements()[0].isInt()) {
        Error = "return entries must be [symbol-id, fingerprint] pairs";
        return false;
      }
      int64_t Sym = Pair.elements()[0].integer();
      if (Sym <= PrevSym || Sym < 0 || Sym >= int64_t(InvalidSymbol)) {
        Error = "return symbol ids must be ascending and in range";
        return false;
      }
      PrevSym = Sym;
      JumpFunction J;
      if (!parseJf(Pair.elements()[1], J, "return jump function", Error))
        return false;
      P.Returns.emplace_back(SymbolId(Sym), std::move(J));
    }

    const JsonValue *Unstable = PJ.find("alias_unstable");
    if (!Unstable->isArray()) {
      Error = "procedure 'alias_unstable' must be an array";
      return false;
    }
    PrevSym = -1;
    for (const JsonValue &V : Unstable->elements()) {
      if (!V.isInt() || V.integer() <= PrevSym ||
          V.integer() >= int64_t(InvalidSymbol)) {
        Error = "alias_unstable ids must be ascending symbol ids";
        return false;
      }
      PrevSym = V.integer();
      P.AliasUnstable.push_back(SymbolId(V.integer()));
    }
    S.Procs.push_back(std::move(P));
  }

  // The stats block is a structural checksum: recompute from what we
  // parsed and require agreement, so content corruption that still
  // parses (a dropped procedure, a swapped fingerprint file) is caught.
  const JsonValue *Stats = Doc->find("stats");
  if (!Stats->isObject()) {
    Error = "summary 'stats' must be an object";
    return false;
  }
  std::string Expect = statsJson(summaryStats(S)).dump();
  if (Stats->dump() != Expect) {
    Error = "summary stats disagree with content (corrupted or hand-edited "
            "summary)";
    return false;
  }

  Out = std::move(S);
  return true;
}

ProgramSummary ipcp::buildSummary(AnalysisSession &Session,
                                  const JumpFunctionOptions &Opts,
                                  std::string ProgramName, uint64_t SourceHash,
                                  ThreadPool *Pool) {
  ProgramJumpFunctions Jfs = buildJumpFunctions(Session, Opts, Pool);
  const Module &M = Session.module();
  const RefAliasInfo &Aliases = Session.refAlias(Opts.UseMod);
  ProgramSummary S;
  S.Program = std::move(ProgramName);
  S.SourceHash = SourceHash;
  S.Options = Jfs.Options;
  S.GvnPhiMerges = Jfs.Stats.NumGvnPhiMerges;
  S.NumProcs = Session.callGraph().numProcs();
  S.NumGlobals = Session.symbols().globalScalars().size();

  for (ProcId P = 0; P < S.NumProcs; ++P) {
    ProcSummary PS;
    PS.Proc = P;
    PS.Name = M.function(P).name();
    PS.Sites = std::move(Jfs.PerSite[P]);
    for (auto &[Sym, J] : Jfs.ReturnJfs[P])
      PS.Returns.emplace_back(Sym, std::move(J));
    std::sort(PS.Returns.begin(), PS.Returns.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    const std::vector<uint8_t> &Mask = Aliases.unstableMask(P);
    for (SymbolId Sym = 0; Sym < Mask.size(); ++Sym)
      if (Mask[Sym])
        PS.AliasUnstable.push_back(Sym);
    S.Procs.push_back(std::move(PS));
  }
  return S;
}

bool ipcp::reconstituteJumpFunctions(const ProgramSummary &S, const Module &M,
                                     const SymbolTable &Symbols,
                                     const CallGraph &CG,
                                     ProgramJumpFunctions &Out,
                                     std::string &Error) {
  if (!S.complete()) {
    Error = "summary of '" + S.Program + "' is partial (" +
            std::to_string(S.Procs.size()) + " of " +
            std::to_string(S.NumProcs) + " procedures); merge before solving";
    return false;
  }
  if (S.NumProcs != CG.numProcs()) {
    Error = "summary procedure count (" + std::to_string(S.NumProcs) +
            ") disagrees with the loaded program (" +
            std::to_string(CG.numProcs()) + ")";
    return false;
  }
  if (S.NumGlobals != Symbols.globalScalars().size()) {
    Error = "summary global count disagrees with the loaded program";
    return false;
  }

  ProgramJumpFunctions Jfs;
  Jfs.Options = S.Options;
  size_t PassThroughReturns = 0;
  Jfs.PerSite.resize(S.NumProcs);
  Jfs.ReturnJfs.resize(S.NumProcs);
  for (const ProcSummary &P : S.Procs) {
    if (M.function(P.Proc).name() != P.Name) {
      Error = "summary procedure " + std::to_string(P.Proc) + " is named '" +
              P.Name + "' but the loaded program has '" +
              M.function(P.Proc).name() + "'";
      return false;
    }
    const std::vector<CallSite> &Sites = CG.callSitesIn(P.Proc);
    // The builder leaves unreachable procedures' site lists empty; accept
    // exactly that shape or the full one.
    if (!P.Sites.empty() && P.Sites.size() != Sites.size()) {
      Error = "summary call-site count for '" + P.Name +
              "' disagrees with the loaded program";
      return false;
    }
    if (P.Sites.empty() && !Sites.empty() && CG.isReachable(P.Proc)) {
      Error = "summary covers reachable procedure '" + P.Name +
              "' without its call sites";
      return false;
    }
    for (size_t I = 0; I < P.Sites.size(); ++I) {
      const CallSiteJumpFunctions &Site = P.Sites[I];
      if (Site.Args.size() != Symbols.formals(Sites[I].Callee).size()) {
        Error = "summary argument count at a call in '" + P.Name +
                "' disagrees with the callee's formals";
        return false;
      }
      CallSiteJumpFunctions Copy;
      for (const JumpFunction &J : Site.Args)
        Copy.Args.push_back(J.clone());
      for (const JumpFunction &J : Site.Globals)
        Copy.Globals.push_back(J.clone());
      Jfs.PerSite[P.Proc].push_back(std::move(Copy));
    }
    for (const auto &[Sym, J] : P.Returns) {
      if (Sym >= Symbols.size()) {
        Error = "summary return jump function in '" + P.Name +
                "' names an out-of-range symbol";
        return false;
      }
      Jfs.ReturnJfs[P.Proc].emplace(Sym, J.clone());
      if (J.form() == JumpFunction::Form::PassThrough)
        ++PassThroughReturns;
    }
  }
  // The builder counts a pass-through (identity) return jump function as
  // polynomial; the checksum stats pinned in summary files do not. Report
  // the builder's counts, so a run over reconstituted functions renders
  // the same statistics as a local build.
  Jfs.Stats = summaryStats(S);
  Jfs.Stats.NumReturnPoly += PassThroughReturns;
  Jfs.Stats.NumGvnPhiMerges = S.GvnPhiMerges;
  Out = std::move(Jfs);
  return true;
}

PipelineResult ipcp::runPipelineFromSummary(std::string_view SummaryText,
                                            std::string_view Source,
                                            const PipelineOptions &Opts,
                                            const std::string &SummaryName) {
  auto Fail = [](std::string Message) {
    PipelineResult Failed;
    Failed.Error = std::move(Message);
    return Failed;
  };
  ProgramSummary S;
  std::string Error;
  if (!parseSummary(SummaryText, S, Error))
    return Fail("error: " + SummaryName + ": " + Error + "\n");
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(Source, Diags);
  SymbolTable Symbols;
  if (!Diags.hasErrors())
    Symbols = Sema::run(*Ctx, Diags);
  if (Diags.hasErrors())
    return Fail(Diags.str());
  if (S.Options != Opts)
    return Fail("error: '" + SummaryName +
                "' was built under a different jump-function configuration "
                "than the one selected\n");
  if (S.SourceHash != summarySourceHash(Source))
    return Fail("error: '" + SummaryName +
                "' summarizes a different source than the one loaded\n");
  AnalysisSession Session(*Ctx, Symbols);
  ProgramJumpFunctions Jfs;
  if (!reconstituteJumpFunctions(S, Session.module(), Symbols,
                                 Session.callGraph(), Jfs, Error))
    return Fail("error: " + SummaryName + ": " + Error + "\n");
  return runPipelineOnSession(Session, Opts, &Jfs);
}
