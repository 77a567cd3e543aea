//===- tests/SummaryIOTests.cpp - ipcp/SummaryIO --------------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The summary serialization contract: fingerprints and whole summaries
/// round-trip byte-identically, a loaded summary analyzes exactly like a
/// same-process build (down to the --stats report), and every malformed
/// or mismatched input — truncation, version skew, garbage, a partial
/// summary, another configuration or source — fails loudly with a
/// diagnostic.
///
//===----------------------------------------------------------------------===//

#include "ipcp/SummaryIO.h"

#include "ipcp/AnalysisSession.h"
#include "serve/Render.h"
#include "workloads/Suite.h"
#include "workloads/SuiteRunner.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Frontend + session bundle for summary tests (sessions keep references
/// into the context and symbol table, so the pieces must live together).
struct SessionFixture {
  std::unique_ptr<AstContext> Ctx;
  SymbolTable Symbols;
  std::unique_ptr<AnalysisSession> Session;
  std::string Source;

  explicit SessionFixture(const std::string &Src) : Source(Src) {
    DiagnosticEngine Diags;
    Ctx = parseProgram(Src, Diags);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
    Symbols = Sema::run(*Ctx, Diags);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
    Session = std::make_unique<AnalysisSession>(*Ctx, Symbols);
  }

  ProgramSummary summary(const JumpFunctionOptions &Opts,
                         const std::string &Name = "test") {
    return buildSummary(*Session, Opts, Name, summarySourceHash(Source));
  }
};

/// The distinct jump-function configurations the nine suite columns
/// exercise, plus the gated-SSA build (gamma fingerprints), the
/// precision tier (flow-sensitive aliasing, optimistic numbering), and
/// the copy tier (the copy lattice's K-form fingerprints).
std::vector<JumpFunctionOptions> allJfOptions() {
  std::vector<JumpFunctionOptions> Out;
  auto Add = [&](JumpFunctionKind K, bool Rjf, bool Mod, bool Gsa) {
    JumpFunctionOptions O;
    O.Kind = K;
    O.UseReturnJumpFunctions = Rjf;
    O.UseMod = Mod;
    O.UseGatedSsa = Gsa;
    Out.push_back(O);
  };
  Add(JumpFunctionKind::Polynomial, true, true, false);
  Add(JumpFunctionKind::PassThrough, true, true, false);
  Add(JumpFunctionKind::IntraConst, true, true, false);
  Add(JumpFunctionKind::Literal, true, true, false);
  Add(JumpFunctionKind::Polynomial, false, true, false);
  Add(JumpFunctionKind::PassThrough, false, true, false);
  Add(JumpFunctionKind::Polynomial, true, false, false);
  Add(JumpFunctionKind::Polynomial, true, true, true);
  JumpFunctionOptions Fsa;
  Fsa.FlowSensitiveAlias = true;
  Out.push_back(Fsa);
  JumpFunctionOptions Ogvn;
  Ogvn.OptimisticVn = true;
  Out.push_back(Ogvn);
  JumpFunctionOptions Copy;
  Copy.CopyPropagation = true;
  Out.push_back(Copy);
  return Out;
}

std::string fingerprint(const JumpFunction &J) {
  std::string Fp;
  J.appendFingerprint(Fp);
  return Fp;
}

/// \p Opts as a full analysis configuration (propagation defaults).
PipelineOptions pipelineOptions(const JumpFunctionOptions &Opts) {
  PipelineOptions P;
  static_cast<JumpFunctionOptions &>(P) = Opts;
  return P;
}

const char *RichSource = R"(global g
global h
proc main()
  integer k
  g = 4
  k = 3 * g + 1
  call a(k, 7)
  call a(k + g, k)
end
proc a(x, y)
  integer t
  t = x + y
  if (x > 0) then
    h = t
  else
    h = 0 - t
  end if
  call b(t)
end
proc b(z)
  print z
  g = z
end
)";

} // namespace

//===----------------------------------------------------------------------===//
// Fingerprint round trips
//===----------------------------------------------------------------------===//

TEST(SummaryIO, FingerprintRoundTripsEveryFormInSuite) {
  // Every jump function of every suite program under every configuration
  // must survive parse(print(J)) byte-identically.
  size_t Checked = 0;
  for (const WorkloadProgram &W : benchmarkSuite()) {
    SessionFixture F(W.Source);
    for (const JumpFunctionOptions &Opts : allJfOptions()) {
      ProgramSummary S = F.summary(Opts, W.Name);
      for (const ProcSummary &P : S.Procs) {
        auto Check = [&](const JumpFunction &J) {
          std::string Fp = fingerprint(J);
          JumpFunction Parsed;
          std::string Error;
          ASSERT_TRUE(JumpFunction::parseFingerprint(Fp, Parsed, Error))
              << Fp << ": " << Error;
          EXPECT_EQ(fingerprint(Parsed), Fp);
          ++Checked;
        };
        for (const CallSiteJumpFunctions &Site : P.Sites) {
          for (const JumpFunction &J : Site.Args)
            Check(J);
          for (const JumpFunction &J : Site.Globals)
            Check(J);
        }
        for (const auto &[Sym, J] : P.Returns) {
          (void)Sym;
          Check(J);
        }
      }
    }
  }
  EXPECT_GT(Checked, 1000u);
}

TEST(SummaryIO, FingerprintParsesHandWrittenForms) {
  // Gamma and unknown nodes, written by hand so coverage does not depend
  // on what the suite programs happen to generate.
  for (const char *Fp :
       {"B", "C-9223372036854775808;", "C42;", "P3;", "Yc5;", "Yp7;",
        "Yu1(p2;)", "Yb4(p1;c3;)", "Yg(b7(p1;c0;)c1;?)",
        "Yb0(g(p1;?c2;)u0(p3;))"}) {
    JumpFunction Parsed;
    std::string Error;
    ASSERT_TRUE(JumpFunction::parseFingerprint(Fp, Parsed, Error))
        << Fp << ": " << Error;
    EXPECT_EQ(fingerprint(Parsed), Fp);
  }
}

TEST(SummaryIO, FingerprintParserRejectsMalformed) {
  const char *Bad[] = {
      "",                      // empty
      "X",                     // unknown form tag
      "C",                     // truncated constant
      "C5",                    // missing ';'
      "C5;x",                  // trailing bytes
      "C99999999999999999999;",// int64 overflow
      "P-1;",                  // negative symbol id
      "P4294967295;",          // InvalidSymbol
      "Y",                     // truncated expression
      "Yq5;",                  // unknown node tag
      "Yu9(c1;)",              // unary op out of range
      "Yb99(c1;c2;)",          // binary op out of range
      "Yb0(c1;)",              // binary arity
      "Yg(c1;c2;)",            // gamma arity
      "Yb0(c1;c2;",            // unclosed paren
      "Yb0(c1;c2;)x",          // trailing bytes after expr
  };
  for (const char *Fp : Bad) {
    JumpFunction Parsed;
    std::string Error;
    EXPECT_FALSE(JumpFunction::parseFingerprint(Fp, Parsed, Error)) << Fp;
    EXPECT_FALSE(Error.empty()) << Fp;
  }
}

TEST(SummaryIO, FingerprintParserBoundsNesting) {
  // A nesting bomb must be rejected cleanly, not overflow the stack.
  std::string Bomb = "Y";
  for (int I = 0; I < 5000; ++I)
    Bomb += "u0(";
  Bomb += "c1;";
  for (int I = 0; I < 5000; ++I)
    Bomb += ")";
  JumpFunction Parsed;
  std::string Error;
  EXPECT_FALSE(JumpFunction::parseFingerprint(Bomb, Parsed, Error));
  EXPECT_NE(Error.find("deep"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Summary round trips and reconstituted solves
//===----------------------------------------------------------------------===//

TEST(SummaryIO, SummaryRoundTripsByteIdentically) {
  for (const WorkloadProgram &W : benchmarkSuite()) {
    SessionFixture F(W.Source);
    for (const JumpFunctionOptions &Opts : allJfOptions()) {
      ProgramSummary S = F.summary(Opts, W.Name);
      std::string Bytes = serializeSummary(S);
      ProgramSummary Reloaded;
      std::string Error;
      ASSERT_TRUE(parseSummary(Bytes, Reloaded, Error))
          << W.Name << ": " << Error;
      EXPECT_EQ(serializeSummary(Reloaded), Bytes) << W.Name;
    }
  }
}

TEST(SummaryIO, ReconstitutedSolveMatchesDirectSolve) {
  for (const WorkloadProgram &W : benchmarkSuite()) {
    SessionFixture F(W.Source);
    for (const JumpFunctionOptions &Opts : allJfOptions()) {
      PipelineOptions P = pipelineOptions(Opts);
      // Direct: stages 2 and 3 in-process.
      PipelineResult Want = runPipeline(W.Source, P);
      ASSERT_TRUE(Want.Ok) << Want.Error;

      // Through the wire: summary -> bytes -> load -> solve.
      std::string Bytes = serializeSummary(F.summary(Opts, W.Name));
      PipelineResult Got = runPipelineFromSummary(Bytes, W.Source, P, W.Name);
      ASSERT_TRUE(Got.Ok) << W.Name << ": " << Got.Error;

      EXPECT_EQ(Got.Constants, Want.Constants) << W.Name;
      EXPECT_EQ(Got.PerProcSubstituted, Want.PerProcSubstituted) << W.Name;
    }
  }
}

// The whole report, not just the constants: the --stats block renders
// jump-function counts from the reconstituted functions, which is where
// a loaded summary has drifted from a local build before (pass-through
// return functions counted as polynomial, optimistic numbering's phi
// merges).
TEST(SummaryIO, LoadedSummaryMatchesLocalStatsReport) {
  ReportOptions Report;
  Report.Stats = true;
  for (const char *Name : {"trfd", "ocean", "doduc", "copychains"}) {
    const WorkloadProgram *W = nullptr;
    for (const WorkloadProgram &P : extendedSuite())
      if (P.Name == Name)
        W = &P;
    ASSERT_NE(nullptr, W) << Name;
    SessionFixture F(W->Source);
    for (const SuiteConfig &C : allConfigs()) {
      // Neither builds jump functions a summary could carry.
      if (C.Opts.CompletePropagation || C.Opts.IntraproceduralOnly)
        continue;
      PipelineResult Local = runPipeline(W->Source, C.Opts);
      ASSERT_TRUE(Local.Ok) << Local.Error;

      std::string Bytes = serializeSummary(F.summary(C.Opts, W->Name));
      PipelineResult Loaded =
          runPipelineFromSummary(Bytes, W->Source, C.Opts, W->Name);
      ASSERT_TRUE(Loaded.Ok) << Name << " / " << C.Name << ": "
                             << Loaded.Error;

      EXPECT_EQ(renderAnalysisReport(C.Opts, Local, Report),
                renderAnalysisReport(C.Opts, Loaded, Report))
          << Name << " / " << C.Name;
    }
  }
}

TEST(SummaryIO, LoadRejectsMismatchedSummaries) {
  SessionFixture F(RichSource);
  PipelineOptions Opts;
  std::string Good = serializeSummary(F.summary(Opts));
  ASSERT_TRUE(runPipelineFromSummary(Good, RichSource, Opts, "s.json").Ok);

  PipelineOptions Pass;
  Pass.Kind = JumpFunctionKind::PassThrough;
  EXPECT_EQ(runPipelineFromSummary(Good, RichSource, Pass, "s.json").Error,
            "error: 's.json' was built under a different jump-function "
            "configuration than the one selected\n");

  std::string Edited = std::string(RichSource) + "\n";
  EXPECT_EQ(runPipelineFromSummary(Good, Edited, Opts, "s.json").Error,
            "error: 's.json' summarizes a different source than the one "
            "loaded\n");

  PipelineResult Garbage =
      runPipelineFromSummary("{}", RichSource, Opts, "s.json");
  EXPECT_FALSE(Garbage.Ok);
  EXPECT_EQ(Garbage.Error.rfind("error: s.json: ", 0), 0u) << Garbage.Error;

  // Frontend diagnostics come through exactly as runPipeline reports them.
  const char *Broken = "proc main(\n";
  PipelineResult Frontend = runPipelineFromSummary(Good, Broken, Opts, "s.json");
  EXPECT_FALSE(Frontend.Ok);
  EXPECT_EQ(Frontend.Error, runPipeline(Broken, Opts).Error);
}

//===----------------------------------------------------------------------===//
// Malformed-input hardening
//===----------------------------------------------------------------------===//

TEST(SummaryIO, ParseRejectsMalformedDocuments) {
  SessionFixture F(RichSource);
  std::string Good = serializeSummary(F.summary(JumpFunctionOptions()));
  ProgramSummary Out;
  std::string Error;
  ASSERT_TRUE(parseSummary(Good, Out, Error)) << Error;

  // Truncations at every eighth byte: never a crash, never a success.
  for (size_t N = 0; N < Good.size(); N += 8) {
    Error.clear();
    EXPECT_FALSE(parseSummary(Good.substr(0, N), Out, Error)) << N;
    EXPECT_FALSE(Error.empty()) << N;
  }

  auto Mutate = [&](const std::string &From, const std::string &To) {
    std::string Doc = Good;
    size_t Pos = Doc.find(From);
    EXPECT_NE(Pos, std::string::npos) << From;
    Doc.replace(Pos, From.size(), To);
    return Doc;
  };

  struct Case {
    std::string Doc;
    const char *ExpectInError;
  } Cases[] = {
      {"", "JSON"},
      {"not json at all", "JSON"},
      {"[1,2,3]", "object"},
      {Mutate("\"format\":\"ipcp-jf-summary\"", "\"format\":\"tarball\""),
       "format"},
      {Mutate("\"version\":1", "\"version\":2"), "version mismatch"},
      {Mutate("\"version\":1", "\"version\":1,\"extra\":true"), "unknown"},
      {Mutate("\"source_fnv\":\"", "\"source_fnv\":\"zz"), "hex"},
      {Mutate("\"jf\":\"poly\"", "\"jf\":\"cubic\""), "config.jf"},
      {Mutate("\"num_procs\":3", "\"num_procs\":-3"), "non-negative"},
      {Mutate("\"num_procs\":3", "\"gvn_phi_merges\":0,\"num_procs\":3"),
       "gvn_phi_merges"},
  };
  for (const Case &C : Cases) {
    Error.clear();
    EXPECT_FALSE(parseSummary(C.Doc, Out, Error)) << C.Doc.substr(0, 80);
    EXPECT_NE(Error.find(C.ExpectInError), std::string::npos)
        << "got '" << Error << "', want substring '" << C.ExpectInError
        << "'";
  }
}

TEST(SummaryIO, PrecisionFlagsSkewAcrossVersions) {
  SessionFixture F(RichSource);
  ProgramSummary Out;
  std::string Error;

  // A default-configuration summary carries no precision keys at all —
  // its bytes are exactly the pre-precision (v1) layout — and parsing
  // those bytes yields the flags' defaults, so old writers and new
  // readers (and vice versa) interoperate without a version bump.
  std::string V1 = serializeSummary(F.summary(JumpFunctionOptions()));
  EXPECT_EQ(V1.find("fsa"), std::string::npos);
  EXPECT_EQ(V1.find("ogvn"), std::string::npos);
  ASSERT_TRUE(parseSummary(V1, Out, Error)) << Error;
  EXPECT_FALSE(Out.Options.FlowSensitiveAlias);
  EXPECT_FALSE(Out.Options.OptimisticVn);
  EXPECT_EQ(serializeSummary(Out), V1);

  // A writer that spells the defaults out is tolerated, and
  // re-serialization canonicalizes back to the elided v1 bytes.
  std::string Spelled = V1;
  size_t Pos = Spelled.find("\"gsa\":false");
  ASSERT_NE(Pos, std::string::npos);
  Spelled.insert(Pos, "\"fsa\":false,\"ogvn\":false,");
  ASSERT_TRUE(parseSummary(Spelled, Out, Error)) << Error;
  EXPECT_FALSE(Out.Options.FlowSensitiveAlias);
  EXPECT_FALSE(Out.Options.OptimisticVn);
  EXPECT_EQ(serializeSummary(Out), V1);

  // Precision-era summaries spell the set flag and round-trip it.
  JumpFunctionOptions FsaOpts;
  FsaOpts.FlowSensitiveAlias = true;
  std::string FsaBytes = serializeSummary(F.summary(FsaOpts));
  EXPECT_NE(FsaBytes.find("\"fsa\":true"), std::string::npos);
  EXPECT_EQ(FsaBytes.find("ogvn"), std::string::npos);
  ASSERT_TRUE(parseSummary(FsaBytes, Out, Error)) << Error;
  EXPECT_TRUE(Out.Options.FlowSensitiveAlias);
  EXPECT_EQ(serializeSummary(Out), FsaBytes);

  JumpFunctionOptions OgvnOpts;
  OgvnOpts.OptimisticVn = true;
  std::string OgvnBytes = serializeSummary(F.summary(OgvnOpts));
  EXPECT_NE(OgvnBytes.find("\"ogvn\":true"), std::string::npos);
  ASSERT_TRUE(parseSummary(OgvnBytes, Out, Error)) << Error;
  EXPECT_TRUE(Out.Options.OptimisticVn);
  EXPECT_EQ(serializeSummary(Out), OgvnBytes);

  // The optional keys loosen nothing else: ill-typed or misspelled
  // precision fields still fail loudly.
  auto Mutate = [&](const std::string &From, const std::string &To) {
    std::string Doc = FsaBytes;
    size_t At = Doc.find(From);
    EXPECT_NE(At, std::string::npos) << From;
    Doc.replace(At, From.size(), To);
    return Doc;
  };
  Error.clear();
  EXPECT_FALSE(
      parseSummary(Mutate("\"fsa\":true", "\"fsa\":\"yes\""), Out, Error));
  EXPECT_NE(Error.find("config.fsa must be a boolean"), std::string::npos)
      << Error;
  Error.clear();
  EXPECT_FALSE(
      parseSummary(Mutate("\"fsa\":true", "\"fsb\":true"), Out, Error));
  EXPECT_NE(Error.find("unknown config field"), std::string::npos) << Error;
}

TEST(SummaryIO, CopyTokenSkewAcrossVersions) {
  // A source whose copy-era jump functions carry the K-form: the buf(1)
  // actual is a copy of the relay's formal.
  const char *CopySource = R"(proc main()
  call relay(7)
end
proc relay(x)
  array buf(8)
  buf(1) = x
  call leaf(buf(1))
end
proc leaf(p)
  print p * 2
end
)";
  SessionFixture F(CopySource);
  ProgramSummary Out;
  std::string Error;

  // A default-configuration summary carries no copy key and no K-form
  // tokens — its bytes are exactly the pre-copy (v1) layout — and
  // parsing those bytes yields the flag's default, so old writers and
  // new readers (and vice versa) interoperate without a version bump.
  std::string V1 = serializeSummary(F.summary(JumpFunctionOptions()));
  EXPECT_EQ(V1.find("\"copy\""), std::string::npos);
  ASSERT_TRUE(parseSummary(V1, Out, Error)) << Error;
  EXPECT_FALSE(Out.Options.CopyPropagation);
  EXPECT_EQ(serializeSummary(Out), V1);

  // A writer that spells the default out is tolerated, and
  // re-serialization canonicalizes back to the elided v1 bytes.
  std::string Spelled = V1;
  size_t Pos = Spelled.find("\"gsa\":false");
  ASSERT_NE(Pos, std::string::npos);
  Spelled.insert(Pos, "\"copy\":false,");
  ASSERT_TRUE(parseSummary(Spelled, Out, Error)) << Error;
  EXPECT_FALSE(Out.Options.CopyPropagation);
  EXPECT_EQ(serializeSummary(Out), V1);

  // Copy-era summaries spell the flag, carry the K-form fingerprint,
  // and round-trip byte-identically (including the forward_copy stat
  // the recompute-and-compare checksum re-derives on load).
  JumpFunctionOptions CopyOpts;
  CopyOpts.CopyPropagation = true;
  std::string CopyBytes = serializeSummary(F.summary(CopyOpts));
  EXPECT_NE(CopyBytes.find("\"copy\":true"), std::string::npos);
  EXPECT_NE(CopyBytes.find('K'), std::string::npos);
  EXPECT_NE(CopyBytes.find("forward_copy"), std::string::npos);
  ASSERT_TRUE(parseSummary(CopyBytes, Out, Error)) << Error;
  EXPECT_TRUE(Out.Options.CopyPropagation);
  EXPECT_EQ(serializeSummary(Out), CopyBytes);

  // The optional key loosens nothing else: ill-typed or misspelled copy
  // fields still fail loudly.
  auto Mutate = [&](const std::string &From, const std::string &To) {
    std::string Doc = CopyBytes;
    size_t At = Doc.find(From);
    EXPECT_NE(At, std::string::npos) << From;
    Doc.replace(At, From.size(), To);
    return Doc;
  };
  Error.clear();
  EXPECT_FALSE(
      parseSummary(Mutate("\"copy\":true", "\"copy\":1"), Out, Error));
  EXPECT_NE(Error.find("config.copy must be a boolean"), std::string::npos)
      << Error;
  Error.clear();
  EXPECT_FALSE(
      parseSummary(Mutate("\"copy\":true", "\"kopy\":true"), Out, Error));
  EXPECT_NE(Error.find("unknown config field"), std::string::npos) << Error;
}

TEST(SummaryIO, ParseCatchesContentCorruptionThroughStats) {
  SessionFixture F(RichSource);
  std::string Good = serializeSummary(F.summary(JumpFunctionOptions()));

  // Drop one whole procedure entry from the procs array: still valid
  // JSON, still schema-shaped — only the stats checksum can notice.
  size_t Start = Good.find("{\"alias_unstable\"");
  ASSERT_NE(Start, std::string::npos);
  int Depth = 0;
  size_t End = Start;
  for (; End < Good.size(); ++End) {
    if (Good[End] == '{')
      ++Depth;
    else if (Good[End] == '}' && --Depth == 0)
      break;
  }
  std::string Doc = Good;
  Doc.erase(Start, End - Start + 2); // entry plus trailing ",".

  ProgramSummary Out;
  std::string Error;
  EXPECT_FALSE(parseSummary(Doc, Out, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(SummaryIO, ReconstituteValidatesAgainstLoadedProgram) {
  SessionFixture F(RichSource);
  JumpFunctionOptions Opts;
  ProgramSummary S = F.summary(Opts);

  // A partial summary (the format admits one) does not reconstitute.
  {
    ProgramSummary Partial = F.summary(Opts);
    Partial.Procs.pop_back();
    std::string Bytes = serializeSummary(Partial);
    ProgramSummary Reloaded;
    std::string Error;
    ASSERT_TRUE(parseSummary(Bytes, Reloaded, Error)) << Error;
    EXPECT_FALSE(Reloaded.complete());
    ProgramJumpFunctions Out;
    EXPECT_FALSE(reconstituteJumpFunctions(Reloaded, F.Session->module(),
                                           F.Symbols,
                                           F.Session->callGraph(), Out,
                                           Error));
    EXPECT_NE(Error.find("partial"), std::string::npos) << Error;
  }

  // A summary of one program must not apply to another.
  {
    SessionFixture Other("proc main()\n  print 1\nend\n");
    ProgramJumpFunctions Out;
    std::string Error;
    EXPECT_FALSE(reconstituteJumpFunctions(
        S, Other.Session->module(), Other.Symbols,
        Other.Session->callGraph(), Out, Error));
    EXPECT_FALSE(Error.empty());
  }
}
