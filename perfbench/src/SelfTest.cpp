//===- perfbench/src/SelfTest.cpp - Tests of the benchmark itself ---------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_selftest --root DIR --work-dir DIR
///
/// Tests the benchmark's own machinery: the tail-percentile rule, open-
/// loop latency from the due time, the golden-file parser, span self
/// time, and — for every output check — that it passes on the true
/// reference and *fails* on a corrupted one (a golden copy with one cell
/// changed, a reply with one byte flipped, an injected fuzz failure).
/// Prints one line per failed expectation and exits non-zero if any.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Stats.h"
#include "Trace.h"

#include "serve/Protocol.h"
#include "serve/Render.h"
#include "serve/Server.h"
#include "workloads/Suite.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace perfbench;
using namespace ipcp;

namespace {

unsigned Failures = 0;

void expect(bool Cond, const char *What, int Line) {
  if (Cond)
    return;
  ++Failures;
  std::printf("FAIL line %d: %s\n", Line, What);
}

#define EXPECT(Cond) expect((Cond), #Cond, __LINE__)

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = N; I >= 1; --I) // Unsorted on purpose.
    V.push_back(double(I));
  return V;
}

void testTailPercentile() {
  Tail T = tailOf(oneTo(100));
  EXPECT(T.Percentile == 90 && T.Value == 90 && T.Beyond == 10);
  T = tailOf(oneTo(99)); // p90 would leave only 9 beyond.
  EXPECT(T.Percentile == 50 && T.Beyond == 49 && T.Samples == 99);
  T = tailOf(oneTo(1000));
  EXPECT(T.Percentile == 99 && T.Value == 990 && T.Beyond == 10);
  T = tailOf(oneTo(100000)); // The ladder stops at p99.
  EXPECT(T.Percentile == 99 && T.Beyond == 1000);
  // 5000 samples: p99 has 50 beyond, so five windows of 1000; a stalled
  // window (every sample 1000x) moves the median of the five not at all.
  std::vector<double> Runs;
  for (int W = 0; W != 5; ++W)
    for (double V : oneTo(1000))
      Runs.push_back(W == 2 ? V * 1000 : V);
  T = tailOf(Runs);
  EXPECT(T.Percentile == 99 && T.Windows == 5 && T.Value == 990);
  EXPECT(tailOf(oneTo(1000)).Windows == 1);
  T = tailOf(oneTo(15)); // Too few for any tail: the median, flagged.
  EXPECT(T.Percentile == 50 && T.Beyond < 10);
  EXPECT(median(oneTo(4)) == 2.5 && median({}) == 0);
  EXPECT(percentile(oneTo(10), 100) == 10 && percentile(oneTo(10), 10) == 1);
}

void testOpenLoopFromDue() {
  // The generator stalls 25 ms before the second send; both delayed
  // requests are charged the stall, not just their service time.
  std::vector<OpenLoopTimes> T = {
      {0, 0, 5}, {10, 35, 40}, {20, 35, 45}};
  EXPECT(latencyFromDue(T[0]) == 5);
  EXPECT(latencyFromDue(T[1]) == 30);
  EXPECT(latencyFromDue(T[2]) == 25);
  EXPECT(generatorLateness(T[1]) == 25 && generatorLateness(T[2]) == 15);
  EXPECT(T[2].DoneMs - T[2].SentMs == 10); // What a closed loop would see.
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

void testGoldenParser(const std::string &GoldenDir) {
  std::string Error;
  std::optional<GoldenTable> T2 =
      parseGoldenTable(readFile(GoldenDir + "/table2.golden"), Error);
  std::optional<GoldenTable> T3 =
      parseGoldenTable(readFile(GoldenDir + "/table3.golden"), Error);
  EXPECT(T2 && T2->Rows.size() == 15 && T2->Columns.size() == 10);
  EXPECT(T3 && T3->Rows.size() == 15 && T3->Columns.size() == 5);
  if (!T2 || !T3)
    return;
  EXPECT(T2->Rows[0].first == "adm" && T2->Rows[0].second[0] == 110);
  std::optional<GoldenGrid> G = goldenGridFrom(*T2, *T3, Error);
  EXPECT(G && G->size() == 15 * 13);
  if (G)
    EXPECT(G->at({"ocean", "poly-norjf"}) == 62 &&
           G->at({"ocean", "poly-nomod"}) == T3->Rows[6].second[0]);

  EXPECT(!parseGoldenTable("adm 1 2\n", Error)); // No header.
  EXPECT(!parseGoldenTable("# program a b\nadm 1\n", Error));
  EXPECT(!parseGoldenTable("# program a\nadm x1\n", Error));
  EXPECT(!parseGoldenTable("# program a\nadm -4\n", Error));
  // table3's withmod column must agree with table2's poly column.
  GoldenTable Bad = *T3;
  Bad.Rows[0].second[1] += 1;
  EXPECT(!goldenGridFrom(*T2, Bad, Error));
}

void testGridCheck(const std::string &GoldenDir, const std::string &WorkDir) {
  std::string Error;
  std::optional<GoldenGrid> Golden = loadGoldenGrid(GoldenDir, Error);
  EXPECT(Golden.has_value());
  if (!Golden)
    return;
  SuiteRunResult Batch =
      runSuite(extendedSuite(), allConfigs(), 4, 1, SuiteSharing::Shared);
  size_t Failed = 99;
  EXPECT(checkGridBatch(Batch, *Golden, Failed).empty() && Failed == 0);

  // A scratch copy of table2.golden with one cell changed.
  std::string Dir = WorkDir + "/corrupt-golden";
  std::filesystem::create_directories(Dir);
  std::string T2 = readFile(GoldenDir + "/table2.golden");
  size_t At = T2.find("\nocean 194 194");
  EXPECT(At != std::string::npos);
  if (At == std::string::npos)
    return;
  T2.replace(At, 14, "\nocean 194 195"); // The "pass" column.
  std::ofstream(Dir + "/table2.golden") << T2;
  std::ofstream(Dir + "/table3.golden") << readFile(GoldenDir +
                                                    "/table3.golden");
  std::optional<GoldenGrid> Corrupt = loadGoldenGrid(Dir, Error);
  EXPECT(Corrupt.has_value());
  if (Corrupt) {
    std::string Why = checkGridBatch(Batch, *Corrupt, Failed);
    EXPECT(!Why.empty() && Failed == 1);
  }
  // A failed cell fails too, whatever its count.
  Batch.Cells[3].Ok = false;
  EXPECT(!checkGridBatch(Batch, *Golden, Failed).empty() && Failed == 1);
  std::filesystem::remove_all(Dir);
}

void testServeCheck() {
  const WorkloadProgram &P = extendedSuite().at(6); // ocean
  PipelineOptions Opts;
  PipelineResult Local = runPipeline(P.Source, Opts);
  std::string Want = renderAnalysisReport(Opts, Local, ReportOptions());
  ServeRequest Req;
  Req.Method = ServeMethod::AnalyzeSource;
  Req.Source = P.Source;
  Req.Id = "t";
  Server S(ServerOptions{});
  std::string Reply = S.handle(serializeServeRequest(Req));
  EXPECT(checkAnalyzeReply(Reply, Want, 194).empty());
  EXPECT(checkAnalyzeReply(Reply, Want, std::nullopt).empty());
  EXPECT(!checkAnalyzeReply(Reply, Want, 195).empty());

  // Flip one byte of the reply's output text.
  std::string Flipped = Reply;
  size_t At = Flipped.find("\"output\":\"");
  EXPECT(At != std::string::npos);
  if (At != std::string::npos) {
    char &C = Flipped[At + 12];
    C = C == 'x' ? 'y' : 'x';
    EXPECT(!checkAnalyzeReply(Flipped, Want, std::nullopt).empty());
  }
  // A flipped reference byte fails just the same.
  std::string WantFlipped = Want;
  WantFlipped[0] ^= 1;
  EXPECT(!checkAnalyzeReply(Reply, WantFlipped, std::nullopt).empty());
  EXPECT(!checkAnalyzeReply(
              makeErrorReply("t", ServeErrorKind::Overloaded, "full"), Want,
              std::nullopt)
              .empty());
  EXPECT(!checkAnalyzeReply("{not json", Want, std::nullopt).empty());
}

void testFuzzCheck() {
  FuzzOptions O;
  O.Seed = 11;
  O.Runs = 3;
  O.Reduce = false;
  FuzzResult R = runFuzzer(O);
  EXPECT(checkCampaign(R, 3, std::nullopt).empty());
  EXPECT(checkCampaign(R, 3, outcomeOf(R)).empty());
  EXPECT(!checkCampaign(R, 4, std::nullopt).empty());

  FuzzResult Injected = R;
  FuzzFailure F;
  F.Kind = "oracle-mismatch";
  F.Config = "poly";
  Injected.Failures.push_back(F);
  EXPECT(!checkCampaign(Injected, 3, std::nullopt).empty());

  CampaignOutcome Other = outcomeOf(R);
  Other.FeatureBits += 1;
  EXPECT(!checkCampaign(R, 3, Other).empty());
  Other = outcomeOf(R);
  Other.CorpusSize += 1;
  EXPECT(!checkCampaign(R, 3, Other).empty());

  // A corpus replay must load every entry written and run no mutants.
  FuzzResult Replay;
  Replay.CorpusSize = 15;
  Replay.FeatureBits = 140;
  EXPECT(checkCorpusReplay(Replay, 15, std::nullopt).empty());
  EXPECT(checkCorpusReplay(Replay, 15, outcomeOf(Replay)).empty());
  EXPECT(!checkCorpusReplay(Replay, 16, std::nullopt).empty());
  FuzzResult Mutated = Replay;
  Mutated.Iterations = 1;
  EXPECT(!checkCorpusReplay(Mutated, 15, std::nullopt).empty());
  FuzzResult Failing = Replay;
  Failing.Failures.push_back(F);
  EXPECT(!checkCorpusReplay(Failing, 15, std::nullopt).empty());
}

void testSelfTime() {
  std::vector<SpanRecord> S(5);
  S[0] = {"bench.batch", 1, 0, 0, 1, 0, 100};
  S[1] = {"ir.ssa", 2, 1, 0, 1, 10, 30};
  S[2] = {"ipcp.jf", 3, 1, 0, 2, 20, 40}; // Overlaps S[1] (other thread).
  S[3] = {"ipcp.solve", 4, 1, 0, 1, 50, 60};
  S[4] = {"ir.module", 5, 3, 0, 2, 25, 30}; // Nested in S[2].
  std::vector<double> Self = selfTimesUs(S);
  EXPECT(Self[0] == 60 && Self[1] == 20 && Self[2] == 15 && Self[3] == 10 &&
         Self[4] == 5);
  TraceSummary Sum = summarize(S);
  EXPECT(Sum.TotalSelfUs == 110);
  EXPECT(Sum.SelfUsByLayer["ipcp"] == 25);
  EXPECT(Sum.unattributedRatio() == 60.0 / 110.0);

  Tracer T(true);
  {
    Span Outer(T, "bench.unit", 7);
    Span Inner(T, "lang.frontend");
  }
  std::vector<SpanRecord> Rec = T.spans();
  EXPECT(Rec.size() == 2 && Rec[0].Parent == Rec[1].Id && Rec[0].Unit == 7);
  Tracer Off(false);
  {
    Span Ignored(Off, "bench.unit", 1);
  }
  EXPECT(Off.spans().empty());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Root = ".", WorkDir = ".";
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    if (Flag == "--root")
      Root = Argv[I + 1];
    else if (Flag == "--work-dir")
      WorkDir = Argv[I + 1];
  }
  std::filesystem::create_directories(WorkDir);
  testTailPercentile();
  testOpenLoopFromDue();
  testGoldenParser(Root + "/tests/golden");
  testGridCheck(Root + "/tests/golden", WorkDir);
  testServeCheck();
  testFuzzCheck();
  testSelfTime();
  std::printf("perfbench self-test: %u failure(s)\n", Failures);
  return Failures == 0 ? 0 : 1;
}
