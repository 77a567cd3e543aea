//===- perfbench/src/Checks.cpp - Output checks of the benchmark ---------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "serve/Json.h"

#include <fstream>
#include <sstream>

using namespace ipcp;

namespace perfbench {

std::optional<GoldenTable> parseGoldenTable(std::string_view Text,
                                            std::string &Error) {
  GoldenTable T;
  std::istringstream In{std::string(Text)};
  std::string Line;
  bool SawHeader = false;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::istringstream Fields(Line);
    std::string First;
    Fields >> First;
    if (!SawHeader) {
      std::string Program;
      if (First != "#" || !(Fields >> Program) || Program != "program") {
        Error = "line 1: expected a '# program <column>...' header";
        return std::nullopt;
      }
      for (std::string Col; Fields >> Col;)
        T.Columns.push_back(Col);
      SawHeader = true;
      continue;
    }
    std::vector<long> Values;
    for (std::string Tok; Fields >> Tok;) {
      char *End = nullptr;
      long V = std::strtol(Tok.c_str(), &End, 10);
      if (Tok.empty() || *End != '\0' || V < 0) {
        Error = "line " + std::to_string(LineNo) + ": '" + Tok +
                "' is not a count";
        return std::nullopt;
      }
      Values.push_back(V);
    }
    if (Values.size() != T.Columns.size()) {
      Error = "line " + std::to_string(LineNo) + ": " +
              std::to_string(Values.size()) + " values for " +
              std::to_string(T.Columns.size()) + " columns";
      return std::nullopt;
    }
    T.Rows.push_back({First, std::move(Values)});
  }
  if (!SawHeader || T.Rows.empty()) {
    Error = "no header or no rows";
    return std::nullopt;
  }
  return T;
}

std::optional<GoldenGrid> goldenGridFrom(const GoldenTable &Table2,
                                         const GoldenTable &Table3,
                                         std::string &Error) {
  // Table 3 columns under the suite's config names ("" = not a cell).
  const std::map<std::string, std::string> Table3Config = {
      {"nomod", "poly-nomod"},
      {"withmod", "poly"},
      {"complete", "complete"},
      {"dce-rounds", ""},
      {"intra-only", "intra-only"}};
  GoldenGrid G;
  for (const auto &[Program, Values] : Table2.Rows)
    for (size_t C = 0; C != Values.size(); ++C)
      G[{Program, Table2.Columns[C]}] = static_cast<unsigned>(Values[C]);
  for (const auto &[Program, Values] : Table3.Rows) {
    for (size_t C = 0; C != Values.size(); ++C) {
      auto It = Table3Config.find(Table3.Columns[C]);
      if (It == Table3Config.end()) {
        Error = "table3: unknown column '" + Table3.Columns[C] + "'";
        return std::nullopt;
      }
      if (It->second.empty())
        continue;
      auto [Slot, Inserted] =
          G.insert({{Program, It->second}, static_cast<unsigned>(Values[C])});
      if (!Inserted && Slot->second != static_cast<unsigned>(Values[C])) {
        Error = "table3 " + Program + "/" + Table3.Columns[C] +
                " disagrees with table2 " + It->second;
        return std::nullopt;
      }
    }
  }
  return G;
}

static std::optional<GoldenTable> readTable(const std::string &Path,
                                            std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read " + Path;
    return std::nullopt;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::optional<GoldenTable> T = parseGoldenTable(Buf.str(), Error);
  if (!T)
    Error = Path + ": " + Error;
  return T;
}

std::optional<GoldenGrid> loadGoldenGrid(const std::string &GoldenDir,
                                         std::string &Error) {
  std::optional<GoldenTable> T2 = readTable(GoldenDir + "/table2.golden", Error);
  if (!T2)
    return std::nullopt;
  std::optional<GoldenTable> T3 = readTable(GoldenDir + "/table3.golden", Error);
  if (!T3)
    return std::nullopt;
  return goldenGridFrom(*T2, *T3, Error);
}

std::string checkCell(const SuiteCell &Cell, const GoldenGrid &Golden) {
  std::string Where = Cell.Program + "/" + Cell.Config;
  if (!Cell.Ok)
    return Where + ": analysis failed";
  auto It = Golden.find({Cell.Program, Cell.Config});
  if (It == Golden.end())
    return Where + ": no golden value";
  if (It->second != Cell.SubstitutedConstants)
    return Where + ": substituted " + std::to_string(Cell.SubstitutedConstants) +
           ", golden " + std::to_string(It->second);
  return "";
}

std::string checkGridBatch(const SuiteRunResult &Batch,
                           const GoldenGrid &Golden, size_t &Failed) {
  Failed = 0;
  std::string First;
  for (const SuiteCell &Cell : Batch.Cells) {
    std::string Why = checkCell(Cell, Golden);
    if (Why.empty())
      continue;
    ++Failed;
    if (First.empty())
      First = Why;
  }
  if (Batch.Cells.size() != Golden.size()) {
    ++Failed;
    if (First.empty())
      First = "batch has " + std::to_string(Batch.Cells.size()) +
              " cells, golden grid " + std::to_string(Golden.size());
  }
  return First;
}

std::string checkAnalyzeReply(const std::string &Reply,
                              const std::string &WantOutput,
                              std::optional<unsigned> WantSubstituted) {
  std::string Error;
  std::optional<JsonValue> Doc = parseJson(Reply, Error);
  if (!Doc)
    return "unparseable reply: " + Error;
  if (!Doc->boolOr("ok", false)) {
    const JsonValue *Err = Doc->find("error");
    return "error reply: " + (Err ? Err->strOr("kind", "?") + " " +
                                        Err->strOr("message", "")
                                  : std::string("?"));
  }
  const JsonValue *Result = Doc->find("result");
  if (!Result || !Result->isObject())
    return "ok reply without a result object";
  const JsonValue *Output = Result->find("output");
  if (!Output || !Output->isString())
    return "reply without output";
  if (Output->str() != WantOutput)
    return "output differs from the one-shot local run";
  if (WantSubstituted) {
    const JsonValue *Subst = Result->find("substituted");
    if (!Subst || !Subst->isInt() ||
        Subst->integer() != static_cast<int64_t>(*WantSubstituted))
      return "substituted differs from golden " +
             std::to_string(*WantSubstituted);
  }
  return "";
}

CampaignOutcome outcomeOf(const FuzzResult &R) {
  return {R.Iterations, R.MutantsInvalid, R.MutantsRetained, R.CorpusSize,
          R.FeatureBits};
}

std::string checkCampaign(const FuzzResult &R, unsigned Runs,
                          const std::optional<CampaignOutcome> &Previous) {
  if (!R.Failures.empty())
    return "fuzz failure " + R.Failures.front().Kind + " (" +
           R.Failures.front().Config + "): " + R.Failures.front().Detail;
  if (R.Iterations != Runs)
    return "iterations " + std::to_string(R.Iterations) + " != runs " +
           std::to_string(Runs);
  if (Previous && !(*Previous == outcomeOf(R)))
    return "campaign outcome differs between repetitions of one seed "
           "(feature bits " +
           std::to_string(Previous->FeatureBits) + " vs " +
           std::to_string(R.FeatureBits) + ", corpus " +
           std::to_string(Previous->CorpusSize) + " vs " +
           std::to_string(R.CorpusSize) + ")";
  return "";
}

std::string checkCorpusReplay(const FuzzResult &R, size_t Entries,
                              const std::optional<CampaignOutcome> &Previous) {
  std::string Why = checkCampaign(R, 0, Previous);
  if (Why.empty() && R.CorpusSize != Entries)
    Why = "corpus size " + std::to_string(R.CorpusSize) + " != " +
          std::to_string(Entries) + " entries written";
  return Why;
}

} // namespace perfbench
