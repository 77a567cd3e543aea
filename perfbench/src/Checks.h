//===- perfbench/src/Checks.h - Output checks of the benchmark -----------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every output check the benchmark applies. Each compares deterministic
/// fields only — substituted-constant counts, rendered report bytes,
/// fuzz campaign outcomes — against references that do not come from
/// the timed code path: the checked-in golden tables (read, never
/// written), one-shot local pipeline runs, and the campaign's own
/// repeat. Timings, memo counters and cache statistics never enter a
/// check. Each function returns an empty string when the output is
/// correct and a one-line reason otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "fuzz/Fuzzer.h"
#include "workloads/SuiteRunner.h"

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// A parsed golden table: a "# program <col>..." header line and one
/// "<program> <n>..." row per program.
struct GoldenTable {
  std::vector<std::string> Columns;
  std::vector<std::pair<std::string, std::vector<long>>> Rows;
};

/// Parses the golden-table format of tests/golden/*.golden.
std::optional<GoldenTable> parseGoldenTable(std::string_view Text,
                                            std::string &Error);

/// Expected substituted-constant count per (program, suite config).
using GoldenGrid = std::map<std::pair<std::string, std::string>, unsigned>;

/// Joins table2.golden and table3.golden into the 15 x 13 grid keyed by
/// the suite's config names. Table 3's "withmod" column must agree with
/// Table 2's "poly" (they are one configuration); "dce-rounds" is not a
/// substituted count and is skipped.
std::optional<GoldenGrid> goldenGridFrom(const GoldenTable &Table2,
                                         const GoldenTable &Table3,
                                         std::string &Error);

/// Reads and joins the two golden files under \p GoldenDir.
std::optional<GoldenGrid> loadGoldenGrid(const std::string &GoldenDir,
                                         std::string &Error);

/// Checks one cell against the golden grid.
std::string checkCell(const ipcp::SuiteCell &Cell, const GoldenGrid &Golden);

/// Checks every cell of a batch; \p Failed receives the failing-cell
/// count. Returns the first failure's reason.
std::string checkGridBatch(const ipcp::SuiteRunResult &Batch,
                           const GoldenGrid &Golden, size_t &Failed);

/// Checks one analyze-source reply line: an ok reply whose output is
/// byte-identical to \p WantOutput and, when given, whose substituted
/// count equals \p WantSubstituted.
std::string checkAnalyzeReply(const std::string &Reply,
                              const std::string &WantOutput,
                              std::optional<unsigned> WantSubstituted);

/// The deterministic outcome of one fuzz campaign.
struct CampaignOutcome {
  unsigned Iterations = 0;
  unsigned MutantsInvalid = 0;
  unsigned MutantsRetained = 0;
  size_t CorpusSize = 0;
  size_t FeatureBits = 0;

  bool operator==(const CampaignOutcome &) const = default;
};

CampaignOutcome outcomeOf(const ipcp::FuzzResult &R);

/// Checks one campaign: no failures, Iterations == \p Runs, and — when
/// a previous repetition of the same seed is given — an identical
/// outcome.
std::string checkCampaign(const ipcp::FuzzResult &R, unsigned Runs,
                          const std::optional<CampaignOutcome> &Previous);

/// Checks one corpus-replay campaign (Runs = 0, no generated seed
/// programs): checkCampaign, and every one of the \p Entries programs
/// written to the corpus directory was loaded.
std::string checkCorpusReplay(const ipcp::FuzzResult &R, size_t Entries,
                              const std::optional<CampaignOutcome> &Previous);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
