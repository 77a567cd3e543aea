//===- serve/Render.cpp - Canonical analysis report text ------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Render.h"

#include "ipcp/AnalysisConfig.h"

#include <sstream>

using namespace ipcp;

std::string ipcp::renderAnalysisReport(const PipelineOptions &Opts,
                                       const PipelineResult &Result,
                                       const ReportOptions &Report) {
  std::ostringstream OS;
  if (Report.Quiet) {
    OS << Result.SubstitutedConstants << '\n';
    return OS.str();
  }

  OS << "jump function: " << configLabel(Opts) << "\n";
  OS << "constants substituted: " << Result.SubstitutedConstants << "\n";
  if (Opts.CompletePropagation)
    OS << "dead-code rounds: " << Result.DceRounds << " (folded "
       << Result.FoldedBranches << " branches)\n";

  if (Report.Stats) {
    const JumpFunctionStats &S = Result.JfStats;
    OS << "stats:\n"
       << "  forward jump functions: " << S.NumForward << " ("
       << S.NumForwardConst << " const, " << S.NumForwardPassThrough
       << " pass-through, " << S.NumForwardPoly << " polynomial, "
       << S.NumForwardBottom << " bottom)\n"
       << "  avg polynomial support: " << S.avgPolySupport() << " (max "
       << S.MaxPolySupport << ")\n"
       << "  return jump functions: " << S.NumReturn << " ("
       << S.NumReturnConst << " const, " << S.NumReturnPoly
       << " polynomial, " << S.NumReturnBottom << " bottom)\n"
       // The value-context memo counters are deliberately absent: they
       // are warmth-dependent (a warm session's shared memo hits more
       // than a cold run's), and a rendered report must be byte-
       // identical between local and served, cold and warm. Memo
       // effectiveness is reported where warmth is the point: the
       // server's `stats` reply and the driver's suite summary.
       << "  solver: " << Result.SolverProcVisits << " visits, "
       << Result.SolverJfEvaluations << " evaluations, "
       << Result.SolverCellLowerings << " cell lowerings\n"
       << "  constant prints: " << Result.ConstantPrints << "\n"
       << "  known-but-irrelevant globals (Metzger-Stroud): "
       << Result.KnownButIrrelevant << "\n";
    // Precision-tier lines appear only under their flags, so reports of
    // pre-precision configurations stay byte-identical.
    if (Opts.FlowSensitiveAlias)
      OS << "  alias points refined: " << Result.AliasPointsRefined << "\n";
    if (Opts.OptimisticVn)
      OS << "  optimistic GVN phi merges: " << Result.GvnPhiMerges << "\n";
    if (Opts.CopyPropagation)
      OS << "  copy loads resolved: " << Result.CopyLoadsResolved << "\n";
  }

  for (size_t P = 0; P != Result.Constants.size(); ++P) {
    if (Result.Constants[P].empty())
      continue;
    OS << "CONSTANTS(" << Result.ProcNames[P] << ") = {";
    bool First = true;
    for (const auto &[Name, Value] : Result.Constants[P]) {
      if (!First)
        OS << ", ";
      First = false;
      OS << "(" << Name << ", " << Value << ")";
    }
    OS << "}\n";
  }
  if (!Result.NeverCalled.empty()) {
    OS << "never invoked:";
    for (const std::string &Name : Result.NeverCalled)
      OS << ' ' << Name;
    OS << '\n';
  }

  if (Report.EmitSource)
    OS << "---- transformed source ----\n" << Result.TransformedSource;
  return OS.str();
}

std::string ipcp::renderConstantsFile(const PipelineResult &Result) {
  std::ostringstream OS;
  for (size_t P = 0; P != Result.Constants.size(); ++P) {
    OS << Result.ProcNames[P];
    for (const auto &[Name, Value] : Result.Constants[P])
      OS << ' ' << Name << '=' << Value;
    OS << '\n';
  }
  return OS.str();
}
