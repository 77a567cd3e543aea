//===- ipcp/AnalysisConfig.h - One definition of a configuration -*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every external spelling of an analyzer configuration comes from the
/// tables in this header: the driver's flags, the serve protocol's
/// `config` object and cache key, the report header, and the analysis
/// session's jump-function base key. Adding a boolean analysis flag is
/// one AnalysisFlags row (plus the PipelineOptions field and the
/// analysis code it gates); every codec below picks it up.
///
/// A JSON config object carries the whole configuration, every member
/// optional on the way in (absent = default).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_ANALYSISCONFIG_H
#define IPCP_IPCP_ANALYSISCONFIG_H

#include "ipcp/Pipeline.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace ipcp {
class JsonValue;

/// The spelling of one enumerator.
template <class E> struct EnumToken {
  E Value;
  const char *Token;
  /// Driver usage text; only read for solver strategies, whose
  /// non-default values are selected by `--<token>`.
  const char *Help = "";
};

/// `--jf=<token>`, `config.jf`, and the `jf=` key token.
inline constexpr EnumToken<JumpFunctionKind> JumpFunctionKindTokens[] = {
    {JumpFunctionKind::Literal, "literal"},
    {JumpFunctionKind::IntraConst, "intra"},
    {JumpFunctionKind::PassThrough, "pass"},
    {JumpFunctionKind::Polynomial, "poly"},
};

/// `config.strategy` and the `strategy=` key token; the driver spells
/// each non-default strategy `--<token>`.
inline constexpr EnumToken<SolverStrategy> SolverStrategyTokens[] = {
    {SolverStrategy::Worklist, "worklist"},
    {SolverStrategy::RoundRobin, "round-robin", "naive fixpoint strategy"},
    {SolverStrategy::BindingGraph, "binding-graph",
     "binding multi-graph fixpoint strategy"},
};

const char *solverStrategyToken(SolverStrategy S);

/// How a flag appears in a JSON config object.
enum class Wire : uint8_t {
  /// Always written.
  Always,
  /// Written only when set off its default, so documents from before the
  /// flag existed keep their exact bytes.
  ElideDefault,
};

/// One boolean analysis flag. Its default is PipelineOptions' initializer;
/// the driver flag moves it off that default.
struct AnalysisFlag {
  bool PipelineOptions::*Field;
  /// Member name in every JSON config object.
  const char *Json;
  /// Token in the serve cache key (configKey).
  const char *Key;
  /// Driver flag.
  const char *Cli;
  /// Driver usage text.
  const char *Help;
  Wire Policy;
  /// Changes the jump functions built: part of the session's
  /// jump-function base key.
  bool JumpFunctions;
  /// Report-header text when the flag is true / false.
  const char *LabelOn;
  const char *LabelOff;
};

/// In configKey and report-header order.
inline constexpr AnalysisFlag AnalysisFlags[] = {
    {&PipelineOptions::UseReturnJumpFunctions, "rjf", "rjf", "--no-rjf",
     "disable return jump functions", Wire::Always, true, ", return JFs",
     ""},
    {&PipelineOptions::UseMod, "mod", "mod", "--no-mod",
     "drop interprocedural MOD information", Wire::Always, true, ", MOD",
     ", no MOD"},
    {&PipelineOptions::CompletePropagation, "complete", "complete",
     "--complete", "iterate with dead-code elimination", Wire::Always, false,
     ", complete", ""},
    {&PipelineOptions::UseGatedSsa, "gsa", "gsa", "--gsa",
     "gated-SSA jump functions (no DCE iteration)", Wire::Always, true,
     ", gated SSA", ""},
    {&PipelineOptions::FlowSensitiveAlias, "fsa", "fsa", "--fsa",
     "flow-sensitive by-reference aliasing", Wire::ElideDefault, true,
     ", flow-sensitive aliasing", ""},
    {&PipelineOptions::OptimisticVn, "ogvn", "ogvn", "--ogvn",
     "optimistic (iterative) value numbering", Wire::ElideDefault, true,
     ", optimistic GVN", ""},
    {&PipelineOptions::CopyPropagation, "copy", "copy", "--copy",
     "interprocedural copy propagation (copy lattice)", Wire::ElideDefault,
     true, ", copy propagation", ""},
    {&PipelineOptions::IntraproceduralOnly, "intra_only", "intra",
     "--intra-only", "purely intraprocedural propagation", Wire::Always,
     false, " [intraprocedural only]", ""},
};

/// The serve request's `config` object: the whole configuration.
JsonValue configJson(const PipelineOptions &O);

/// Strict decoder of a `config` object: unknown members and ill-typed
/// values fail with a diagnostic. Members absent from \p Cfg leave
/// \p O's value.
bool parseConfigJson(const JsonValue &Cfg, PipelineOptions &O,
                     std::string &Error);

/// The configuration half of the serve cache key, every field in table
/// order: "jf=poly rjf=1 mod=1 ... intra=0 strategy=worklist".
std::string configKeyOf(const PipelineOptions &O);

/// The report header's text after "jump function: ".
std::string configLabel(const PipelineOptions &O);

/// The JumpFunctions flags of \p O as a bit set (the kind excluded): the
/// analysis session's jump-function base key.
unsigned jumpFunctionFlagBits(const JumpFunctionOptions &O);

/// Result of offering one driver argument to applyConfigFlag.
enum class ConfigFlag : uint8_t { NotConfig, Applied, BadValue };

/// Applies \p Arg to \p O when it is a configuration flag: `--jf=<kind>`,
/// an AnalysisFlags spelling, or `--<strategy>`. BadValue fills \p Error.
ConfigFlag applyConfigFlag(std::string_view Arg, PipelineOptions &O,
                           std::string &Error);

/// The configuration built from space-separated driver flags ("" = the
/// default). For the named configuration lists; a bad spelling there is
/// a programming error.
PipelineOptions optionsFromFlags(std::string_view Flags);

/// Driver usage lines for the configuration flags.
std::string configFlagsUsage();

} // namespace ipcp

#endif // IPCP_IPCP_ANALYSISCONFIG_H
