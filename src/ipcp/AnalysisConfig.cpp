//===- ipcp/AnalysisConfig.cpp - One definition of a configuration --------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/AnalysisConfig.h"

#include "serve/Json.h"

#include <cassert>
#include <cstddef>

using namespace ipcp;

namespace {

constexpr PipelineOptions Defaults{};

constexpr bool defaultOf(const AnalysisFlag &F) { return Defaults.*F.Field; }

constexpr bool startsWith(const char *S, const char *Prefix) {
  for (; *Prefix; ++S, ++Prefix)
    if (*S != *Prefix)
      return false;
  return true;
}

// A driver flag moves its field off the default, so "--no-" spellings
// must belong to flags that default to true.
static_assert([] {
  for (const AnalysisFlag &F : AnalysisFlags)
    if (startsWith(F.Cli, "--no-") != defaultOf(F))
      return false;
  return true;
}());

template <class E, size_t N>
const char *tokenOf(const EnumToken<E> (&Table)[N], E V) {
  for (const EnumToken<E> &T : Table)
    if (T.Value == V)
      return T.Token;
  return "?";
}

template <class E, size_t N>
bool parseToken(const EnumToken<E> (&Table)[N], std::string_view S, E &Out) {
  for (const EnumToken<E> &T : Table)
    if (S == T.Token) {
      Out = T.Value;
      return true;
    }
  return false;
}

/// "a|b|c" over a token table, for diagnostics and usage.
template <class E, size_t N>
std::string alternatives(const EnumToken<E> (&Table)[N]) {
  std::string S;
  for (const EnumToken<E> &T : Table)
    S += (S.empty() ? "" : "|") + std::string(T.Token);
  return S;
}

} // namespace

const char *ipcp::solverStrategyToken(SolverStrategy S) {
  return tokenOf(SolverStrategyTokens, S);
}

JsonValue ipcp::configJson(const PipelineOptions &O) {
  JsonValue Cfg = JsonValue::object();
  Cfg.set("jf", tokenOf(JumpFunctionKindTokens, O.Kind));
  for (const AnalysisFlag &F : AnalysisFlags) {
    bool V = O.*F.Field;
    if (F.Policy == Wire::Always || V != defaultOf(F))
      Cfg.set(F.Json, JsonValue(V));
  }
  Cfg.set("strategy", tokenOf(SolverStrategyTokens, O.Strategy));
  return Cfg;
}

bool ipcp::parseConfigJson(const JsonValue &Cfg, PipelineOptions &O,
                           std::string &Error) {
  if (!Cfg.isObject()) {
    Error = "'config' must be an object";
    return false;
  }
  for (const auto &[Key, V] : Cfg.members()) {
    if (Key == "jf") {
      if (!V.isString() ||
          !parseToken(JumpFunctionKindTokens, V.str(), O.Kind)) {
        Error = "config.jf must be " + alternatives(JumpFunctionKindTokens);
        return false;
      }
      continue;
    }
    if (Key == "strategy") {
      if (!V.isString() ||
          !parseToken(SolverStrategyTokens, V.str(), O.Strategy)) {
        Error = "config.strategy must be " +
                alternatives(SolverStrategyTokens);
        return false;
      }
      continue;
    }
    const AnalysisFlag *Flag = nullptr;
    for (const AnalysisFlag &F : AnalysisFlags)
      if (Key == F.Json)
        Flag = &F;
    if (!Flag) {
      Error = "unknown config field '" + Key + "'";
      return false;
    }
    if (!V.isBool()) {
      Error = "config." + Key + " must be a boolean";
      return false;
    }
    O.*Flag->Field = V.boolean();
  }
  return true;
}

std::string ipcp::configKeyOf(const PipelineOptions &O) {
  std::string Key = "jf=";
  Key += tokenOf(JumpFunctionKindTokens, O.Kind);
  for (const AnalysisFlag &F : AnalysisFlags) {
    Key += ' ';
    Key += F.Key;
    Key += O.*F.Field ? "=1" : "=0";
  }
  Key += " strategy=";
  Key += tokenOf(SolverStrategyTokens, O.Strategy);
  return Key;
}

std::string ipcp::configLabel(const PipelineOptions &O) {
  std::string Label = jumpFunctionKindName(O.Kind);
  for (const AnalysisFlag &F : AnalysisFlags)
    Label += O.*F.Field ? F.LabelOn : F.LabelOff;
  return Label;
}

unsigned ipcp::jumpFunctionFlagBits(const JumpFunctionOptions &O) {
  // Widened to a PipelineOptions (other fields default) so the table's
  // member pointers apply.
  PipelineOptions P;
  static_cast<JumpFunctionOptions &>(P) = O;
  unsigned Bits = 0;
  for (const AnalysisFlag &F : AnalysisFlags)
    if (F.JumpFunctions)
      Bits = (Bits << 1) | (P.*F.Field ? 1u : 0u);
  return Bits;
}

ConfigFlag ipcp::applyConfigFlag(std::string_view Arg, PipelineOptions &O,
                                 std::string &Error) {
  if (Arg.substr(0, 5) == "--jf=") {
    if (parseToken(JumpFunctionKindTokens, Arg.substr(5), O.Kind))
      return ConfigFlag::Applied;
    Error = "unknown jump function kind '" + std::string(Arg.substr(5)) + "'";
    return ConfigFlag::BadValue;
  }
  for (const AnalysisFlag &F : AnalysisFlags)
    if (Arg == F.Cli) {
      O.*F.Field = !defaultOf(F);
      return ConfigFlag::Applied;
    }
  for (const EnumToken<SolverStrategy> &T : SolverStrategyTokens)
    if (T.Value != Defaults.Strategy && Arg.substr(0, 2) == "--" &&
        Arg.substr(2) == T.Token) {
      O.Strategy = T.Value;
      return ConfigFlag::Applied;
    }
  return ConfigFlag::NotConfig;
}

PipelineOptions ipcp::optionsFromFlags(std::string_view Flags) {
  PipelineOptions O;
  while (!Flags.empty()) {
    size_t End = Flags.find(' ');
    std::string_view Arg = Flags.substr(0, End);
    std::string Error;
    [[maybe_unused]] ConfigFlag R = applyConfigFlag(Arg, O, Error);
    assert(R == ConfigFlag::Applied && "bad flag in a configuration list");
    Flags = End == std::string_view::npos ? "" : Flags.substr(End + 1);
  }
  return O;
}

std::string ipcp::configFlagsUsage() {
  std::string Out;
  auto Line = [&Out](const std::string &Flag, const char *Help) {
    Out += "  " + Flag;
    Out += std::string(Flag.size() + 2 < 15 ? 15 - Flag.size() : 2, ' ');
    Out += Help;
    Out += '\n';
  };
  Line("--jf=<" + alternatives(JumpFunctionKindTokens) + ">",
       "forward jump function kind");
  for (const AnalysisFlag &F : AnalysisFlags)
    Line(F.Cli, F.Help);
  for (const EnumToken<SolverStrategy> &T : SolverStrategyTokens)
    if (T.Value != Defaults.Strategy)
      Line(std::string("--") + T.Token, T.Help);
  return Out;
}
