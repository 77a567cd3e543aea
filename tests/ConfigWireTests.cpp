//===- tests/ConfigWireTests.cpp - Configuration wire-format snapshot -----===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
// Pins every external spelling of an analyzer configuration: the serve
// request's `config` object, the serve cache key, the report header
// line, and the driver flags.
// The configurations are the suite's (Table 2 + Table 3), the fuzzer's,
// the default, and each flag set alone. The driver spelling is checked
// end to end: the real binary, given those flags, must print the header
// the renderer produces for the options. Regenerate intentionally with:
//
//   IPCP_REGEN_GOLDEN=1 ./build/tests/ipcp_serve_tests
//       --gtest_filter='ConfigWire.*'
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Render.h"
#include "workloads/SuiteRunner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

using namespace ipcp;

#ifndef IPCP_TEST_GOLDEN_DIR
#define IPCP_TEST_GOLDEN_DIR "tests/golden"
#endif

namespace {

struct NamedConfig {
  std::string Name;
  PipelineOptions Opts;
};

/// The configurations the snapshot covers, in a fixed order.
std::vector<NamedConfig> wireConfigs() {
  std::vector<NamedConfig> Out;
  Out.push_back({"default", PipelineOptions()});
  // Each flag alone, set by hand so the snapshot does not depend on any
  // config list the code under test declares.
  const std::pair<const char *, std::function<void(PipelineOptions &)>>
      Alone[] = {
          {"jf=literal", [](PipelineOptions &O) {
             O.Kind = JumpFunctionKind::Literal;
           }},
          {"jf=intra", [](PipelineOptions &O) {
             O.Kind = JumpFunctionKind::IntraConst;
           }},
          {"jf=pass", [](PipelineOptions &O) {
             O.Kind = JumpFunctionKind::PassThrough;
           }},
          {"no-rjf", [](PipelineOptions &O) {
             O.UseReturnJumpFunctions = false;
           }},
          {"no-mod", [](PipelineOptions &O) { O.UseMod = false; }},
          {"complete", [](PipelineOptions &O) {
             O.CompletePropagation = true;
           }},
          {"gsa", [](PipelineOptions &O) { O.UseGatedSsa = true; }},
          {"fsa", [](PipelineOptions &O) { O.FlowSensitiveAlias = true; }},
          {"ogvn", [](PipelineOptions &O) { O.OptimisticVn = true; }},
          {"copy", [](PipelineOptions &O) { O.CopyPropagation = true; }},
          {"intra-only", [](PipelineOptions &O) {
             O.IntraproceduralOnly = true;
           }},
          {"round-robin", [](PipelineOptions &O) {
             O.Strategy = SolverStrategy::RoundRobin;
           }},
          {"binding-graph", [](PipelineOptions &O) {
             O.Strategy = SolverStrategy::BindingGraph;
           }},
      };
  for (const auto &[Name, Set] : Alone) {
    PipelineOptions O;
    Set(O);
    Out.push_back({std::string("alone/") + Name, O});
  }
  for (const SuiteConfig &C : allConfigs())
    Out.push_back({"suite/" + C.Name, C.Opts});
  for (const FuzzConfig &C : fuzzConfigs())
    Out.push_back({"fuzz/" + C.Name, C.Pipeline});
  return Out;
}

/// The driver flags that select \p O, written out by hand (the
/// independent oracle for the driver's parser).
std::string cliOf(const PipelineOptions &O) {
  std::string S;
  auto Add = [&S](const char *Flag) {
    if (!S.empty())
      S += ' ';
    S += Flag;
  };
  switch (O.Kind) {
  case JumpFunctionKind::Literal:
    Add("--jf=literal");
    break;
  case JumpFunctionKind::IntraConst:
    Add("--jf=intra");
    break;
  case JumpFunctionKind::PassThrough:
    Add("--jf=pass");
    break;
  case JumpFunctionKind::Polynomial:
    break;
  }
  if (!O.UseReturnJumpFunctions)
    Add("--no-rjf");
  if (!O.UseMod)
    Add("--no-mod");
  if (O.CompletePropagation)
    Add("--complete");
  if (O.UseGatedSsa)
    Add("--gsa");
  if (O.FlowSensitiveAlias)
    Add("--fsa");
  if (O.OptimisticVn)
    Add("--ogvn");
  if (O.CopyPropagation)
    Add("--copy");
  if (O.IntraproceduralOnly)
    Add("--intra-only");
  if (O.Strategy == SolverStrategy::RoundRobin)
    Add("--round-robin");
  if (O.Strategy == SolverStrategy::BindingGraph)
    Add("--binding-graph");
  return S;
}

JsonValue parseOrFail(const std::string &Text) {
  std::string Error;
  std::optional<JsonValue> V = parseJson(Text, Error);
  EXPECT_TRUE(V.has_value()) << Error << " in: " << Text;
  return V ? *V : JsonValue::object();
}

std::string configMember(const JsonValue &Doc) {
  const JsonValue *Cfg = Doc.find("config");
  EXPECT_NE(nullptr, Cfg);
  return Cfg ? Cfg->dump() : std::string("<missing>");
}

std::string requestConfig(const PipelineOptions &O) {
  ServeRequest Req;
  Req.Id = "w";
  Req.Method = ServeMethod::AnalyzeSource;
  Req.Config = O;
  Req.Source = "proc main()\nend\n";
  std::string Line = serializeServeRequest(Req);

  // The parser must read back the configuration it was handed.
  ServeRequest Back;
  std::string Error;
  EXPECT_TRUE(parseServeRequest(Line, Back, Error)) << Error;
  EXPECT_EQ(configKey(O, ReportOptions()),
            configKey(Back.Config, ReportOptions()));

  JsonValue Doc = parseOrFail(Line);
  const JsonValue *Params = Doc.find("params");
  return Params ? configMember(*Params) : std::string("<missing>");
}

std::string headerLine(const PipelineOptions &O) {
  std::string Report =
      renderAnalysisReport(O, PipelineResult(), ReportOptions());
  return Report.substr(0, Report.find('\n'));
}

std::string renderWire() {
  std::ostringstream OS;
  for (const NamedConfig &C : wireConfigs()) {
    OS << "== " << C.Name << "\n"
       << "cli: " << cliOf(C.Opts) << "\n"
       << "request: " << requestConfig(C.Opts) << "\n"
       << "key: " << configKey(C.Opts, ReportOptions()) << "\n"
       << "header: " << headerLine(C.Opts) << "\n";
  }
  return OS.str();
}

} // namespace

TEST(ConfigWire, SpellingsMatchSnapshot) {
  std::string Got = renderWire();
  std::string Path = std::string(IPCP_TEST_GOLDEN_DIR) + "/config_wire.golden";
  if (std::getenv("IPCP_REGEN_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Got;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In) << "missing golden file " << Path
                  << " (run with IPCP_REGEN_GOLDEN=1 to create it)";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Got)
      << "regenerate intentionally with IPCP_REGEN_GOLDEN=1";
}

#ifdef IPCP_DRIVER_PATH
TEST(ConfigWire, DriverFlagsSelectTheSameConfiguration) {
  for (const NamedConfig &C : wireConfigs()) {
    std::string Cmd = std::string(IPCP_DRIVER_PATH) + " --suite=trfd " +
                      cliOf(C.Opts) + " 2>/dev/null";
    FILE *P = popen(Cmd.c_str(), "r");
    ASSERT_NE(nullptr, P) << Cmd;
    std::string Out;
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
      Out.append(Buf, N);
    EXPECT_EQ(0, pclose(P)) << Cmd;
    EXPECT_EQ(headerLine(C.Opts), Out.substr(0, Out.find('\n')))
        << C.Name << ": " << Cmd;
  }
}
#endif // IPCP_DRIVER_PATH
