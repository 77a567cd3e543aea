//===- serve/Protocol.cpp - ipcp-serve wire protocol ----------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "ipcp/AnalysisConfig.h"

#include <cstring>

using namespace ipcp;

const char *ipcp::serveMethodName(ServeMethod M) {
  switch (M) {
  case ServeMethod::AnalyzeSource:
    return "analyze-source";
  case ServeMethod::AnalyzeSuiteProgram:
    return "analyze-suite-program";
  case ServeMethod::Validate:
    return "validate";
  case ServeMethod::FuzzReplay:
    return "fuzz-replay";
  case ServeMethod::Stats:
    return "stats";
  case ServeMethod::Shutdown:
    return "shutdown";
  }
  return "?";
}

const char *ipcp::serveErrorKindName(ServeErrorKind K) {
  switch (K) {
  case ServeErrorKind::Malformed:
    return "malformed";
  case ServeErrorKind::Overloaded:
    return "overloaded";
  case ServeErrorKind::Deadline:
    return "deadline";
  case ServeErrorKind::ShuttingDown:
    return "shutting-down";
  case ServeErrorKind::AnalysisError:
    return "analysis-error";
  case ServeErrorKind::Internal:
    return "internal";
  }
  return "?";
}

namespace {

bool parseMethod(const std::string &Name, ServeMethod &Out) {
  for (ServeMethod M :
       {ServeMethod::AnalyzeSource, ServeMethod::AnalyzeSuiteProgram,
        ServeMethod::Validate, ServeMethod::FuzzReplay, ServeMethod::Stats,
        ServeMethod::Shutdown})
    if (Name == serveMethodName(M)) {
      Out = M;
      return true;
    }
  return false;
}

bool parseReport(const JsonValue &Rep, ReportOptions &Out,
                 std::string &Error) {
  if (!Rep.isObject()) {
    Error = "'report' must be an object";
    return false;
  }
  for (const auto &[Key, V] : Rep.members()) {
    if (!V.isBool()) {
      Error = "report." + Key + " must be a boolean";
      return false;
    }
    if (Key == "quiet")
      Out.Quiet = V.boolean();
    else if (Key == "stats")
      Out.Stats = V.boolean();
    else if (Key == "emit_source")
      Out.EmitSource = V.boolean();
    else {
      Error = "unknown report field '" + Key + "'";
      return false;
    }
  }
  return true;
}

} // namespace

bool ipcp::parseServeRequest(const std::string &Line, ServeRequest &Out,
                             std::string &Error) {
  std::optional<JsonValue> Doc = parseJson(Line, Error);
  if (!Doc) {
    Error = "bad JSON: " + Error;
    return false;
  }
  if (!Doc->isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  // The id is extracted before any validation so even a bad request's
  // error reply carries it.
  Out.Id = Doc->strOr("id", "");

  const JsonValue *Method = Doc->find("method");
  if (!Method || !Method->isString()) {
    Error = "missing 'method'";
    return false;
  }
  if (!parseMethod(Method->str(), Out.Method)) {
    Error = "unknown method '" + Method->str() + "'";
    return false;
  }

  const JsonValue *Params = Doc->find("params");
  JsonValue Empty = JsonValue::object();
  if (!Params)
    Params = &Empty;
  if (!Params->isObject()) {
    Error = "'params' must be an object";
    return false;
  }

  if (const JsonValue *D = Params->find("deadline_ms")) {
    if (D->kind() != JsonValue::Kind::Int &&
        D->kind() != JsonValue::Kind::Double) {
      Error = "params.deadline_ms must be a number";
      return false;
    }
    Out.DeadlineMs = D->number();
  }

  switch (Out.Method) {
  case ServeMethod::AnalyzeSource:
  case ServeMethod::Validate: {
    const JsonValue *Src = Params->find("source");
    if (!Src || !Src->isString()) {
      Error = "missing params.source";
      return false;
    }
    Out.Source = Src->str();
    break;
  }
  case ServeMethod::AnalyzeSuiteProgram: {
    const JsonValue *Prog = Params->find("program");
    if (!Prog || !Prog->isString()) {
      Error = "missing params.program";
      return false;
    }
    Out.SuiteProgram = Prog->str();
    break;
  }
  case ServeMethod::FuzzReplay: {
    const JsonValue *E = Params->find("entry");
    if (!E || !E->isString()) {
      Error = "missing params.entry";
      return false;
    }
    Out.Source = E->str();
    break;
  }
  case ServeMethod::Stats:
  case ServeMethod::Shutdown:
    break;
  }

  if (const JsonValue *Cfg = Params->find("config"))
    if (!parseConfigJson(*Cfg, Out.Config, Error))
      return false;
  if (const JsonValue *Rep = Params->find("report"))
    if (!parseReport(*Rep, Out.Report, Error))
      return false;
  if (const JsonValue *Seed = Params->find("read_seed")) {
    if (!Seed->isInt() || Seed->integer() < 0) {
      Error = "params.read_seed must be a non-negative integer";
      return false;
    }
    Out.ReadSeed = static_cast<uint64_t>(Seed->integer());
  }
  if (const JsonValue *Steps = Params->find("max_steps")) {
    if (!Steps->isInt() || Steps->integer() < 0) {
      Error = "params.max_steps must be a non-negative integer";
      return false;
    }
    Out.MaxSteps = static_cast<uint64_t>(Steps->integer());
  }
  if (const JsonValue *Exec = Params->find("exec")) {
    std::string Name = Exec->isString() ? Exec->str() : "";
    if (auto E = parseExecEngineName(Name)) {
      Out.Exec = *E;
    } else {
      Error = "params.exec must be vm or ast";
      return false;
    }
  }
  return true;
}

std::string ipcp::configKey(const PipelineOptions &Opts,
                            const ReportOptions &R) {
  std::string Key = configKeyOf(Opts);
  Key += " quiet=";
  Key += R.Quiet ? '1' : '0';
  Key += " stats=";
  Key += R.Stats ? '1' : '0';
  Key += " emit=";
  Key += R.EmitSource ? '1' : '0';
  return Key;
}

uint64_t ipcp::contentHash(const std::string &Source,
                           const std::string &CfgKey) {
  // FNV-1a over 8-byte blocks with a byte-wise tail. The hash is an
  // in-memory cache/coalescing key only — its exact values are never
  // serialized — so block mixing (8x fewer multiplies than the byte-wise
  // form) is free to change them.
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](const std::string &S) {
    const char *P = S.data();
    size_t N = S.size();
    while (N >= 8) {
      uint64_t Block;
      std::memcpy(&Block, P, 8);
      H = (H ^ Block) * 0x100000001b3ull;
      P += 8;
      N -= 8;
    }
    for (; N; --N, ++P) {
      H ^= static_cast<unsigned char>(*P);
      H *= 0x100000001b3ull;
    }
    // Separator so ("ab","c") and ("a","bc") differ; mixing the length
    // keeps blocks from aliasing across the boundary.
    H ^= 0xff;
    H = (H ^ S.size()) * 0x100000001b3ull;
  };
  Mix(Source);
  Mix(CfgKey);
  return H;
}

uint64_t ipcp::requestContentKey(const ServeRequest &Req) {
  std::string K = Req.Method == ServeMethod::AnalyzeSource ||
                          Req.Method == ServeMethod::AnalyzeSuiteProgram
                      ? "analyze"
                      : serveMethodName(Req.Method);
  K += '\n';
  K += configKey(Req.Config, Req.Report);
  K += "\nseed=";
  K += std::to_string(Req.ReadSeed);
  K += " steps=";
  K += std::to_string(Req.MaxSteps);
  K += " exec=";
  K += execEngineName(Req.Exec);
  return contentHash(Req.Source, K);
}

std::string ipcp::makeOkReply(const std::string &Id, JsonValue Result) {
  JsonValue Reply = JsonValue::object();
  Reply.set("id", Id);
  Reply.set("ok", JsonValue(true));
  Reply.set("result", std::move(Result));
  return Reply.dump();
}

std::string ipcp::makeErrorReply(const std::string &Id, ServeErrorKind Kind,
                                 const std::string &Message) {
  JsonValue Err = JsonValue::object();
  Err.set("kind", serveErrorKindName(Kind));
  Err.set("message", Message);
  JsonValue Reply = JsonValue::object();
  Reply.set("id", Id);
  Reply.set("ok", JsonValue(false));
  Reply.set("error", std::move(Err));
  return Reply.dump();
}

std::string ipcp::serializeServeRequest(const ServeRequest &Req) {
  JsonValue Params = JsonValue::object();
  switch (Req.Method) {
  case ServeMethod::AnalyzeSource:
  case ServeMethod::Validate:
    Params.set("source", Req.Source);
    break;
  case ServeMethod::AnalyzeSuiteProgram:
    Params.set("program", Req.SuiteProgram);
    break;
  case ServeMethod::FuzzReplay:
    Params.set("entry", Req.Source);
    break;
  case ServeMethod::Stats:
  case ServeMethod::Shutdown:
    break;
  }

  bool NeedsConfig = Req.Method == ServeMethod::AnalyzeSource ||
                     Req.Method == ServeMethod::AnalyzeSuiteProgram ||
                     Req.Method == ServeMethod::Validate;
  if (NeedsConfig) {
    Params.set("config", configJson(Req.Config));

    JsonValue Rep = JsonValue::object();
    Rep.set("quiet", JsonValue(Req.Report.Quiet));
    Rep.set("stats", JsonValue(Req.Report.Stats));
    Rep.set("emit_source", JsonValue(Req.Report.EmitSource));
    Params.set("report", std::move(Rep));
  }
  if (Req.DeadlineMs != 0)
    Params.set("deadline_ms", JsonValue(Req.DeadlineMs));
  if (Req.Method == ServeMethod::Validate) {
    Params.set("read_seed", JsonValue(Req.ReadSeed));
    if (Req.MaxSteps)
      Params.set("max_steps", JsonValue(Req.MaxSteps));
  }
  // The VM default is elided so pre-engine-selector request lines stay
  // byte-identical.
  if ((Req.Method == ServeMethod::Validate ||
       Req.Method == ServeMethod::FuzzReplay) &&
      Req.Exec != ExecEngine::Vm)
    Params.set("exec", execEngineName(Req.Exec));

  JsonValue Doc = JsonValue::object();
  Doc.set("id", Req.Id);
  Doc.set("method", serveMethodName(Req.Method));
  Doc.set("params", std::move(Params));
  return Doc.dump();
}
