//===- perfbench/src/Trace.cpp - Benchmark-side spans and counts ---------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "serve/Json.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

/// Innermost open span on this thread (only enabled tracers push).
thread_local const Span *Innermost = nullptr;

unsigned threadIndex() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Index = Next.fetch_add(1) + 1;
  return Index;
}

/// The layer of a span name: the text before the first '.'.
std::string layerOf(const char *Name) {
  const char *Dot = std::strchr(Name, '.');
  return Dot ? std::string(Name, Dot) : std::string(Name);
}

} // namespace

Tracer::Tracer(bool Enabled)
    : Enabled(Enabled), Epoch(std::chrono::steady_clock::now()) {}

uint64_t Tracer::nextId() {
  std::lock_guard<std::mutex> Lock(Mutex);
  return ++LastId;
}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void Tracer::record(const SpanRecord &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Records.push_back(S);
}

void Tracer::count(const std::string &Name, double Value) {
  if (!Enabled)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Counts[Name] += Value;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Records;
}

std::map<std::string, double> Tracer::counts() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counts;
}

bool Tracer::writeChromeTrace(const std::string &Path,
                              size_t MaxSpans) const {
  using ipcp::JsonValue;
  JsonValue Events = JsonValue::array();
  std::vector<SpanRecord> Spans = spans();
  Spans.resize(std::min(Spans.size(), MaxSpans));
  for (const SpanRecord &S : Spans) {
    JsonValue E = JsonValue::object();
    E.set("name", JsonValue(S.Name));
    E.set("cat", JsonValue(layerOf(S.Name)));
    E.set("ph", JsonValue("X"));
    E.set("ts", JsonValue(S.StartUs));
    E.set("dur", JsonValue(S.durationUs()));
    E.set("pid", JsonValue(1));
    E.set("tid", JsonValue(S.Thread));
    JsonValue Args = JsonValue::object();
    Args.set("id", JsonValue(S.Id));
    Args.set("parent", JsonValue(S.Parent));
    Args.set("unit", JsonValue(S.Unit));
    E.set("args", std::move(Args));
    Events.push(std::move(E));
  }
  JsonValue CountArgs = JsonValue::object();
  for (const auto &[Name, Value] : counts())
    CountArgs.set(Name, JsonValue(Value));
  JsonValue C = JsonValue::object();
  C.set("name", JsonValue("counts"));
  C.set("ph", JsonValue("C"));
  C.set("ts", JsonValue(nowUs()));
  C.set("pid", JsonValue(1));
  C.set("args", std::move(CountArgs));
  Events.push(std::move(C));

  JsonValue Doc = JsonValue::object();
  Doc.set("traceEvents", std::move(Events));
  Doc.set("displayTimeUnit", JsonValue("ms"));
  std::ofstream Out(Path);
  Out << Doc.dump() << "\n";
  return bool(Out);
}

Span::Span(Tracer &T, const char *Name, uint64_t Unit)
    : Span(T, Name, Unit, Innermost ? Innermost->Rec.Id : 0) {
  if (T.enabled() && !Unit && Outer)
    Rec.Unit = Outer->Rec.Unit;
}

Span::Span(Tracer &T, const char *Name, uint64_t Unit, uint64_t Parent)
    : T(T) {
  if (!T.enabled())
    return;
  Rec.Name = Name;
  Rec.Id = T.nextId();
  Rec.Parent = Parent;
  Rec.Unit = Unit;
  Rec.Thread = threadIndex();
  Outer = Innermost;
  Innermost = this;
  Rec.StartUs = T.nowUs();
}

Span::~Span() {
  if (!T.enabled())
    return;
  Rec.EndUs = T.nowUs();
  Innermost = Outer;
  T.record(Rec);
}

std::vector<double> selfTimesUs(const std::vector<SpanRecord> &Spans) {
  std::unordered_map<uint64_t, size_t> IndexOf;
  for (size_t I = 0; I != Spans.size(); ++I)
    IndexOf[Spans[I].Id] = I;
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const SpanRecord &S : Spans) {
    auto It = IndexOf.find(S.Parent);
    if (It == IndexOf.end())
      continue;
    const SpanRecord &P = Spans[It->second];
    double Lo = std::max(S.StartUs, P.StartUs);
    double Hi = std::min(S.EndUs, P.EndUs);
    if (Hi > Lo)
      Children[It->second].push_back({Lo, Hi});
  }
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    std::vector<std::pair<double, double>> &Iv = Children[I];
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0, RunLo = 0, RunHi = -1;
    for (auto [Lo, Hi] : Iv) {
      if (Lo > RunHi) {
        if (RunHi > RunLo)
          Covered += RunHi - RunLo;
        RunLo = Lo;
        RunHi = Hi;
      } else {
        RunHi = std::max(RunHi, Hi);
      }
    }
    if (RunHi > RunLo)
      Covered += RunHi - RunLo;
    Self[I] = std::max(0.0, Spans[I].durationUs() - Covered);
  }
  return Self;
}

double TraceSummary::unattributedRatio() const {
  auto It = SelfUsByLayer.find("bench");
  double Bench = It == SelfUsByLayer.end() ? 0 : It->second;
  return TotalSelfUs > 0 ? Bench / TotalSelfUs : 0;
}

TraceSummary summarize(const std::vector<SpanRecord> &Spans) {
  TraceSummary S;
  std::vector<double> Self = selfTimesUs(Spans);
  for (size_t I = 0; I != Spans.size(); ++I) {
    S.SelfUsByName[Spans[I].Name] += Self[I];
    S.InclusiveUsByName[Spans[I].Name] += Spans[I].durationUs();
    S.SelfUsByLayer[layerOf(Spans[I].Name)] += Self[I];
    S.TotalSelfUs += Self[I];
  }
  return S;
}

} // namespace perfbench
