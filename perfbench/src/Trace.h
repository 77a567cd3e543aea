//===- perfbench/src/Trace.h - Benchmark-side spans and counts -----------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. Spans are taken in the benchmark's own
/// code around calls into each module's public functions — nothing inside
/// src/ is instrumented. A span has a name ("<layer>.<function>" for a
/// layer boundary, "bench.<what>" for the benchmark's own roots and
/// units), start, end, parent, and the id of the cell / request /
/// candidate it belongs to. Spans and counts stay in memory and are
/// written as a Chrome trace-event file when the run ends.
///
/// A span's self time is its duration minus the part of its interval its
/// children cover. Self time of "bench.*" spans is the unattributed
/// part of the traced work.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char *Name = ""; ///< Static string: "<layer>.<function>".
  uint64_t Id = 0;       ///< Unique, > 0.
  uint64_t Parent = 0;   ///< 0 for a root.
  uint64_t Unit = 0;     ///< Cell / request / candidate id.
  unsigned Thread = 0;   ///< Small per-thread index.
  double StartUs = 0;    ///< Since the tracer was created.
  double EndUs = 0;

  double durationUs() const { return EndUs - StartUs; }
};

class Tracer {
public:
  /// A disabled tracer records nothing; spans over it cost two branches.
  explicit Tracer(bool Enabled);

  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return Enabled; }

  /// Adds \p Value to the named count (no-op when disabled).
  void count(const std::string &Name, double Value);

  std::vector<SpanRecord> spans() const;
  std::map<std::string, double> counts() const;

  /// Writes the first \p MaxSpans recorded spans as complete ("X") trace
  /// events, plus the counts as one counter ("C") event; the cap keeps a
  /// long traced run's file to a few megabytes. Metrics use every span.
  /// Returns false on I/O failure.
  bool writeChromeTrace(const std::string &Path,
                        size_t MaxSpans = 20000) const;

private:
  friend class Span;
  uint64_t nextId();
  double nowUs() const;
  void record(const SpanRecord &S);

  const bool Enabled;
  const std::chrono::steady_clock::time_point Epoch;

  mutable std::mutex Mutex;
  uint64_t LastId = 0;                  // Guarded by Mutex.
  std::vector<SpanRecord> Records;      // Guarded by Mutex.
  std::map<std::string, double> Counts; // Guarded by Mutex.
};

/// RAII span. The parent defaults to the innermost open span on this
/// thread; work handed to another thread names its parent explicitly.
class Span {
public:
  /// Opens a span under this thread's innermost open span, inheriting
  /// its unit id unless \p Unit is non-zero.
  Span(Tracer &T, const char *Name, uint64_t Unit = 0);
  /// Opens a span under \p Parent (a span id from another thread).
  Span(Tracer &T, const char *Name, uint64_t Unit, uint64_t Parent);
  ~Span();

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint64_t id() const { return Rec.Id; }

private:
  Tracer &T;
  SpanRecord Rec;
  const Span *Outer = nullptr;
};

/// Self time of one span, in microseconds: its duration minus the union
/// of its children's intervals (clipped to it).
std::vector<double> selfTimesUs(const std::vector<SpanRecord> &Spans);

/// Aggregates over a set of spans.
struct TraceSummary {
  std::map<std::string, double> SelfUsByName;      ///< Per span name.
  std::map<std::string, double> InclusiveUsByName; ///< Per span name.
  std::map<std::string, double> SelfUsByLayer;     ///< Per layer.
  double TotalSelfUs = 0; ///< Every span's self time (thread time traced).
  /// Self time of "bench.*" spans over TotalSelfUs: the share of traced
  /// thread time no layer span accounts for.
  double unattributedRatio() const;
};

TraceSummary summarize(const std::vector<SpanRecord> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
