//===- perfbench/src/Stats.h - Sample statistics for the benchmark -------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The order statistics every benchmark metric is reported with: the
/// median, and the tail — the highest percentile of a fixed ladder that
/// still has at least ten samples beyond it, stated with its sample count
/// so a reader knows how much data the tail rests on. Also the open-loop
/// latency rule: a request is timed from when it was *due*, so a stalled
/// generator charges its stall to the requests it delayed, and the
/// generator's own lateness is reported beside it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of \p Samples (mean of the middle two for an even count); 0 for
/// an empty vector.
double median(std::vector<double> Samples);

/// Nearest-rank percentile \p P (0 < P <= 100) of \p Samples; 0 for an
/// empty vector.
double percentile(std::vector<double> Samples, double P);

/// A tail statistic with the data it rests on.
struct Tail {
  double Percentile = 50; ///< Which percentile was chosen.
  double Value = 0;       ///< Median over the windows of that percentile.
  size_t Samples = 0;     ///< How many samples there were.
  size_t Beyond = 0;      ///< How many samples lie strictly above its rank.
  size_t Windows = 1;     ///< Consecutive windows the value is a median of.
};

/// The percentiles a tail may be reported at, in increasing order. Coarse
/// on purpose: a workload's sample count should stay on one rung across
/// machine speeds, so a faster build is compared at the same percentile.
inline constexpr double TailLadder[] = {50, 90, 99};

/// Samples strictly beyond the nearest-rank position of percentile \p P
/// in a set of \p N samples.
size_t samplesBeyond(size_t N, double P);

/// The highest ladder percentile with at least \p MinBeyond samples
/// beyond it. With too few samples for any, falls back to the median
/// (Beyond then tells the reader it is under-supported). \p Samples are
/// in arrival order; the value is the median of that percentile over as
/// many consecutive windows as still have \p MinBeyond samples beyond it
/// each, so one stalled stretch of a run does not decide its tail.
Tail tailOf(const std::vector<double> &Samples, size_t MinBeyond = 10);

/// One open-loop request's timeline, in milliseconds since the start of
/// the schedule.
struct OpenLoopTimes {
  double DueMs = 0;  ///< When the schedule said to send it.
  double SentMs = 0; ///< When the generator actually sent it.
  double DoneMs = 0; ///< When its reply arrived.
};

/// Latency charged to the request: done - due (never done - sent).
inline double latencyFromDue(const OpenLoopTimes &T) {
  return T.DoneMs - T.DueMs;
}

/// How late the generator sent the request (>= 0 up to clock jitter).
inline double generatorLateness(const OpenLoopTimes &T) {
  return T.SentMs - T.DueMs;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
