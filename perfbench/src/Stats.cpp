//===- perfbench/src/Stats.cpp - Sample statistics for the benchmark -----===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

/// 1-based nearest rank of percentile \p P among \p N samples.
static size_t nearestRank(size_t N, double P) {
  // The epsilon keeps exact ranks exact (99.9% of 10000 is 9990, not
  // 9990.000000000002 rounded up).
  size_t Rank = static_cast<size_t>(std::ceil(P * double(N) / 100.0 - 1e-9));
  return std::clamp<size_t>(Rank, 1, N);
}

double percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  return Samples[nearestRank(Samples.size(), P) - 1];
}

size_t samplesBeyond(size_t N, double P) {
  return N == 0 ? 0 : N - nearestRank(N, P);
}

Tail tailOf(const std::vector<double> &Samples, size_t MinBeyond) {
  Tail T;
  const size_t N = Samples.size();
  T.Samples = N;
  for (double P : TailLadder)
    if (P == TailLadder[0] || samplesBeyond(N, P) >= MinBeyond)
      T.Percentile = P;
  T.Beyond = samplesBeyond(N, T.Percentile);
  // Window W of K spans [W*N/K, (W+1)*N/K); the smallest is N/K long.
  T.Windows = std::max<size_t>(1, MinBeyond ? T.Beyond / MinBeyond : 1);
  while (T.Windows > 1 &&
         samplesBeyond(N / T.Windows, T.Percentile) < MinBeyond)
    --T.Windows;
  std::vector<double> PerWindow;
  for (size_t W = 0; W != T.Windows; ++W)
    PerWindow.push_back(percentile(
        std::vector<double>(Samples.begin() + W * N / T.Windows,
                            Samples.begin() + (W + 1) * N / T.Windows),
        T.Percentile));
  T.Value = median(PerWindow);
  return T;
}

} // namespace perfbench
