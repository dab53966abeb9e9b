// Order statistics for the benchmark's reports. Percentiles are nearest-rank
// over raw samples (no bucketing, so a reported time carries every digit it
// was measured with); quartiles follow Python's
// statistics.quantiles(data, n=4) ("exclusive" method), the rule the spread
// of repeated runs is judged by.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace wallbench {

// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
// q*n samples at or below it. Reorders `v`; 0 for an empty set.
template <typename T>
double percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  idx = std::min(idx, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]);
}

// Median: the middle sample, or the mean of the two middle samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Q1, Q2, Q3 as statistics.quantiles(v, n=4) computes them (exclusive
// method: positions i*(n+1)/4, clamped to the data, linearly interpolated).
// A single sample is its own quartiles.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::array<double, 3> out{0.0, 0.0, 0.0};
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  const long m = ld + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

// Interquartile range as a share of the median (0 when the median is 0).
inline double quartile_spread(const std::vector<double>& v) {
  const std::array<double, 3> q = quartiles(v);
  return q[1] == 0.0 ? 0.0 : (q[2] - q[0]) / std::fabs(q[1]);
}

}  // namespace wallbench
