#pragma once
// Order statistics for the benchmark's reports.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `v`, interpolating linearly between
/// the two closest ranks (numpy's default method).  Reorders `v`;
/// returns 0 for an empty sample.
template <class T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(v.begin(), v.begin() + lo, v.end());
  const double a = static_cast<double>(v[lo]);
  if (frac == 0.0 || lo + 1 >= v.size()) return a;
  const double b = static_cast<double>(*std::min_element(v.begin() + lo + 1, v.end()));
  return a + frac * (b - a);
}

template <class T>
double median(std::vector<T> v) {
  return quantile(v, 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Mean of the samples in [from, to) of `v` (fractions of its length).
inline double mean_of_span(const std::vector<double>& v, double from,
                           double to) {
  const auto n = static_cast<double>(v.size());
  const auto b = static_cast<std::size_t>(from * n);
  const auto e = static_cast<std::size_t>(to * n);
  return mean(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(b),
                                  v.begin() + static_cast<std::ptrdiff_t>(e)));
}

}  // namespace perfbench
