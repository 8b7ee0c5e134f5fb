// Order statistics over latency samples (nanoseconds).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The sample at quantile q in [0,1] (nearest rank); reorders `v`.
/// 0 for an empty vector.
template <typename T>
double Quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(v.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double Median(std::vector<T> v) {
  return Quantile(v, 0.5);
}

}  // namespace perfbench
