// Numerically stable streaming mean/variance (Welford's algorithm).
// Used to aggregate reward-variable observations across replications.
#pragma once

#include <cstddef>

namespace vcpusim::stats {

class Welford {
 public:
  /// Fold one observation into the running statistics.
  void add(double x) noexcept;

  /// Merge another accumulator (parallel/Chan et al. combination).
  void merge(const Welford& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }

  /// Unbiased sample variance; 0 for n < 2.
  double sample_variance() const noexcept;

  /// Sample standard deviation.
  double stddev() const noexcept;

  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

  void reset() noexcept { *this = Welford{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace vcpusim::stats
