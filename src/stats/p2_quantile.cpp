#include "stats/p2_quantile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vcpusim::stats {

P2Quantile::P2Quantile(double q) : q_(q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("P2Quantile: q must be in (0, 1)");
  }
  desired_ = {1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0};
  increments_ = {0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0};
}

double P2Quantile::exact_small_sample() const {
  std::array<double, 5> sorted = heights_;
  // count_ < 5 here (see value()); the clamp lets GCC 12 see that the
  // range fits, so it stops warning -Warray-bounds.
  std::sort(sorted.begin(),
            sorted.begin() + static_cast<long>(std::min<std::size_t>(
                                 count_, sorted.size())));
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q_ * static_cast<double>(count_))) ;
  return sorted[std::min(count_ - 1, rank > 0 ? rank - 1 : 0)];
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_++] = x;
    if (count_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (int i = 0; i < 5; ++i) positions_[i] = i + 1;
    }
    return;
  }
  ++count_;

  // Locate the cell containing x and update extreme heights.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[static_cast<std::size_t>(k) + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[static_cast<std::size_t>(i)] += 1;
  for (int i = 0; i < 5; ++i) {
    desired_[static_cast<std::size_t>(i)] +=
        increments_[static_cast<std::size_t>(i)];
  }

  // Adjust interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const double d = desired_[ui] - positions_[ui];
    const double below = positions_[ui] - positions_[ui - 1];
    const double above = positions_[ui + 1] - positions_[ui];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      // Piecewise-parabolic prediction.
      const double np = positions_[ui];
      const double nm = positions_[ui - 1];
      const double nx = positions_[ui + 1];
      const double qp = heights_[ui];
      const double qm = heights_[ui - 1];
      const double qx = heights_[ui + 1];
      double candidate =
          qp + sign / (nx - nm) *
                   ((np - nm + sign) * (qx - qp) / (nx - np) +
                    (nx - np - sign) * (qp - qm) / (np - nm));
      if (!(qm < candidate && candidate < qx)) {
        // Fall back to linear prediction.
        if (sign > 0) {
          candidate = qp + (qx - qp) / (nx - np);
        } else {
          candidate = qp - (qm - qp) / (nm - np);
        }
      }
      heights_[ui] = candidate;
      positions_[ui] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (count_ < 5) return exact_small_sample();
  return heights_[2];
}

}  // namespace vcpusim::stats
