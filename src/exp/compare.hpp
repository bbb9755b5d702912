// Common-random-numbers comparison: run K scheduling algorithms against
// identical replication seed streams and report paired-difference
// confidence intervals per metric.
//
// Under CRN every algorithm sees the same workload realizations (the
// seed of replication r depends only on the spec's base_seed and the
// controller's stream mapping, never on the algorithm), so the
// per-replication differences are positively correlated and
// Var(X - Y) = Var(X) + Var(Y) - 2 Cov(X, Y) shrinks below the
// independent-runs variance. The paired CI is the honest interval for
// "is algorithm A better than B on this system"; the unpaired half-width
// is reported alongside to show what the comparison would have cost
// without CRN. See docs/STATISTICS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/table.hpp"

namespace vcpusim::exp {

/// Paired difference of one (algorithm, metric) against the baseline.
struct PairedDelta {
  /// CI of the per-replication differences (algorithm - baseline) under
  /// common random numbers.
  stats::ConfidenceInterval paired;
  /// Half-width the same difference would have from independent runs at
  /// the same replication count: sqrt(hw_a^2 + hw_b^2), i.e. the paired
  /// interval with the covariance term dropped.
  double unpaired_half_width = 0.0;
  /// Sample correlation of the two algorithms' per-replication
  /// observations — the variance-reduction leverage CRN found.
  double correlation = 0.0;
};

struct CompareResult {
  std::string baseline;                    ///< algorithms[0]
  std::vector<std::string> algorithms;     ///< column order, baseline first
  std::vector<std::string> metric_names;
  std::string controller;                  ///< controller that drove the runs
  std::size_t replications = 0;            ///< common replication count
  /// Simulator seed of every replication (identical across algorithms —
  /// the CRN discipline, reproducible via san::replication_seed).
  std::vector<std::uint64_t> seeds;
  std::vector<std::vector<stats::ConfidenceInterval>> estimates;  ///< [algorithm][metric]
  std::vector<std::vector<PairedDelta>> deltas;  ///< [algorithm-1][metric], vs baseline

  const PairedDelta& delta(std::size_t algorithm, std::size_t metric) const;

  /// "algorithm | metric..." per-algorithm estimates.
  Table estimates_table() const;
  /// "algorithm | metric..." paired deltas vs the baseline, each cell
  /// "Δ ±paired (±unpaired indep)".
  Table deltas_table() const;
};

/// Run every algorithm of `algorithms` (registry names; the first is the
/// baseline) over `spec`'s system with identical replication seed
/// streams, sharing one SystemPool across algorithms. The baseline runs
/// under spec.policy / spec.controller and fixes the replication count;
/// the other algorithms are forced to exactly that count so every paired
/// difference is over the full common sample. spec.scheduler is ignored;
/// spec.trace is not attached. spec.metrics, if set, accumulates every
/// algorithm's run-level metrics (and, with spec.profile, its "profile.*"
/// buckets), as consecutive run_point calls into one registry do.
/// Throws std::invalid_argument on fewer than two algorithms or empty
/// metrics.
CompareResult compare_points(const RunSpec& spec,
                             const std::vector<std::string>& algorithms,
                             const std::vector<MetricRequest>& metrics);

}  // namespace vcpusim::exp
