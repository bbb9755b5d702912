#include "exp/compare.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "exp/pool.hpp"
#include "san/experiment.hpp"
#include "sched/registry.hpp"
#include "stats/welford.hpp"

namespace vcpusim::exp {

const PairedDelta& CompareResult::delta(std::size_t algorithm,
                                        std::size_t metric) const {
  if (algorithm == 0) {
    throw std::out_of_range("CompareResult::delta: baseline has no delta");
  }
  return deltas.at(algorithm - 1).at(metric);
}

namespace {

std::string format_estimate(const stats::ConfidenceInterval& ci) {
  return format_fixed(ci.mean, 4) + " ±" + format_fixed(ci.half_width, 4);
}

/// Reduce an observation matrix to antithetic pair means: rows {2k, 2k+1}
/// are the mirrored halves of one pair and only their mean is an
/// independent sample. A trailing half-dispatched pair is dropped.
std::vector<std::vector<double>> reduce_pairs(
    const std::vector<std::vector<double>>& rows) {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size() / 2);
  for (std::size_t k = 0; k + 1 < rows.size(); k += 2) {
    std::vector<double> mean(rows[k].size());
    for (std::size_t m = 0; m < mean.size(); ++m) {
      mean[m] = 0.5 * (rows[k][m] + rows[k + 1][m]);
    }
    out.push_back(std::move(mean));
  }
  return out;
}

}  // namespace

Table CompareResult::estimates_table() const {
  std::vector<std::string> columns = {"algorithm"};
  columns.insert(columns.end(), metric_names.begin(), metric_names.end());
  Table table(std::move(columns));
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    std::vector<std::string> row = {algorithms[a]};
    for (const auto& ci : estimates[a]) row.push_back(format_estimate(ci));
    table.add_row(std::move(row));
  }
  return table;
}

Table CompareResult::deltas_table() const {
  std::vector<std::string> columns = {"algorithm"};
  for (const auto& name : metric_names) {
    columns.push_back("d(" + name + ") vs " + baseline);
  }
  Table table(std::move(columns));
  for (std::size_t a = 1; a < algorithms.size(); ++a) {
    std::vector<std::string> row = {algorithms[a]};
    for (const auto& d : deltas[a - 1]) {
      row.push_back(format_fixed(d.paired.mean, 4) + " ±" +
                    format_fixed(d.paired.half_width, 4) + " (indep ±" +
                    format_fixed(d.unpaired_half_width, 4) + ")");
    }
    table.add_row(std::move(row));
  }
  return table;
}

CompareResult compare_points(const RunSpec& spec,
                             const std::vector<std::string>& algorithms,
                             const std::vector<MetricRequest>& metrics) {
  if (algorithms.size() < 2) {
    throw std::invalid_argument("compare_points: need at least two algorithms");
  }
  if (metrics.empty()) {
    throw std::invalid_argument("compare_points: no metrics requested");
  }

  CompareResult result;
  result.baseline = algorithms.front();
  result.algorithms = algorithms;
  result.controller = stats::controller_name(spec.controller);
  for (const auto& m : metrics) {
    result.metric_names.push_back(m.label.empty() ? default_label(m) : m.label);
  }

  // One pool for every algorithm: the runs share built systems — a
  // checkout rebinds the slot's scheduler instead of rebuilding the
  // model, exactly like the cells of a sweep row.
  std::unique_ptr<SystemPool> local_pool;
  SystemPool* pool = spec.pool;
  if (pool == nullptr) {
    local_pool = std::make_unique<SystemPool>(spec.system);
    pool = local_pool.get();
  }

  std::vector<stats::ReplicationResult> runs;
  runs.reserve(algorithms.size());
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    RunSpec run_spec = spec;
    run_spec.scheduler = sched::make_factory(algorithms[a]);
    run_spec.pool = pool;
    // Every leg adds its run-level metrics (and profile) to
    // spec.metrics; a trace of interleaved legs would mean nothing.
    run_spec.trace = nullptr;
    run_spec.policy.record_observations = true;
    if (a > 0) {
      // Pin to the baseline's replication count: every paired difference
      // is over the full common sample, and — because the seed of
      // replication r depends only on base_seed and the controller's
      // stream mapping — over identical workload realizations (CRN).
      run_spec.policy.min_replications = runs.front().replications;
      run_spec.policy.max_replications = runs.front().replications;
    }
    runs.push_back(run_point(run_spec, metrics));
  }

  const std::size_t n = runs.front().replications;
  result.replications = n;
  const auto controller = stats::make_controller(spec.controller, spec.policy);
  result.seeds.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    result.seeds.push_back(
        san::replication_seed(spec.base_seed, controller->stream(r).stream));
  }

  result.estimates.resize(algorithms.size());
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    for (const auto& m : runs[a].metrics) result.estimates[a].push_back(m.ci);
  }

  // Paired statistics over the recorded per-replication observations.
  // Under the antithetic controller only pair means are independent
  // samples, so reduce first; the sample count then matches the
  // Welford count behind each run's own intervals.
  const bool antithetic =
      spec.controller == stats::ControllerKind::kAntithetic;
  const auto samples_of = [antithetic](const stats::ReplicationResult& run) {
    return antithetic ? reduce_pairs(run.observations) : run.observations;
  };
  const auto base_obs = samples_of(runs.front());
  for (std::size_t a = 1; a < algorithms.size(); ++a) {
    const auto obs = samples_of(runs[a]);
    if (obs.size() != base_obs.size()) {
      throw std::logic_error(
          "compare_points: replication counts diverged across algorithms");
    }
    std::vector<PairedDelta> row;
    row.reserve(metrics.size());
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      stats::Welford diff;
      stats::Welford lhs;
      stats::Welford rhs;
      for (std::size_t r = 0; r < obs.size(); ++r) {
        diff.add(obs[r][m] - base_obs[r][m]);
        lhs.add(obs[r][m]);
        rhs.add(base_obs[r][m]);
      }
      PairedDelta d;
      d.paired = stats::confidence_interval(diff, spec.policy.confidence);
      // The same interval with the covariance term dropped: both margins
      // carry the same t quantile and sample count, so the independent
      // half-width is the quadrature sum of the per-algorithm ones.
      const auto ci_lhs =
          stats::confidence_interval(lhs, spec.policy.confidence);
      const auto ci_rhs =
          stats::confidence_interval(rhs, spec.policy.confidence);
      d.unpaired_half_width =
          std::sqrt(ci_lhs.half_width * ci_lhs.half_width +
                    ci_rhs.half_width * ci_rhs.half_width);
      // Pearson correlation of the CRN streams (second pass over the
      // stored rows, with the final means).
      double cross = 0.0;
      for (std::size_t r = 0; r < obs.size(); ++r) {
        cross += (obs[r][m] - lhs.mean()) * (base_obs[r][m] - rhs.mean());
      }
      const double denom =
          std::sqrt(lhs.sample_variance() * rhs.sample_variance());
      if (denom > 0 && obs.size() > 1) {
        d.correlation = cross / (static_cast<double>(obs.size() - 1) * denom);
      }
      row.push_back(d);
    }
    result.deltas.push_back(std::move(row));
  }
  return result;
}

}  // namespace vcpusim::exp
