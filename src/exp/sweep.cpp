#include "exp/sweep.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "exp/pool.hpp"
#include "sched/registry.hpp"
#include "stats/executor.hpp"

namespace vcpusim::exp {

const SweepCell& SweepResult::cell(std::size_t row, std::size_t column) const {
  return cells.at(row).at(column);
}

Table SweepResult::to_table(const std::string& axis_name) const {
  std::vector<std::string> columns = {axis_name};
  columns.insert(columns.end(), column_labels.begin(), column_labels.end());
  Table table(std::move(columns));
  for (std::size_t r = 0; r < row_labels.size(); ++r) {
    std::vector<std::string> row = {row_labels[r]};
    for (std::size_t c = 0; c < column_labels.size(); ++c) {
      row.push_back(format_ci_percent(cells[r][c].ci));
    }
    table.add_row(std::move(row));
  }
  return table;
}

SweepResult run_sweep(const RunSpec& base, const std::vector<SweepPoint>& points,
                      const std::vector<std::string>& algorithms,
                      const MetricRequest& metric, std::size_t jobs) {
  if (points.empty()) {
    throw std::invalid_argument("run_sweep: no sweep points");
  }
  if (algorithms.empty()) {
    throw std::invalid_argument("run_sweep: no algorithms");
  }
  SweepResult result;
  for (const auto& p : points) {
    if (!p.apply) {
      throw std::invalid_argument("run_sweep: point '" + p.label +
                                  "' has no apply function");
    }
    result.row_labels.push_back(p.label);
  }
  result.column_labels = algorithms;

  // Every cell is an independent experiment (fresh RunSpec, its own seed
  // stream), so the grid can be dispatched in any order: workers write
  // disjoint preallocated [row][column] slots.
  const std::size_t columns = algorithms.size();
  result.cells.assign(points.size(), std::vector<SweepCell>(columns));

  // Cells across the algorithm axis of a row share one topology (the
  // same apply() on the same base), so they draw built systems from one
  // pool per row: a cell rebinds a checked-out slot to its own scheduler
  // instead of rebuilding the whole model. Safe under grid parallelism —
  // slots are exclusively checked out and the pool grows on demand.
  std::vector<std::unique_ptr<SystemPool>> row_pools(points.size());
  for (std::size_t r = 0; r < points.size(); ++r) {
    RunSpec probe = base;
    points[r].apply(probe);
    row_pools[r] = std::make_unique<SystemPool>(probe.system);
  }

  stats::ParallelExecutor executor(jobs);
  executor.run_indexed(points.size() * columns, [&](std::size_t i) {
    const std::size_t row = i / columns;
    const std::size_t column = i % columns;
    RunSpec spec = base;
    points[row].apply(spec);
    spec.scheduler = sched::make_factory(algorithms[column]);
    spec.pool = row_pools[row].get();
    // The registry is not thread-safe and a shared trace sink would
    // interleave cells nondeterministically: cells run with both
    // detached, and sweep-level counters fold into base.metrics below.
    spec.metrics = nullptr;
    spec.trace = nullptr;
    const auto outcome = run_point(spec, {metric});
    SweepCell& cell = result.cells[row][column];
    cell.ci = outcome.metrics.front().ci;
    cell.replications = outcome.replications;
    cell.converged = outcome.converged;
    cell.speculative_waste = outcome.speculative_waste();
  });

  if (base.metrics != nullptr) {
    stats::MetricsRegistry& reg = *base.metrics;
    reg.counter("sweep.cells").add(points.size() * columns);
    reg.counter("sweep.points").add(points.size());
    reg.counter("sweep.algorithms").add(columns);
    for (const auto& row : result.cells) {
      for (const auto& cell : row) {
        reg.counter("sweep.replications").add(cell.replications);
        reg.counter("sweep.speculative_waste").add(cell.speculative_waste);
        if (cell.converged) reg.counter("sweep.converged_cells").add(1);
      }
    }
    std::uint64_t builds = 0;
    std::uint64_t reuses = 0;
    for (const auto& p : row_pools) {
      builds += p->builds();
      reuses += p->reuses();
    }
    reg.counter("executor.pool_builds").add(builds);
    reg.counter("executor.pool_reuses").add(reuses);
  }
  return result;
}

}  // namespace vcpusim::exp
