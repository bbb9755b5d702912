// Parallel execution guarantees across the whole stack: every jobs value
// reproduces run_point's sequential estimates bit for bit, and the
// simulator's incremental enabling reproduces the full-scan trajectory
// on every shipped scheduler model.
#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "sched/registry.hpp"
#include "testing/helpers.hpp"
#include "vm/metrics.hpp"

namespace vcpusim {
namespace {

/// Every shipped metric kind (indexed kinds bound to entity 0).
std::vector<exp::MetricRequest> all_metric_kinds() {
  return {
      {exp::MetricKind::kVcpuAvailability, 0, ""},
      {exp::MetricKind::kMeanVcpuAvailability, -1, ""},
      {exp::MetricKind::kPcpuUtilization, -1, ""},
      {exp::MetricKind::kVcpuUtilization, 0, ""},
      {exp::MetricKind::kMeanVcpuUtilization, -1, ""},
      {exp::MetricKind::kVcpuBusyFraction, 0, ""},
      {exp::MetricKind::kMeanVcpuBusyFraction, -1, ""},
      {exp::MetricKind::kVmBlockedFraction, 0, ""},
      {exp::MetricKind::kThroughput, -1, ""},
      {exp::MetricKind::kMeanSpinFraction, -1, ""},
      {exp::MetricKind::kMeanEffectiveUtilization, -1, ""},
  };
}

/// Figure-8 style point (2+1+1 VMs) at test scale.
exp::RunSpec fig8_spec(const std::string& algorithm) {
  exp::RunSpec spec;
  spec.system = vm::make_symmetric_config(2, {2, 1, 1}, 5);
  spec.scheduler = sched::make_factory(algorithm);
  spec.end_time = 600.0;
  spec.warmup = 100.0;
  spec.policy.min_replications = 4;
  spec.policy.max_replications = 7;  // not a jobs multiple: truncated batch
  spec.policy.target_half_width = 1e-9;  // runs to the cap
  return spec;
}

void expect_identical(const stats::ReplicationResult& a,
                      const stats::ReplicationResult& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    EXPECT_EQ(a.metrics[m].name, b.metrics[m].name);
    EXPECT_EQ(a.metrics[m].ci.mean, b.metrics[m].ci.mean) << a.metrics[m].name;
    EXPECT_EQ(a.metrics[m].ci.half_width, b.metrics[m].ci.half_width)
        << a.metrics[m].name;
  }
}

TEST(ParallelDeterminism, AllMetricKindsBitIdenticalAcrossJobCounts) {
  const auto metrics = all_metric_kinds();
  exp::RunSpec spec = fig8_spec("rrs");
  const auto sequential = exp::run_point(spec, metrics);
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    spec.jobs = jobs;
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_identical(sequential, exp::run_point(spec, metrics));
  }
}

TEST(ParallelDeterminism, ConvergenceStopIdenticalAcrossJobCounts) {
  // With a reachable CI target the stopping rule itself is in play:
  // parallel speculation must stop at the sequential stopping point.
  exp::RunSpec spec = fig8_spec("rcs");
  spec.policy.max_replications = 24;
  spec.policy.target_half_width = 0.05;
  const auto metrics =
      std::vector<exp::MetricRequest>{{exp::MetricKind::kMeanVcpuAvailability,
                                       -1, ""}};
  const auto sequential = exp::run_point(spec, metrics);
  spec.jobs = 4;
  expect_identical(sequential, exp::run_point(spec, metrics));
}

// ---------------------------------------------------------------------
// Incremental enabling on the shipped models.
// ---------------------------------------------------------------------

struct ShippedOutcome {
  std::uint64_t events;
  std::int64_t jobs;
  double avail;
  double util;
};

ShippedOutcome run_shipped(const std::string& algorithm, bool incremental) {
  auto system = vm::build_system(vm::make_symmetric_config(2, {2, 1}, 4),
                                 sched::make_factory(algorithm)());
  auto avail = vm::mean_vcpu_availability(*system, 50.0);
  auto util = vm::mean_vcpu_utilization(*system, 50.0);
  san::SimulatorConfig config;
  config.end_time = 800.0;
  config.seed = 99;
  config.incremental_enabling = incremental;
  const auto stats =
      san::run_once(*system->model, config, {avail.get(), util.get()});
  return {stats.events, vm::total_completed_jobs(*system),
          avail->time_averaged(800.0), util->time_averaged(800.0)};
}

TEST(IncrementalEnabling, ShippedModelsMatchFullScanForEveryAlgorithm) {
  for (const auto& name : sched::builtin_algorithms()) {
    const auto full = run_shipped(name, false);
    const auto incremental = run_shipped(name, true);
    EXPECT_EQ(full.events, incremental.events) << name;
    EXPECT_EQ(full.jobs, incremental.jobs) << name;
    EXPECT_EQ(full.avail, incremental.avail) << name;
    EXPECT_EQ(full.util, incremental.util) << name;
  }
}

}  // namespace
}  // namespace vcpusim
