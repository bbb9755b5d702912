#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include "sched/registry.hpp"

namespace vcpusim::exp {
namespace {

RunSpec quick_spec(const std::string& algorithm = "rrs") {
  RunSpec spec;
  spec.system = vm::make_symmetric_config(2, {1, 1}, 5);
  spec.scheduler = sched::make_factory(algorithm);
  spec.end_time = 300.0;
  spec.warmup = 50.0;
  spec.policy.min_replications = 3;
  spec.policy.max_replications = 6;
  spec.policy.target_half_width = 0.05;
  return spec;
}

TEST(Runner, DefaultLabels) {
  EXPECT_EQ(default_label({MetricKind::kVcpuAvailability, 2, ""}),
            "vcpu_availability[2]");
  EXPECT_EQ(default_label({MetricKind::kMeanVcpuAvailability, -1, ""}),
            "mean_vcpu_availability");
  EXPECT_EQ(default_label({MetricKind::kPcpuUtilization, -1, ""}),
            "pcpu_utilization");
  EXPECT_EQ(default_label({MetricKind::kVmBlockedFraction, 1, ""}),
            "vm_blocked_fraction[1]");
  EXPECT_EQ(default_label({MetricKind::kThroughput, -1, ""}), "throughput");
}

TEST(Runner, RunsAllMetricKinds) {
  const auto result = run_point(
      quick_spec(),
      {{MetricKind::kVcpuAvailability, 0, ""},
       {MetricKind::kMeanVcpuAvailability, -1, ""},
       {MetricKind::kPcpuUtilization, -1, ""},
       {MetricKind::kVcpuUtilization, 0, ""},
       {MetricKind::kMeanVcpuUtilization, -1, ""},
       {MetricKind::kVmBlockedFraction, 0, ""},
       {MetricKind::kThroughput, -1, ""}});
  EXPECT_EQ(result.metrics.size(), 7u);
  // 2 VCPUs on 2 PCPUs: everything is ACTIVE all the time.
  EXPECT_NEAR(result.metric("mean_vcpu_availability").ci.mean, 1.0, 1e-9);
  EXPECT_GT(result.metric("throughput").ci.mean, 0.0);
  // Utilization of PCPUs equals availability here (1 VCPU per PCPU).
  EXPECT_NEAR(result.metric("pcpu_utilization").ci.mean, 1.0, 1e-9);
}

TEST(Runner, CustomLabelsRespected) {
  const auto result = run_point(
      quick_spec(), {{MetricKind::kPcpuUtilization, -1, "my_metric"}});
  EXPECT_NO_THROW(result.metric("my_metric"));
}

TEST(Runner, DeterministicForSameSeed) {
  const auto a = run_point(quick_spec(), {{MetricKind::kThroughput, -1, ""}});
  const auto b = run_point(quick_spec(), {{MetricKind::kThroughput, -1, ""}});
  EXPECT_DOUBLE_EQ(a.metric("throughput").ci.mean,
                   b.metric("throughput").ci.mean);
}

TEST(Runner, SeedChangesResult) {
  auto spec = quick_spec();
  const auto a = run_point(spec, {{MetricKind::kThroughput, -1, ""}});
  spec.base_seed = 999;
  const auto b = run_point(spec, {{MetricKind::kThroughput, -1, ""}});
  EXPECT_NE(a.metric("throughput").ci.mean, b.metric("throughput").ci.mean);
}

TEST(Runner, ValidationErrors) {
  RunSpec spec = quick_spec();
  EXPECT_THROW(run_point(spec, {}), std::invalid_argument);
  spec.scheduler = nullptr;
  EXPECT_THROW(run_point(spec, {{MetricKind::kThroughput, -1, ""}}),
               std::invalid_argument);
  spec = quick_spec();
  spec.warmup = spec.end_time;
  EXPECT_THROW(run_point(spec, {{MetricKind::kThroughput, -1, ""}}),
               std::invalid_argument);
}

TEST(Runner, EndTimeBeyondTheEventCapFailsBeforeReplicating) {
  // The scheduler Clock fires once per tick, so such a run could only
  // stop at the event cap with a frozen marking.
  RunSpec spec = quick_spec();
  spec.end_time = 1e300;
  try {
    run_point(spec, {{MetricKind::kThroughput, -1, ""}});
    ADD_FAILURE() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "run_point: end_time 1e+300 exceeds the simulator's event cap "
              "of 500000000 events (the scheduler Clock alone fires once "
              "per tick)");
  }
}

TEST(Runner, PooledRunBuildsOneSchedulerPerExecutorSlot) {
  // The zero-rebuild engine reuses the built system — and its scheduler,
  // via Scheduler::on_reset — across replications: a 1-job run
  // instantiates exactly one scheduler however many replications the
  // stopping rule takes.
  int instances = 0;
  RunSpec spec = quick_spec();
  spec.scheduler = [&instances]() {
    ++instances;
    return sched::make_factory("rrs")();
  };
  const auto result = run_point(spec, {{MetricKind::kThroughput, -1, ""}});
  EXPECT_GE(result.replications, 3u);
  EXPECT_EQ(instances, 1);
}

}  // namespace
}  // namespace vcpusim::exp
