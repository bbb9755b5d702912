// Zero-rebuild replication engine: exp::run_point runs every replication
// on a pooled system, and which slot serves which replication depends on
// thread scheduling and on what the pool served before. Pooled results
// must be invariant under both: samples, confidence intervals, run
// counters and structured JSONL trace bytes are identical across jobs 1
// and 8 and across a pool first used by another algorithm and another
// metric set, for every builtin algorithm and every metric kind. That a
// reset or rebound system equals a fresh build is tested where it is
// owned, in tests/vm/system_reset_test.cpp.
#include "exp/pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "sched/registry.hpp"
#include "stats/metrics.hpp"
#include "trace/sinks.hpp"

namespace vcpusim::exp {
namespace {

RunSpec pool_spec() {
  RunSpec spec;
  // Figure-8-style shape: 2 PCPUs, three VMs (2+1+1 VCPUs), sync 1:5 —
  // contended enough that algorithms actually differ.
  spec.system = vm::make_symmetric_config(2, {2, 1, 1}, 5);
  spec.scheduler = sched::make_factory("rrs");
  spec.end_time = 200.0;
  spec.warmup = 40.0;
  spec.base_seed = 20260805;
  // Fixed replication count: identical work in every run.
  spec.policy.min_replications = 4;
  spec.policy.max_replications = 4;
  spec.policy.target_half_width = 1e-12;
  return spec;
}

const std::vector<MetricRequest>& headline_metrics() {
  static const std::vector<MetricRequest> kMetrics = {
      {MetricKind::kMeanVcpuAvailability, -1, "avail"},
      {MetricKind::kPcpuUtilization, -1, "pcpu"},
      {MetricKind::kMeanVcpuUtilization, -1, "vcpu"},
      {MetricKind::kThroughput, -1, "tput"},
  };
  return kMetrics;
}

const std::vector<MetricRequest>& every_metric_kind() {
  static const std::vector<MetricRequest> kMetrics = {
      {MetricKind::kVcpuAvailability, 0, ""},
      {MetricKind::kMeanVcpuAvailability, -1, ""},
      {MetricKind::kPcpuUtilization, -1, ""},
      {MetricKind::kVcpuUtilization, 0, ""},
      {MetricKind::kMeanVcpuUtilization, -1, ""},
      {MetricKind::kVcpuBusyFraction, 0, ""},
      {MetricKind::kMeanVcpuBusyFraction, -1, ""},
      {MetricKind::kVmBlockedFraction, 0, ""},
      {MetricKind::kThroughput, -1, ""},
      {MetricKind::kMeanSpinFraction, -1, ""},
      {MetricKind::kMeanEffectiveUtilization, -1, ""},
      {MetricKind::kEnergy, -1, ""},
  };
  return kMetrics;
}

struct Outcome {
  stats::ReplicationResult result;
  std::uint64_t sim_events = 0;
  std::uint64_t enabling_evals = 0;
  std::uint64_t sched_ticks = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t pool_builds = 0;
  std::uint64_t pool_reuses = 0;
  std::string trace;
};

Outcome run(RunSpec spec, const std::vector<MetricRequest>& metrics,
            bool with_trace = false) {
  stats::MetricsRegistry registry;
  spec.metrics = &registry;
  std::ostringstream os;
  trace::JsonlSink sink(os);
  if (with_trace) spec.trace = &sink;
  Outcome out;
  out.result = run_point(spec, metrics);
  if (with_trace) sink.finish();
  out.trace = os.str();
  out.sim_events = registry.counter("sim.events").value();
  out.enabling_evals = registry.counter("sim.enabling_evals").value();
  out.sched_ticks = registry.counter("sched.ticks").value();
  out.preemptions = registry.counter("sched.preemptions").value();
  out.pool_builds = registry.counter("executor.pool_builds").value();
  out.pool_reuses = registry.counter("executor.pool_reuses").value();
  return out;
}

void expect_bit_identical(const Outcome& reference, const Outcome& other) {
  EXPECT_EQ(other.result.replications, reference.result.replications);
  EXPECT_EQ(other.result.converged, reference.result.converged);
  ASSERT_EQ(other.result.metrics.size(), reference.result.metrics.size());
  for (std::size_t i = 0; i < reference.result.metrics.size(); ++i) {
    const auto& a = reference.result.metrics[i];
    const auto& b = other.result.metrics[i];
    SCOPED_TRACE("metric " + a.name);
    EXPECT_EQ(b.name, a.name);
    // EXPECT_EQ on doubles is exact — the contract is bit-identity, not
    // tolerance.
    EXPECT_EQ(b.samples.count(), a.samples.count());
    EXPECT_EQ(b.samples.mean(), a.samples.mean());
    EXPECT_EQ(b.samples.sample_variance(), a.samples.sample_variance());
    EXPECT_EQ(b.samples.min(), a.samples.min());
    EXPECT_EQ(b.samples.max(), a.samples.max());
    EXPECT_EQ(b.ci.mean, a.ci.mean);
    EXPECT_EQ(b.ci.half_width, a.ci.half_width);
  }
  EXPECT_EQ(other.sim_events, reference.sim_events);
  EXPECT_EQ(other.enabling_evals, reference.enabling_evals)
      << "a reused simulator must perform exactly a fresh one's enabling "
         "work";
  EXPECT_EQ(other.sched_ticks, reference.sched_ticks);
  EXPECT_EQ(other.preemptions, reference.preemptions);
  EXPECT_EQ(other.trace, reference.trace)
      << "structured trace byte streams diverge";
}

/// Run `spec` at jobs 1 on a private pool as the reference, then at
/// jobs 8, and at jobs 1 and 8 on an external pool whose slots were
/// first bound by `other_algorithm` with `other_metrics` at jobs 8:
/// every run must match the reference bit for bit.
void expect_jobs_and_history_invariant(
    RunSpec spec, const std::vector<MetricRequest>& metrics,
    const std::string& other_algorithm,
    const std::vector<MetricRequest>& other_metrics) {
  spec.jobs = 1;
  const auto reference = run(spec, metrics, true);
  {
    SCOPED_TRACE("private pool, jobs=8");
    RunSpec parallel = spec;
    parallel.jobs = 8;
    expect_bit_identical(reference, run(parallel, metrics, true));
  }
  SystemPool pool(spec.system);
  RunSpec warm = spec;
  warm.scheduler = sched::make_factory(other_algorithm);
  warm.jobs = 8;
  warm.pool = &pool;
  run(warm, other_metrics);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("pool first used by " + other_algorithm +
                 ", jobs=" + std::to_string(jobs));
    RunSpec reused = spec;
    reused.jobs = jobs;
    reused.pool = &pool;
    const auto outcome = run(reused, metrics, true);
    EXPECT_EQ(outcome.pool_builds + outcome.pool_reuses,
              reference.result.replications);
    expect_bit_identical(reference, outcome);
  }
}

TEST(PoolIdentity, JobsAndPoolHistoryInvariantForEveryAlgorithm) {
  const auto algorithms = sched::builtin_algorithms();
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    SCOPED_TRACE(algorithms[a]);
    RunSpec spec = pool_spec();
    spec.scheduler = sched::make_factory(algorithms[a]);
    expect_jobs_and_history_invariant(
        spec, headline_metrics(), algorithms[(a + 1) % algorithms.size()],
        every_metric_kind());
  }
}

TEST(PoolIdentity, JobsAndPoolHistoryInvariantForEveryMetricKind) {
  RunSpec spec = pool_spec();
  for (auto& vmc : spec.system.vms) vmc.spinlock.enabled = true;
  expect_jobs_and_history_invariant(spec, every_metric_kind(), "rcs",
                                    headline_metrics());
}

TEST(PoolIdentity, SharedExternalPoolStaysIdenticalAcrossRuns) {
  // State-leak check: the SAME built system serves three consecutive
  // runs off one external pool; every run must still match a run on a
  // private pool bit for bit, and the second/third runs must not build.
  RunSpec spec = pool_spec();
  const auto reference = run(spec, headline_metrics(), true);
  SystemPool pool(spec.system);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    RunSpec pooled_spec = spec;
    pooled_spec.pool = &pool;
    expect_bit_identical(reference,
                         run(pooled_spec, headline_metrics(), true));
  }
  // jobs=1: one slot, built once, reused by every later checkout.
  EXPECT_EQ(pool.builds(), 1u);
  EXPECT_EQ(pool.reuses(), 11u);  // 3 runs x 4 reps, minus the one build
}

TEST(PoolCounters, PrivatePoolExportsBuildAndReuseDeltas) {
  const auto pooled = run(pool_spec(), headline_metrics());
  EXPECT_EQ(pooled.pool_builds, 1u);
  EXPECT_EQ(pooled.pool_reuses, 3u);
}

TEST(PoolCounters, LintBuildSeedsThePool) {
  // The lint fail-fast build is donated to the pool instead of being
  // thrown away: still exactly one build, and every replication —
  // including the first — counts as a reuse.
  RunSpec spec = pool_spec();
  spec.lint = true;
  const auto pooled = run(spec, headline_metrics());
  EXPECT_EQ(pooled.pool_builds, 1u);
  EXPECT_EQ(pooled.pool_reuses, 4u);
}

TEST(PoolExternal, FingerprintMismatchThrows) {
  RunSpec spec = pool_spec();
  SystemPool wrong(vm::make_symmetric_config(4, {1, 1}, 0));
  spec.pool = &wrong;
  EXPECT_THROW(run_point(spec, headline_metrics()), std::invalid_argument);
}

TEST(PoolFingerprint, DistinguishesBuildRelevantConfigChanges) {
  const auto base = vm::make_symmetric_config(2, {2, 1, 1}, 5);
  EXPECT_EQ(SystemPool::fingerprint_of(base), SystemPool::fingerprint_of(base));

  auto more_pcpus = base;
  more_pcpus.num_pcpus += 1;
  EXPECT_NE(SystemPool::fingerprint_of(base),
            SystemPool::fingerprint_of(more_pcpus));

  auto spinlocked = base;
  for (auto& vmc : spinlocked.vms) vmc.spinlock.enabled = true;
  EXPECT_NE(SystemPool::fingerprint_of(base),
            SystemPool::fingerprint_of(spinlocked));

  auto other_sync = base;
  for (auto& vmc : other_sync.vms) vmc.sync_ratio_k = 9;
  EXPECT_NE(SystemPool::fingerprint_of(base),
            SystemPool::fingerprint_of(other_sync));
}

}  // namespace
}  // namespace vcpusim::exp
