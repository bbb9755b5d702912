// Paired-comparison API: CRN seed discipline, paired-difference CIs and
// the variance reduction they buy over independent runs.
#include "exp/compare.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "san/experiment.hpp"
#include "sched/registry.hpp"
#include "stats/metrics.hpp"

namespace vcpusim::exp {
namespace {

/// Two VMs of two VCPUs on two PCPUs with 1:5 sync — contended enough
/// that co-scheduling and round-robin genuinely differ.
RunSpec contended_spec() {
  RunSpec spec;
  spec.system = vm::make_symmetric_config(2, {2, 2}, 5);
  spec.scheduler = sched::make_factory("rrs");
  spec.end_time = 300.0;
  spec.warmup = 50.0;
  spec.policy.min_replications = 6;
  spec.policy.max_replications = 6;  // pinned: paired and unpaired at equal n
  spec.policy.target_half_width = 1e-9;
  return spec;
}

const std::vector<MetricRequest> kMetrics = {
    {MetricKind::kMeanVcpuAvailability, -1, ""},
    {MetricKind::kThroughput, -1, ""}};

TEST(Compare, RejectsDegenerateInput) {
  const auto spec = contended_spec();
  EXPECT_THROW(compare_points(spec, {"rrs"}, kMetrics), std::invalid_argument);
  EXPECT_THROW(compare_points(spec, {}, kMetrics), std::invalid_argument);
  EXPECT_THROW(compare_points(spec, {"rrs", "scs"}, {}), std::invalid_argument);
}

TEST(Compare, SeedStreamsAreSharedAndReproducible) {
  // The CRN discipline: replication r of EVERY algorithm runs the seed
  // san::replication_seed(base_seed, r) — the published seeds must match
  // that derivation exactly, and be independent of the algorithm list.
  const auto spec = contended_spec();
  const auto ab = compare_points(spec, {"rrs", "scs"}, kMetrics);
  ASSERT_EQ(ab.seeds.size(), ab.replications);
  for (std::size_t r = 0; r < ab.seeds.size(); ++r) {
    EXPECT_EQ(ab.seeds[r], san::replication_seed(spec.base_seed, r));
  }
  const auto abc = compare_points(spec, {"rrs", "scs", "bvt"}, kMetrics);
  EXPECT_EQ(ab.seeds, abc.seeds);
}

TEST(Compare, MetricsAccumulateEveryAlgorithm) {
  // spec.metrics collects every leg, as consecutive run_point calls into
  // one registry do; with spec.profile each leg adds its buckets.
  RunSpec spec = contended_spec();
  stats::MetricsRegistry reg;
  spec.metrics = &reg;
  spec.profile = true;
  const auto result = compare_points(spec, {"rrs", "scs", "bvt"}, kMetrics);
  EXPECT_EQ(reg.counter_value("run.replications"), 3 * result.replications);
  EXPECT_EQ(reg.counter_value("profile.run_point.calls"), 3U);
  EXPECT_EQ(reg.counter_value("profile.decide.calls"),
            reg.counter_value("sched.ticks"));
}

TEST(Compare, BaselineEstimatesMatchRunPoint) {
  // Algorithm 0 runs under the spec's own policy/controller, so its
  // estimates must be bit-identical to a plain run_point of the same
  // spec.
  const auto spec = contended_spec();
  const auto direct = run_point(spec, kMetrics);
  const auto result = compare_points(spec, {"rrs", "scs"}, kMetrics);
  EXPECT_EQ(result.baseline, "rrs");
  EXPECT_EQ(result.replications, direct.replications);
  ASSERT_EQ(result.metric_names.size(), kMetrics.size());
  for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
    EXPECT_EQ(result.estimates[0][m].mean,
              direct.metric(result.metric_names[m]).ci.mean);
    EXPECT_EQ(result.estimates[0][m].half_width,
              direct.metric(result.metric_names[m]).ci.half_width);
  }
}

TEST(Compare, PairedIntervalsAreTighterThanIndependent) {
  // The ISSUE's headline claim: under CRN the paired-difference CI is
  // tighter than the interval independent runs would give at the same
  // replication count, because the algorithms' responses to a common
  // workload realization are positively correlated.
  const auto result =
      compare_points(contended_spec(), {"rrs", "scs"}, kMetrics);
  bool some_variance = false;
  for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
    const auto& d = result.delta(1, m);
    SCOPED_TRACE(result.metric_names[m]);
    EXPECT_LE(d.paired.half_width, d.unpaired_half_width);
    if (d.unpaired_half_width > 0) {
      some_variance = true;
      EXPECT_LT(d.paired.half_width, d.unpaired_half_width);
      EXPECT_GT(d.correlation, 0.0);
    }
  }
  EXPECT_TRUE(some_variance);
}

TEST(Compare, AntitheticControllerComposesWithCrn) {
  // Antithetic + CRN: the controller pairs mirrored replications inside
  // each algorithm while the seeds stay common across algorithms. The
  // paired interval must still be the tight one.
  auto spec = contended_spec();
  spec.controller = stats::ControllerKind::kAntithetic;
  const auto result = compare_points(spec, {"rrs", "scs"}, kMetrics);
  EXPECT_EQ(result.controller, "antithetic");
  EXPECT_EQ(result.replications % 2, 0u);
  // Antithetic streams: replications {2k, 2k+1} share seed stream k.
  for (std::size_t r = 0; r < result.seeds.size(); ++r) {
    EXPECT_EQ(result.seeds[r], san::replication_seed(spec.base_seed, r / 2));
  }
  for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
    const auto& d = result.delta(1, m);
    SCOPED_TRACE(result.metric_names[m]);
    EXPECT_LE(d.paired.half_width, d.unpaired_half_width);
  }
}

TEST(Compare, DeltaAccessorRejectsBaseline) {
  const auto result =
      compare_points(contended_spec(), {"rrs", "scs"}, kMetrics);
  EXPECT_THROW(result.delta(0, 0), std::out_of_range);
  EXPECT_NO_THROW(result.delta(1, 0));
}

TEST(Compare, TablesCoverEveryAlgorithmAndMetric) {
  const auto result =
      compare_points(contended_spec(), {"rrs", "scs", "bvt"}, kMetrics);
  const Table estimates = result.estimates_table();
  EXPECT_EQ(estimates.rows(), 3u);
  const Table deltas = result.deltas_table();
  EXPECT_EQ(deltas.rows(), 2u);  // every non-baseline algorithm
  // Every algorithm and metric appears in the rendering.
  const std::string rendered = estimates.render() + deltas.render();
  for (const char* token : {"rrs", "scs", "bvt", "mean_vcpu_availability",
                            "throughput", "vs rrs"}) {
    EXPECT_NE(rendered.find(token), std::string::npos) << token;
  }
}

TEST(Compare, DeterministicAcrossCallsAndJobs) {
  auto spec = contended_spec();
  const auto a = compare_points(spec, {"rrs", "scs"}, kMetrics);
  spec.jobs = 4;
  const auto b = compare_points(spec, {"rrs", "scs"}, kMetrics);
  EXPECT_EQ(a.replications, b.replications);
  for (std::size_t alg = 0; alg < a.algorithms.size(); ++alg) {
    for (std::size_t m = 0; m < a.metric_names.size(); ++m) {
      EXPECT_EQ(a.estimates[alg][m].mean, b.estimates[alg][m].mean);
      EXPECT_EQ(a.estimates[alg][m].half_width, b.estimates[alg][m].half_width);
    }
  }
  for (std::size_t m = 0; m < a.metric_names.size(); ++m) {
    EXPECT_EQ(a.delta(1, m).paired.mean, b.delta(1, m).paired.mean);
    EXPECT_EQ(a.delta(1, m).paired.half_width, b.delta(1, m).paired.half_width);
  }
}

}  // namespace
}  // namespace vcpusim::exp
