#include "stats/replication.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "stats/executor.hpp"
#include "stats/rng.hpp"

namespace vcpusim::stats {
namespace {

/// Replication r observes fn(r), under the fixed controller (which maps
/// replication r to stream r).
ReplicationResult run_indexed(
    const std::vector<std::string>& names,
    const std::function<std::vector<double>(std::size_t)>& fn,
    const ReplicationPolicy& policy, ParallelExecutor& executor) {
  FixedPolicyController controller(policy);
  return run_replications(
      names, [&fn](const ReplicationTask& task) { return fn(task.rep); },
      controller, executor);
}

ReplicationResult run_indexed(
    const std::vector<std::string>& names,
    const std::function<std::vector<double>(std::size_t)>& fn,
    const ReplicationPolicy& policy = {}, std::size_t jobs = 1) {
  ParallelExecutor executor(jobs);
  return run_indexed(names, fn, policy, executor);
}

TEST(Replication, ConstantMetricConvergesAtMinReplications) {
  ReplicationPolicy policy;
  policy.min_replications = 5;
  policy.target_half_width = 0.01;
  const auto result = run_indexed(
      {"m"}, [](std::size_t) { return std::vector<double>{1.0}; }, policy);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.replications, 5u);
  EXPECT_DOUBLE_EQ(result.metric("m").ci.mean, 1.0);
}

TEST(Replication, StopsAtMaxWhenNeverConverging) {
  ReplicationPolicy policy;
  policy.min_replications = 2;
  policy.max_replications = 7;
  policy.target_half_width = 1e-12;
  std::size_t calls = 0;
  const auto result = run_indexed(
      {"m"},
      [&calls](std::size_t rep) {
        ++calls;
        return std::vector<double>{rep % 2 == 0 ? 0.0 : 100.0};
      },
      policy);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.replications, 7u);
  EXPECT_EQ(calls, 7u);
}

TEST(Replication, AllMetricsMustConverge) {
  // Metric "noisy" needs more replications than "steady".
  ReplicationPolicy policy;
  policy.min_replications = 3;
  policy.max_replications = 200;
  policy.target_half_width = 0.15;
  Rng rng(1);
  const auto result = run_indexed(
      {"steady", "noisy"},
      [&rng](std::size_t) {
        return std::vector<double>{0.5, rng.uniform01()};
      },
      policy);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.metric("steady").ci.converged(policy.target_half_width));
  EXPECT_TRUE(result.metric("noisy").ci.converged(policy.target_half_width));
  EXPECT_GT(result.replications, 3u);
}

TEST(Replication, ReplicationIndicesArePassedInOrder) {
  std::vector<std::size_t> seen;
  ReplicationPolicy policy;
  policy.min_replications = 4;
  policy.target_half_width = 1.0;
  run_indexed(
      {"m"},
      [&seen](std::size_t rep) {
        seen.push_back(rep);
        return std::vector<double>{0.0};
      },
      policy);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Replication, MeanAggregatesAcrossReplications) {
  ReplicationPolicy policy;
  policy.min_replications = 4;
  policy.max_replications = 4;
  policy.target_half_width = 1e9;
  const auto result = run_indexed(
      {"m"},
      [](std::size_t rep) {
        return std::vector<double>{static_cast<double>(rep)};
      },
      policy);
  EXPECT_DOUBLE_EQ(result.metric("m").ci.mean, 1.5);  // mean of 0..3
  EXPECT_EQ(result.metric("m").samples.count(), 4u);
}

TEST(Replication, RejectsEmptyMetricList) {
  EXPECT_THROW(run_indexed({}, [](std::size_t) {
                 return std::vector<double>{};
               }),
               std::invalid_argument);
}

TEST(Replication, RejectsWrongObservationCount) {
  EXPECT_THROW(run_indexed({"a", "b"},
                                [](std::size_t) {
                                  return std::vector<double>{1.0};
                                }),
               std::runtime_error);
}

TEST(Replication, RejectsMinBelowTwo) {
  ReplicationPolicy policy;
  policy.min_replications = 1;
  EXPECT_THROW(run_indexed({"m"},
                                [](std::size_t) {
                                  return std::vector<double>{1.0};
                                },
                                policy),
               std::invalid_argument);
  // A minimum above the cap can never be met: rejected, not silently
  // truncated to an unconverged run.
  policy.min_replications = 5;
  policy.max_replications = 3;
  EXPECT_THROW(run_indexed({"m"},
                                [](std::size_t) {
                                  return std::vector<double>{1.0};
                                },
                                policy),
               std::invalid_argument);
}

TEST(Replication, UnknownMetricNameThrows) {
  const auto result = run_indexed(
      {"m"}, [](std::size_t) { return std::vector<double>{1.0}; });
  EXPECT_THROW(result.metric("nope"), std::out_of_range);
}

// ---------------------------------------------------------------------
// Parallel batch dispatch.
// ---------------------------------------------------------------------

/// A deterministic pure-function observation: each replication's value
/// depends only on its index (as real replications depend only on their
/// derived seed), so any dispatch order folds to the same estimates.
std::vector<double> indexed_observation(std::size_t rep) {
  Rng rng(0x9e3779b97f4a7c15ULL + rep);
  return {rng.uniform01(), 10.0 + rng.uniform01()};
}

void expect_bitwise_equal(const ReplicationResult& a,
                          const ReplicationResult& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    EXPECT_EQ(a.metrics[m].name, b.metrics[m].name);
    EXPECT_EQ(a.metrics[m].ci.mean, b.metrics[m].ci.mean);
    EXPECT_EQ(a.metrics[m].ci.half_width, b.metrics[m].ci.half_width);
    EXPECT_EQ(a.metrics[m].ci.confidence, b.metrics[m].ci.confidence);
    EXPECT_EQ(a.metrics[m].samples.count(), b.metrics[m].samples.count());
    EXPECT_EQ(a.metrics[m].samples.mean(), b.metrics[m].samples.mean());
    EXPECT_EQ(a.metrics[m].samples.sample_variance(),
              b.metrics[m].samples.sample_variance());
  }
}

TEST(Replication, ParallelJobsProduceBitIdenticalResults) {
  ReplicationPolicy policy;
  policy.min_replications = 4;
  policy.max_replications = 37;
  policy.target_half_width = 0.08;  // converges somewhere mid-stream
  const auto sequential =
      run_indexed({"u", "shifted"}, indexed_observation, policy);
  ASSERT_GT(sequential.replications, policy.min_replications);
  for (const std::size_t jobs : {2u, 3u, 8u, 16u}) {
    const auto parallel = run_indexed({"u", "shifted"},
                                           indexed_observation, policy, jobs);
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_bitwise_equal(sequential, parallel);
  }
}

TEST(Replication, ParallelNeverCallsBeyondMaxReplications) {
  // The final batch is truncated: with max = 10 and jobs = 4 the engine
  // must dispatch 4 + 4 + 2, never touching replication index 10+.
  ReplicationPolicy policy;
  policy.min_replications = 2;
  policy.max_replications = 10;
  policy.target_half_width = 1e-12;  // never converges
  std::mutex mu;
  std::vector<std::size_t> seen;
  const auto result = run_indexed(
      {"m"},
      [&](std::size_t rep) -> std::vector<double> {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(rep);
        return {rep % 2 == 0 ? 0.0 : 100.0};
      },
      policy, 4);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.replications, 10u);
  EXPECT_EQ(seen.size(), 10u);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(Replication, ParallelStopsAtSequentialConvergencePoint) {
  // Speculative batch execution may *call* fn past the stopping index,
  // but the folded result must stop exactly where jobs = 1 stops and
  // discard the speculated observations.
  ReplicationPolicy policy;
  policy.min_replications = 3;
  policy.max_replications = 100;
  policy.target_half_width = 0.2;
  const auto sequential = run_indexed({"u"}, [](std::size_t rep) {
    return std::vector<double>{indexed_observation(rep)[0]};
  }, policy);
  ASSERT_TRUE(sequential.converged);
  ASSERT_LT(sequential.replications, policy.max_replications);

  std::atomic<std::size_t> calls{0};
  const auto parallel = run_indexed(
      {"u"},
      [&](std::size_t rep) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return std::vector<double>{indexed_observation(rep)[0]};
      },
      policy, 8);
  expect_bitwise_equal(sequential, parallel);
  // Speculation is bounded by one batch past the stopping point.
  EXPECT_LT(calls.load(), sequential.replications + 8);
}

TEST(Replication, ExecutorOverloadSharesOnePool) {
  ParallelExecutor executor(4);
  ReplicationPolicy policy;
  policy.min_replications = 5;
  policy.max_replications = 20;
  policy.target_half_width = 1e9;
  const auto a = run_indexed({"u", "shifted"}, indexed_observation,
                                  policy, executor);
  const auto b = run_indexed({"u", "shifted"}, indexed_observation,
                                  policy, 1);
  expect_bitwise_equal(a, b);
}

TEST(Replication, ParallelPropagatesReplicationExceptions) {
  ReplicationPolicy policy;
  policy.min_replications = 2;
  policy.max_replications = 40;
  policy.target_half_width = 1e-12;
  EXPECT_THROW(run_indexed(
                   {"m"},
                   [](std::size_t rep) -> std::vector<double> {
                     if (rep == 9) throw std::runtime_error("replication died");
                     return {rep % 2 == 0 ? 0.0 : 100.0};  // never converges
                   },
                   policy, 4),
               std::runtime_error);
}

}  // namespace
}  // namespace vcpusim::stats
