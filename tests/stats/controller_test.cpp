// Controller-equivalence matrix for the pluggable replication pipeline:
// FixedPolicyController must be bit-identical to the original monolithic
// loop (re-implemented here as a frozen reference), the adaptive
// controller must reproduce the fixed controller's estimates and stopping
// index with no more invocations, and the antithetic controller must be
// deterministic, jobs-invariant and fold pair means. The fold hook and
// the in_order flag, which the runner's trace forwarding relies on, are
// pinned for every controller at several widths.
#include "stats/replication.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "stats/confidence.hpp"
#include "stats/rng.hpp"
#include "stats/welford.hpp"

namespace vcpusim::stats {
namespace {

/// A deterministic pure-function observation, as real replications are
/// pure functions of their seed stream.
std::vector<double> stream_observation(const ReplicationTask& task) {
  Rng rng(0x9e3779b97f4a7c15ULL + task.stream.stream);
  rng.set_antithetic(task.stream.antithetic);
  return {rng.uniform01(), 10.0 + rng.uniform01()};
}

/// Single-metric projection of stream_observation.
std::vector<double> single_observation(const ReplicationTask& task) {
  return {stream_observation(task)[0]};
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
    EXPECT_EQ(a.metrics[m].samples.count(), b.metrics[m].samples.count());
    EXPECT_EQ(a.metrics[m].samples.mean(), b.metrics[m].samples.mean());
    EXPECT_EQ(a.metrics[m].samples.sample_variance(),
              b.metrics[m].samples.sample_variance());
  }
}

/// The pre-controller run_replications loop, frozen verbatim: sequential
/// fold, CI refresh past min_replications, stop when all metrics are
/// tight, cap at max_replications. The bit-identity baseline.
ReplicationResult reference_loop(
    const std::vector<std::string>& names,
    const std::function<std::vector<double>(std::size_t)>& fn,
    const ReplicationPolicy& policy) {
  ReplicationResult result;
  result.metrics.resize(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) result.metrics[i].name = names[i];
  for (std::size_t rep = 0; rep < policy.max_replications; ++rep) {
    const auto obs = fn(rep);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      result.metrics[i].samples.add(obs[i]);
    }
    result.replications = rep + 1;
    if (result.replications < policy.min_replications) continue;
    bool all_tight = true;
    for (auto& m : result.metrics) {
      m.ci = confidence_interval(m.samples, policy.confidence);
      if (!m.ci.converged(policy.target_half_width)) all_tight = false;
    }
    if (all_tight) {
      result.converged = true;
      return result;
    }
  }
  for (auto& m : result.metrics) {
    m.ci = confidence_interval(m.samples, policy.confidence);
  }
  result.converged = false;
  return result;
}

ReplicationPolicy mid_stream_policy() {
  ReplicationPolicy policy;
  policy.min_replications = 4;
  policy.max_replications = 37;
  policy.target_half_width = 0.08;  // converges somewhere mid-stream
  return policy;
}

// ---------------------------------------------------------------------
// Names and parsing.
// ---------------------------------------------------------------------

TEST(Controller, NamesRoundTripThroughParse) {
  for (const auto kind : {ControllerKind::kFixed, ControllerKind::kAdaptive,
                          ControllerKind::kAntithetic}) {
    ControllerKind parsed{};
    ASSERT_TRUE(parse_controller(controller_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  ControllerKind parsed{};
  EXPECT_FALSE(parse_controller("sequential", parsed));
  EXPECT_FALSE(parse_controller("", parsed));
}

TEST(Controller, MakeControllerReportsItsName) {
  const ReplicationPolicy policy;
  EXPECT_STREQ(make_controller(ControllerKind::kFixed, policy)->name(), "fixed");
  EXPECT_STREQ(make_controller(ControllerKind::kAdaptive, policy)->name(),
               "adaptive");
  EXPECT_STREQ(make_controller(ControllerKind::kAntithetic, policy)->name(),
               "antithetic");
}

// ---------------------------------------------------------------------
// Fixed controller: bit-identical to the pre-refactor loop.
// ---------------------------------------------------------------------

TEST(Controller, FixedMatchesFrozenReferenceLoop) {
  const auto indexed = [](std::size_t rep) {
    return stream_observation({rep, {rep, false}});
  };
  for (const double target : {1e-12, 0.05, 0.08, 1e9}) {
    ReplicationPolicy policy = mid_stream_policy();
    policy.target_half_width = target;
    SCOPED_TRACE("target=" + std::to_string(target));
    const auto reference = reference_loop({"u", "shifted"}, indexed, policy);
    FixedPolicyController controller(policy);
    const auto refactored =
        run_replications({"u", "shifted"}, stream_observation, controller);
    expect_bitwise_equal(reference, refactored);
    EXPECT_EQ(refactored.controller, "fixed");
  }
}

TEST(Controller, FixedAssignsUnmirroredIdentityStreams) {
  const FixedPolicyController controller{ReplicationPolicy{}};
  for (const std::size_t rep : {0u, 1u, 7u, 100u}) {
    EXPECT_EQ(controller.stream(rep).stream, rep);
    EXPECT_FALSE(controller.stream(rep).antithetic);
  }
}

// ---------------------------------------------------------------------
// Adaptive controller: same estimates, less speculation, jobs-invariant.
// ---------------------------------------------------------------------

TEST(Controller, AdaptiveMatchesFixedEstimatesAndStoppingIndex) {
  const auto policy = mid_stream_policy();
  FixedPolicyController fixed(policy);
  const auto fixed_result =
      run_replications({"u", "shifted"}, stream_observation, fixed, 8);
  AdaptiveController adaptive(policy);
  const auto adaptive_result =
      run_replications({"u", "shifted"}, stream_observation, adaptive, 8);
  expect_bitwise_equal(fixed_result, adaptive_result);
  EXPECT_EQ(adaptive_result.controller, "adaptive");
  // Variance-sized batches never speculate more than jobs-sized ones.
  EXPECT_LE(adaptive_result.invoked, fixed_result.invoked);
  EXPECT_LE(adaptive_result.speculative_waste(),
            fixed_result.speculative_waste());
}

TEST(Controller, AdaptiveIsJobsInvariant) {
  ReplicationPolicy policy;
  policy.min_replications = 4;
  policy.max_replications = 200;
  policy.target_half_width = 0.1;
  AdaptiveController sequential_controller(policy);
  const auto sequential = run_replications({"u", "shifted"}, stream_observation,
                                           sequential_controller, 1);
  ASSERT_TRUE(sequential.converged);
  for (const std::size_t jobs : {2u, 3u, 8u, 16u}) {
    AdaptiveController controller(policy);
    const auto parallel =
        run_replications({"u", "shifted"}, stream_observation, controller, jobs);
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_bitwise_equal(sequential, parallel);
  }
}

TEST(Controller, AdaptiveWastesNothingSequentially) {
  // With jobs = 1 every batch is one replication: zero speculation.
  const auto policy = mid_stream_policy();
  AdaptiveController controller(policy);
  const auto result =
      run_replications({"u", "shifted"}, stream_observation, controller, 1);
  EXPECT_EQ(result.speculative_waste(), 0u);
  EXPECT_EQ(result.invoked, result.replications);
}

// ---------------------------------------------------------------------
// Antithetic controller: mirrored pairs, pair-mean folding.
// ---------------------------------------------------------------------

TEST(Controller, AntitheticPairsShareAStreamWithMirroredOddPartner) {
  const AntitheticController controller{ReplicationPolicy{}};
  for (const std::size_t pair : {0u, 1u, 5u}) {
    const auto even = controller.stream(2 * pair);
    const auto odd = controller.stream(2 * pair + 1);
    EXPECT_EQ(even.stream, pair);
    EXPECT_EQ(odd.stream, pair);
    EXPECT_FALSE(even.antithetic);
    EXPECT_TRUE(odd.antithetic);
  }
}

TEST(Controller, AntitheticFoldsPairMeans) {
  ReplicationPolicy policy;
  policy.min_replications = 6;
  policy.max_replications = 6;
  policy.target_half_width = 1e9;
  AntitheticController controller(policy);
  const auto result = run_replications({"u"}, single_observation, controller, 1);
  EXPECT_EQ(result.replications, 6u);
  // Six raw replications folded as three pair-mean samples.
  EXPECT_EQ(result.metric("u").samples.count(), 3u);
  Welford expected;
  for (std::size_t pair = 0; pair < 3; ++pair) {
    const double primal = stream_observation({2 * pair, {pair, false}})[0];
    const double mirror = stream_observation({2 * pair + 1, {pair, true}})[0];
    expected.add(0.5 * (primal + mirror));
  }
  EXPECT_EQ(result.metric("u").samples.mean(), expected.mean());
  EXPECT_EQ(result.metric("u").samples.sample_variance(),
            expected.sample_variance());
}

TEST(Controller, AntitheticIsJobsInvariant) {
  ReplicationPolicy policy;
  policy.min_replications = 4;
  policy.max_replications = 60;
  policy.target_half_width = 0.05;
  AntitheticController sequential_controller(policy);
  const auto sequential = run_replications({"u", "shifted"}, stream_observation,
                                           sequential_controller, 1);
  ASSERT_TRUE(sequential.converged);
  for (const std::size_t jobs : {2u, 3u, 8u}) {
    AntitheticController controller(policy);
    const auto parallel =
        run_replications({"u", "shifted"}, stream_observation, controller, jobs);
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_bitwise_equal(sequential, parallel);
    EXPECT_EQ(parallel.controller, "antithetic");
  }
}

TEST(Controller, AntitheticReducesVarianceOnMonotoneResponse) {
  // The response is monotone in the uniform draw, the canonical case
  // where mirroring induces negative pair correlation. At the same raw
  // replication count the pair-mean variance must shrink strictly below
  // half the independent variance (the rho = 0 baseline).
  ReplicationPolicy policy;
  policy.min_replications = 40;
  policy.max_replications = 40;
  policy.target_half_width = 1e-12;
  const auto monotone = [](const ReplicationTask& task) {
    Rng rng(123 + task.stream.stream);
    rng.set_antithetic(task.stream.antithetic);
    const double u = rng.uniform01();
    return std::vector<double>{u * u + 3.0 * u};
  };
  FixedPolicyController fixed(policy);
  const auto independent = run_replications({"m"}, monotone, fixed, 1);
  AntitheticController antithetic(policy);
  const auto paired = run_replications({"m"}, monotone, antithetic, 1);
  ASSERT_EQ(independent.replications, paired.replications);
  const double var_single = independent.metric("m").samples.sample_variance();
  const double var_pair = paired.metric("m").samples.sample_variance();
  EXPECT_LT(var_pair, 0.5 * var_single);
}

TEST(Controller, AntitheticStopsOnlyOnCompletePairs) {
  // A target reachable after the first complete pair past min: the
  // stopping replication count must be even.
  ReplicationPolicy policy;
  policy.min_replications = 4;
  policy.max_replications = 100;
  policy.target_half_width = 0.1;
  AntitheticController controller(policy);
  const auto result = run_replications({"u"}, single_observation, controller, 8);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.replications % 2, 0u);
}

// ---------------------------------------------------------------------
// Observation recording (the paired-comparison hook).
// ---------------------------------------------------------------------

TEST(Controller, RecordObservationsKeepsFoldedRowsInOrder) {
  ReplicationPolicy policy = mid_stream_policy();
  policy.record_observations = true;
  FixedPolicyController controller(policy);
  const auto result =
      run_replications({"u", "shifted"}, stream_observation, controller, 8);
  ASSERT_EQ(result.observations.size(), result.replications);
  for (std::size_t rep = 0; rep < result.replications; ++rep) {
    const auto expected = stream_observation({rep, {rep, false}});
    ASSERT_EQ(result.observations[rep].size(), 2u);
    EXPECT_EQ(result.observations[rep][0], expected[0]);
    EXPECT_EQ(result.observations[rep][1], expected[1]);
  }
}

TEST(Controller, ObservationsStayEmptyByDefault) {
  FixedPolicyController controller{mid_stream_policy()};
  const auto result =
      run_replications({"u", "shifted"}, stream_observation, controller, 4);
  EXPECT_TRUE(result.observations.empty());
}

TEST(Controller, AntitheticRecordsRawReplicationsNotPairMeans) {
  ReplicationPolicy policy;
  policy.min_replications = 6;
  policy.max_replications = 6;
  policy.target_half_width = 1e9;
  policy.record_observations = true;
  AntitheticController controller(policy);
  const auto result = run_replications({"u"}, single_observation, controller, 1);
  ASSERT_EQ(result.observations.size(), 6u);
  for (std::size_t rep = 0; rep < 6; ++rep) {
    const auto expected =
        single_observation({rep, {rep / 2, (rep & 1U) != 0}});
    EXPECT_EQ(result.observations[rep][0], expected[0]);
  }
}

// ---------------------------------------------------------------------
// Fold hook and in-order dispatch (the runner forwards traces on them).
// ---------------------------------------------------------------------

/// What one run showed its fold hook and its replication function.
struct FoldLog {
  ReplicationResult result;
  std::vector<std::size_t> folded;    ///< hook calls, in call order
  std::vector<std::size_t> in_order;  ///< tasks dispatched with in_order
  std::vector<std::size_t> ready;     ///< tasks whose predecessors had all folded
  std::size_t tasks = 0;
};

FoldLog run_logged(ControllerKind kind, std::size_t jobs) {
  // Converges well before the cap, so wide batches run past the stop.
  ReplicationPolicy policy;
  policy.min_replications = 4;
  policy.max_replications = 200;
  policy.target_half_width = 0.1;
  const auto controller = make_controller(kind, policy);
  FoldLog log;
  std::mutex mutex;
  std::atomic<std::size_t> folded{0};
  const auto fn = [&](const ReplicationTask& task) {
    const bool ready = folded.load() == task.rep;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      ++log.tasks;
      if (task.in_order) log.in_order.push_back(task.rep);
      if (ready) log.ready.push_back(task.rep);
    }
    return stream_observation(task);
  };
  log.result = run_replications({"u", "shifted"}, fn, *controller, jobs,
                                [&](std::size_t rep) {
                                  log.folded.push_back(rep);
                                  folded.store(rep + 1);
                                });
  std::sort(log.in_order.begin(), log.in_order.end());
  std::sort(log.ready.begin(), log.ready.end());
  return log;
}

TEST(Controller, FoldHookSeesEveryFoldedReplicationInOrder) {
  std::size_t speculated = 0;
  for (const auto kind : {ControllerKind::kFixed, ControllerKind::kAdaptive,
                          ControllerKind::kAntithetic}) {
    for (const std::size_t jobs : {1u, 3u, 8u}) {
      SCOPED_TRACE(std::string(controller_name(kind)) +
                   " jobs=" + std::to_string(jobs));
      const FoldLog log = run_logged(kind, jobs);
      ASSERT_TRUE(log.result.converged);
      std::vector<std::size_t> expected(log.result.replications);
      std::iota(expected.begin(), expected.end(), std::size_t{0});
      // Exactly 0..replications-1 in order: no speculative index.
      EXPECT_EQ(log.folded, expected);
      EXPECT_EQ(log.tasks, log.result.invoked);
      speculated += log.result.speculative_waste();
    }
  }
  // The matrix must actually speculate, or the check above is vacuous.
  EXPECT_GT(speculated, 0u);
}

TEST(Controller, InOrderMarksExactlyTheTasksWithAllPredecessorsFolded) {
  for (const auto kind : {ControllerKind::kFixed, ControllerKind::kAdaptive,
                          ControllerKind::kAntithetic}) {
    for (const std::size_t jobs : {1u, 3u, 8u}) {
      SCOPED_TRACE(std::string(controller_name(kind)) +
                   " jobs=" + std::to_string(jobs));
      const FoldLog log = run_logged(kind, jobs);
      EXPECT_EQ(log.in_order, log.ready);
      // One in-order head per batch.
      EXPECT_EQ(log.in_order.size(), log.result.batches);
      if (jobs == 1) {
        EXPECT_EQ(log.in_order.size(), log.result.invoked);
      } else {
        EXPECT_LT(log.in_order.size(), log.result.invoked);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Policy preset.
// ---------------------------------------------------------------------

TEST(Controller, PaperPresetStatesThePaperTargets) {
  const auto policy = ReplicationPolicy::paper();
  EXPECT_DOUBLE_EQ(policy.confidence, 0.95);
  EXPECT_DOUBLE_EQ(policy.target_half_width, 0.02);
  EXPECT_EQ(policy.min_replications, 6u);
  EXPECT_EQ(policy.max_replications, 40u);
  EXPECT_FALSE(policy.record_observations);
}

}  // namespace
}  // namespace vcpusim::stats
