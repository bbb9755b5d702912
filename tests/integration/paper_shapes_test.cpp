// The qualitative results of the paper's evaluation section, asserted at
// reduced simulation scale. The bench/ binaries regenerate the full
// figures; these tests pin the *shapes* so a regression that flips a
// paper conclusion fails CI.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "sched/registry.hpp"

namespace vcpusim {
namespace {

exp::RunSpec shape_spec(const std::string& algorithm, int pcpus,
                        const std::vector<int>& vms, int sync_k) {
  exp::RunSpec spec;
  spec.system = vm::make_symmetric_config(pcpus, vms, sync_k);
  spec.scheduler = sched::make_factory(algorithm);
  spec.end_time = 2000.0;
  spec.warmup = 200.0;
  spec.policy.min_replications = 4;
  spec.policy.max_replications = 12;
  spec.policy.target_half_width = 0.03;
  return spec;
}

double availability(const std::string& algorithm, int pcpus, int vcpu) {
  const auto result =
      exp::run_point(shape_spec(algorithm, pcpus, {2, 1, 1}, 5),
                     {{exp::MetricKind::kVcpuAvailability, vcpu, "a"}});
  return result.metric("a").ci.mean;
}

// --- Figure 8: fairness (VCPU availability, 2+1+1 VMs) ----------------

TEST(PaperFigure8, RrsIsFairAtEveryPcpuCount) {
  for (const int pcpus : {1, 2, 3, 4}) {
    const double share = std::min(1.0, pcpus / 4.0);
    for (const int vcpu : {0, 1, 2, 3}) {
      EXPECT_NEAR(availability("rrs", pcpus, vcpu), share, 0.05)
          << "pcpus=" << pcpus << " vcpu=" << vcpu;
    }
  }
}

TEST(PaperFigure8, ScsStarvesWideVmOnOnePcpu) {
  EXPECT_LT(availability("scs", 1, 0), 0.01);
  EXPECT_LT(availability("scs", 1, 1), 0.01);
  EXPECT_GT(availability("scs", 1, 2), 0.40);
  EXPECT_GT(availability("scs", 1, 3), 0.40);
}

TEST(PaperFigure8, RcsSchedulesWideVmOnOnePcpuButBelowNarrowVms) {
  const double wide = availability("rcs", 1, 0);
  const double narrow = availability("rcs", 1, 2);
  EXPECT_GT(wide, 0.02);           // unlike SCS, it runs
  EXPECT_LT(wide, narrow - 0.02);  // but gets less than the 1-VCPU VMs
}

TEST(PaperFigure8, CoSchedulingFairnessImprovesWithPcpus) {
  for (const std::string algorithm : {"scs", "rcs"}) {
    const double unfairness_low =
        availability(algorithm, 1, 2) - availability(algorithm, 1, 0);
    const double unfairness_high =
        availability(algorithm, 4, 2) - availability(algorithm, 4, 0);
    EXPECT_LT(unfairness_high, unfairness_low) << algorithm;
    // At 4 PCPUs / 4 VCPUs everyone is near 100%.
    for (const int vcpu : {0, 1, 2, 3}) {
      EXPECT_GT(availability(algorithm, 4, vcpu), 0.90)
          << algorithm << " vcpu=" << vcpu;
    }
  }
}

// --- Figure 9: PCPU utilization (4 PCPUs, VM sets) ---------------------

double pcpu_util(const std::string& algorithm, const std::vector<int>& vms,
                 int sync_k = 5) {
  const auto result = exp::run_point(shape_spec(algorithm, 4, vms, sync_k),
                                     {{exp::MetricKind::kPcpuUtilization, -1, "u"}});
  return result.metric("u").ci.mean;
}

TEST(PaperFigure9, AllAlgorithmsSaturateWhenVcpusMatchPcpus) {
  for (const std::string algorithm : {"rrs", "scs", "rcs"}) {
    EXPECT_GT(pcpu_util(algorithm, {2, 2}), 0.97) << algorithm;
  }
}

TEST(PaperFigure9, ScsFragmentsWhenOvercommitted) {
  EXPECT_GT(pcpu_util("rrs", {2, 3}), 0.97);
  EXPECT_LT(pcpu_util("scs", {2, 3}), 0.90);
  EXPECT_LT(pcpu_util("scs", {2, 4}), 0.95);
}

TEST(PaperFigure9, RcsMitigatesFragmentationAbove90Percent) {
  EXPECT_GT(pcpu_util("rcs", {2, 3}), 0.90);
  EXPECT_GT(pcpu_util("rcs", {2, 4}), 0.90);
  EXPECT_GT(pcpu_util("rcs", {2, 3}), pcpu_util("scs", {2, 3}) + 0.03);
}

// --- Figure 10: VCPU utilization (4 PCPUs, sync-rate sweep) ------------

double vcpu_util(const std::string& algorithm, const std::vector<int>& vms,
                 int sync_k) {
  const auto result =
      exp::run_point(shape_spec(algorithm, 4, vms, sync_k),
                     {{exp::MetricKind::kMeanVcpuUtilization, -1, "u"}});
  return result.metric("u").ci.mean;
}

TEST(PaperFigure10, NoDifferenceWhenVcpusMatchPcpus) {
  const double rrs = vcpu_util("rrs", {2, 2}, 5);
  const double scs = vcpu_util("scs", {2, 2}, 5);
  const double rcs = vcpu_util("rcs", {2, 2}, 5);
  EXPECT_NEAR(rrs, scs, 0.05);
  EXPECT_NEAR(rrs, rcs, 0.05);
  EXPECT_GT(rrs, 0.85);
}

TEST(PaperFigure10, CoSchedulingBeatsRrsWhenOvercommitted) {
  // Paper: with #VCPU > #PCPU "the co-scheduling algorithms reduce
  // synchronization latency". In our reproduction RCS is the strongest
  // (its guest-aware idle-yield sheds blocked-idle time) and SCS is
  // consistently at-or-above RRS; see EXPERIMENTS.md for the SCS/RCS
  // ordering discussion.
  for (const auto& vms : {std::vector<int>{2, 3}, std::vector<int>{2, 4}}) {
    const double rrs = vcpu_util("rrs", vms, 3);
    const double scs = vcpu_util("scs", vms, 3);
    const double rcs = vcpu_util("rcs", vms, 3);
    EXPECT_GE(scs, rrs - 0.015) << vms[1];
    EXPECT_GT(rcs, rrs + 0.05) << vms[1];
    EXPECT_GT(rcs, scs + 0.03) << vms[1];
  }
}

TEST(PaperFigure10, RrsDegradesAsSyncRateIncreases) {
  const double relaxed_sync = vcpu_util("rrs", {2, 4}, 5);
  const double tight_sync = vcpu_util("rrs", {2, 4}, 2);
  EXPECT_LT(tight_sync, relaxed_sync - 0.02);
}

// --- Closed forms, exact at RunSpec defaults ---------------------------
//
// SCS and RRS hand out PCPUs on a fixed timetable that does not depend on
// the guests' work: SCS alternates whole gangs every 5-tick timeslice and
// RRS rotates one global run queue every timeslice. Each metric is then
// a periodic function of time, and its time average over one alternation
// period is a ratio of slot counts. RunSpec's defaults reward the window
// [warmup, end_time) = [200, 3000), 2800 ticks. That is a whole number of
// periods (10 ticks for the SCS gangs and for RRS on 2 PCPUs, 20 ticks for
// RRS on 1 PCPU), so every replication averages whole periods, whatever
// the phase, and lands on the closed form exactly: zero variance, so the
// run stops at the minimum of 6 replications with half-width 0. A window
// that ended mid-period (say 2805 ticks) would instead add a partial
// timeslice whose share depends on which gang or VCPU holds it.

exp::RunSpec default_spec(const std::string& algorithm, int pcpus,
                          const std::vector<int>& vms) {
  exp::RunSpec spec;  // end_time 3000, warmup 200, timeslice 5, seed 42
  spec.system = vm::make_symmetric_config(pcpus, vms, 5);
  spec.scheduler = sched::make_factory(algorithm);
  return spec;
}

TEST(PaperClosedForm, ScsPcpuUtilizationIsTheGangShare) {
  // On 4 PCPUs no two gangs of {2,3} or {2,4} fit together, so SCS runs
  // them in turn, one timeslice each. Per 10-tick period the PCPUs are
  // busy 5*2 + 5*g PCPU-ticks out of 10*4:
  //   {2,3}: (2 + 3) / (4 + 4) = 0.625;  {2,4}: (2 + 4) / (4 + 4) = 0.75.
  const std::vector<std::pair<int, double>> cases = {{3, 0.625}, {4, 0.75}};
  for (const auto& [wide, expected] : cases) {
    const auto result =
        exp::run_point(default_spec("scs", 4, {2, wide}),
                       {{exp::MetricKind::kPcpuUtilization, -1, "u"}});
    const auto& u = result.metric("u");
    EXPECT_NEAR(u.ci.mean, expected, 1e-9) << "{2," << wide << "}";
    EXPECT_NEAR(u.ci.half_width, 0.0, 1e-9) << "{2," << wide << "}";
  }
}

TEST(PaperClosedForm, RrsAvailabilityIsTheFairShare) {
  // 2+1+1 VMs put 4 VCPUs on one round-robin queue. On k PCPUs each VCPU
  // holds a PCPU for k of every 4 timeslices, so its availability is k/4
  // (1 once every VCPU has its own PCPU), for every VCPU alike.
  for (const int k : {1, 2, 4}) {
    std::vector<exp::MetricRequest> metrics;
    for (int vcpu = 0; vcpu < 4; ++vcpu) {
      metrics.push_back({exp::MetricKind::kVcpuAvailability, vcpu,
                         "a" + std::to_string(vcpu)});
    }
    const auto result =
        exp::run_point(default_spec("rrs", k, {2, 1, 1}), metrics);
    for (int vcpu = 0; vcpu < 4; ++vcpu) {
      const auto& a = result.metric("a" + std::to_string(vcpu));
      EXPECT_NEAR(a.ci.mean, k / 4.0, 1e-9) << "k=" << k << " vcpu=" << vcpu;
      EXPECT_NEAR(a.ci.half_width, 0.0, 1e-9)
          << "k=" << k << " vcpu=" << vcpu;
    }
  }
}

}  // namespace
}  // namespace vcpusim
