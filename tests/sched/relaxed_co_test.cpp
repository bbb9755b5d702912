#include "sched/relaxed_co.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "sched/contract.hpp"
#include "testing/helpers.hpp"
#include "vm/metrics.hpp"

namespace vcpusim::sched {
namespace {

using vm::build_system;
using vm::make_symmetric_config;

TEST(RelaxedCo, Name) { EXPECT_EQ(make_relaxed_co()->name(), "RCS"); }

TEST(RelaxedCo, OptionValidation) {
  RcsOptions bad;
  bad.skew_threshold = 0.0;
  EXPECT_THROW(make_relaxed_co(bad), std::invalid_argument);
  RcsOptions inverted;
  inverted.skew_threshold = 5.0;
  inverted.resume_threshold = 10.0;
  EXPECT_THROW(make_relaxed_co(inverted), std::invalid_argument);
  RcsOptions ok;
  ok.skew_threshold = 5.0;
  ok.resume_threshold = 2.0;
  EXPECT_NO_THROW(make_relaxed_co(ok));
}

TEST(RelaxedCo, SchedulesWideVmOnOnePcpuUnlikeScs) {
  // Paper IV.A: "RCS is able to schedule the 2-VCPU VM" with 1 PCPU.
  auto system =
      build_system(make_symmetric_config(1, {2, 1, 1}, 5), make_relaxed_co());
  auto avail0 = vm::vcpu_availability(*system, 0, 200.0);
  auto avail1 = vm::vcpu_availability(*system, 1, 200.0);
  testing::run_system(*system, 4200.0, 1, {avail0.get(), avail1.get()});
  EXPECT_GT(avail0->time_averaged(4200.0), 0.03);
  EXPECT_GT(avail1->time_averaged(4200.0), 0.03);
}

TEST(RelaxedCo, BusyProgressSkewStaysBounded) {
  // Property: the cumulative BUSY-time gap between siblings never grows
  // far beyond skew_threshold (+ one timeslice of slack).
  RcsOptions options;
  options.skew_threshold = 8.0;
  auto spy =
      std::make_unique<testing::SpyScheduler>(make_relaxed_co(options));
  auto ticks = spy->ticks();
  auto cfg = make_symmetric_config(2, {2, 1, 1}, 4);
  cfg.default_timeslice = 5.0;
  auto system = build_system(cfg, std::move(spy));
  testing::run_system(*system, 2000.0, 9);

  // Recompute the differential skew of the 2-VCPU VM (globals 0 and 1)
  // from the spy's snapshots, exactly as the algorithm defines it: skew
  // grows by 1 while a sibling makes guest progress and this (runnable)
  // VCPU does not, shrinks while catching up, and resets while idle.
  std::vector<int> assigned_prev(system->vcpus.size(), -1);
  std::map<int, double> skew;
  double max_skew_seen = 0;
  for (const auto& t : *ticks) {
    std::map<int, bool> made, engaged;
    for (const auto& v : t.before) {
      if (v.vcpu_id > 1) continue;
      const bool was_busy =
          v.status == static_cast<int>(vm::VcpuStatus::kBusy) ||
          (v.assigned_pcpu < 0 && v.remaining_load > 0);
      made[v.vcpu_id] =
          assigned_prev[static_cast<std::size_t>(v.vcpu_id)] >= 0 && was_busy;
      engaged[v.vcpu_id] =
          v.status == static_cast<int>(vm::VcpuStatus::kBusy) ||
          v.remaining_load > 0;
    }
    for (const int v : {0, 1}) {
      const bool sibling_progressed = made[1 - v];
      if (!engaged[v]) {
        skew[v] = 0;
      } else {
        skew[v] = std::max(0.0, skew[v] + (sibling_progressed ? 1.0 : 0.0) -
                                    (made[v] ? 1.0 : 0.0));
      }
      max_skew_seen = std::max(max_skew_seen, skew[v]);
    }
    for (const auto& v : t.after) {
      assigned_prev[static_cast<std::size_t>(v.vcpu_id)] =
          v.schedule_in >= 0          ? v.schedule_in
          : (v.schedule_out != 0 ? -1 : v.assigned_pcpu);
    }
  }
  // The enforced bound is threshold plus slack: one timeslice of lead can
  // accrue before the co-stop lands, plus laggard catch-up wait.
  EXPECT_LE(max_skew_seen, options.skew_threshold + 2.0 * cfg.default_timeslice);
}

TEST(RelaxedCo, CoStartsWholeGangWhenPcpusAvailable) {
  // With 4 PCPUs and VMs {2,2}, RCS behaves like co-scheduling: full
  // availability, full utilization of demand.
  auto system =
      build_system(make_symmetric_config(4, {2, 2}, 5), make_relaxed_co());
  auto avail = vm::mean_vcpu_availability(*system, 10.0);
  testing::run_system(*system, 500.0, 1, {avail.get()});
  EXPECT_NEAR(avail->time_averaged(500.0), 1.0, 1e-9);
}

TEST(RelaxedCo, BetterPcpuUtilizationThanScsUnderFragmentation) {
  // Paper IV.B: RCS "can always achieve more than 90% PCPU utilization"
  // where SCS fragments.
  auto rcs_system =
      build_system(make_symmetric_config(4, {2, 3}, 5), make_relaxed_co());
  auto rcs_util = vm::pcpu_utilization(*rcs_system, 100.0);
  testing::run_system(*rcs_system, 2100.0, 3, {rcs_util.get()});
  EXPECT_GT(rcs_util->time_averaged(2100.0), 0.90);
}

TEST(RelaxedCo, ConstrainedLeadersWaitForLaggards) {
  // Two siblings on one PCPU: neither can run away; availability of the
  // two siblings stays close.
  auto system =
      build_system(make_symmetric_config(1, {2}, 4), make_relaxed_co());
  auto a0 = vm::vcpu_availability(*system, 0, 200.0);
  auto a1 = vm::vcpu_availability(*system, 1, 200.0);
  testing::run_system(*system, 4200.0, 11, {a0.get(), a1.get()});
  EXPECT_NEAR(a0->time_averaged(4200.0), a1->time_averaged(4200.0), 0.10);
}

TEST(RelaxedCo, ResumeDefaultsToHalfThreshold) {
  RcsOptions options;
  options.skew_threshold = 12.0;
  // No explicit resume: must construct fine and run.
  auto system =
      build_system(make_symmetric_config(2, {2, 2}, 5), make_relaxed_co(options));
  EXPECT_NO_THROW(testing::run_system(*system, 100.0));
}

/// Forwards to an inner scheduler and folds every tick's decisions (each
/// VCPU's schedule_in and schedule_out, in id order) into an FNV-1a
/// digest. It also sorts each schedule_out by the RCS path that can have
/// made it: a running VCPU with guest work left can only be co-stopped
/// (the idle yield takes READY VCPUs without load), and an idle VCPU
/// whose non-idle siblings all kept their PCPUs this tick can only have
/// yielded (a co-stop needs a non-idle sibling left waiting).
class DecisionDigest final : public vm::Scheduler {
 public:
  struct Counts {
    std::uint64_t digest = 14695981039346656037ull;
    long ticks = 0;
    long co_stops = 0;
    long idle_yields = 0;
  };

  explicit DecisionDigest(vm::SchedulerPtr inner) : inner_(std::move(inner)) {}

  void on_attach(const vm::SystemTopology& topology) override {
    inner_->on_attach(topology);
  }

  bool schedule(std::span<vm::VCPU_host_external> vcpus,
                std::span<vm::PCPU_external> pcpus, long timestamp) override {
    before_.assign(vcpus.begin(), vcpus.end());
    const bool ok = inner_->schedule(vcpus, pcpus, timestamp);
    ++counts_->ticks;
    for (const auto& v : vcpus) {
      mix(v.schedule_in);
      mix(v.schedule_out);
    }
    for (std::size_t i = 0; i < vcpus.size(); ++i) {
      if (vcpus[i].schedule_out == 0) continue;
      if (non_idle(before_[i])) {
        ++counts_->co_stops;
        continue;
      }
      bool siblings_kept = true;
      for (std::size_t j = 0; j < vcpus.size(); ++j) {
        if (j == i || before_[j].vm_id != before_[i].vm_id) continue;
        if (non_idle(before_[j]) &&
            (before_[j].assigned_pcpu < 0 || vcpus[j].schedule_out != 0)) {
          siblings_kept = false;
        }
      }
      if (siblings_kept) ++counts_->idle_yields;
    }
    return ok;
  }

  std::string name() const override { return inner_->name(); }

  /// Shared so the counts survive the system taking ownership.
  std::shared_ptr<Counts> counts() const { return counts_; }

 private:
  static bool non_idle(const vm::VCPU_host_external& v) {
    return v.status == static_cast<int>(vm::VcpuStatus::kBusy) ||
           v.remaining_load > 0;
  }

  void mix(int value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t k = 0; k < sizeof value; ++k) {
      counts_->digest ^= bytes[k];
      counts_->digest *= 1099511628211ull;
    }
  }

  vm::SchedulerPtr inner_;
  std::vector<vm::VCPU_host_external> before_;
  std::shared_ptr<Counts> counts_ = std::make_shared<Counts>();
};

DecisionDigest::Counts digest_decisions(const vm::SystemConfig& config,
                                        san::Time end_time,
                                        std::uint64_t seed) {
  auto digest = std::make_unique<DecisionDigest>(make_relaxed_co());
  const auto counts = digest->counts();
  auto system = build_system(config, std::move(digest));
  testing::run_system(*system, end_time, seed);
  return *counts;
}

// The goldens reach RCS only on small systems. These pin every tick's
// decisions on two wider shapes, with digests recorded before the
// scheduler was rewritten as one walk per VM. At sync 1:2 a leader
// reaches a barrier and idles long before its lead passes the skew
// threshold, so busy VCPUs are never co-stopped there (a co-stop of an
// idle VCPU looks like its yield from outside); the 64-VCPU shape syncs
// at 1:50, where leaders do run ahead and are co-stopped.
TEST(RelaxedCo, DecisionsPinnedOnSixFourVcpuVmsOnSixteenPcpus) {
  const auto counts = digest_decisions(
      make_symmetric_config(16, {4, 4, 4, 4, 4, 4}, 2), 3000.0, 5);
  EXPECT_EQ(counts.ticks, 3000);
  EXPECT_EQ(counts.digest, 8537328007820676897ull);
  EXPECT_GT(counts.idle_yields, 0);
}

TEST(RelaxedCo, DecisionsPinnedOnSixtyFourVcpus) {
  const auto counts = digest_decisions(
      make_symmetric_config(40, {8, 8, 4, 4, 4, 4, 4, 4, 2, 2, 2, 2, 2, 2, 2,
                                 2, 1, 1, 1, 1, 1, 1, 1, 1}, 50),
      2000.0, 9);
  EXPECT_EQ(counts.ticks, 2000);
  EXPECT_EQ(counts.digest, 7248595596968216837ull);
  EXPECT_GT(counts.co_stops, 0);
  EXPECT_GT(counts.idle_yields, 0);
}

TEST(RelaxedCo, PassesSchedulerContract) {
  const auto diagnostics =
      check_scheduler_contract("rcs", [] { return make_relaxed_co(); });
  std::string rendered;
  for (const auto& d : diagnostics) rendered += d.to_text() + "\n";
  EXPECT_TRUE(diagnostics.empty()) << rendered;
}

}  // namespace
}  // namespace vcpusim::sched
