#include "trace/timeline.hpp"

#include <gtest/gtest.h>

#include "sched/registry.hpp"
#include "testing/helpers.hpp"

namespace vcpusim::trace {
namespace {

std::unique_ptr<vm::VirtualSystem> small_system(int pcpus = 1,
                                                std::vector<int> vms = {1, 1}) {
  return vm::build_system(vm::make_symmetric_config(pcpus, vms, 0),
                          sched::make_factory("rrs")());
}

using testing::run_traced;

TEST(Timeline, SamplesOncePerSchedulerTick) {
  auto system = small_system();
  TimelineRecorder recorder(*system);
  run_traced(*system, recorder, 20.0);
  EXPECT_EQ(recorder.ticks(), 20u);
  EXPECT_EQ(recorder.num_vcpus(), 2);
}

TEST(Timeline, BoundedTicksKeepTail) {
  auto system = small_system();
  TimelineRecorder recorder(*system, 5);
  run_traced(*system, recorder, 20.0);
  EXPECT_EQ(recorder.ticks(), 5u);
}

TEST(Timeline, StatesReflectContention) {
  // 2 single-VCPU VMs on 1 PCPU: at every tick exactly one VCPU is
  // scheduled; the other is INACTIVE.
  auto system = small_system();
  TimelineRecorder recorder(*system);
  run_traced(*system, recorder, 40.0);
  for (std::size_t t = 1; t < recorder.ticks(); ++t) {  // skip warm tick 1
    int active = 0;
    for (int v = 0; v < 2; ++v) {
      if (recorder.state(t, v) != TickState::kInactive) ++active;
      if (recorder.state(t, v) != TickState::kInactive) {
        EXPECT_EQ(recorder.pcpu(t, v), 0);
      } else {
        EXPECT_EQ(recorder.pcpu(t, v), -1);
      }
    }
    EXPECT_EQ(active, 1) << "tick " << t;
  }
}

TEST(Timeline, FractionsSumToOne) {
  auto system = small_system(2, {2, 1});
  TimelineRecorder recorder(*system);
  run_traced(*system, recorder, 100.0);
  for (int v = 0; v < 3; ++v) {
    const double total = recorder.fraction(v, TickState::kInactive) +
                         recorder.fraction(v, TickState::kReady) +
                         recorder.fraction(v, TickState::kBusy) +
                         recorder.fraction(v, TickState::kSpinning);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(Timeline, BusyDominatesForSaturatedUncontendedSystem) {
  auto system = small_system(2, {1, 1});  // a PCPU each, saturating load
  TimelineRecorder recorder(*system);
  run_traced(*system, recorder, 100.0);
  for (int v = 0; v < 2; ++v) {
    EXPECT_GT(recorder.fraction(v, TickState::kBusy), 0.9);
  }
}

TEST(Timeline, SpinStateRendered) {
  auto cfg = vm::make_symmetric_config(4, {4}, 0);
  cfg.vms[0].spinlock.enabled = true;
  cfg.vms[0].spinlock.lock_probability = 1.0;
  cfg.vms[0].spinlock.critical_fraction = 1.0;
  auto system = vm::build_system(std::move(cfg), sched::make_factory("rrs")());
  TimelineRecorder recorder(*system);
  run_traced(*system, recorder, 100.0);
  double spin_total = 0;
  for (int v = 0; v < 4; ++v) {
    spin_total += recorder.fraction(v, TickState::kSpinning);
  }
  EXPECT_GT(spin_total, 0.5);  // heavy contention: lots of '~'
  EXPECT_NE(recorder.render().find('~'), std::string::npos);
}

TEST(Timeline, RenderShape) {
  auto system = small_system();
  TimelineRecorder recorder(*system);
  run_traced(*system, recorder, 30.0);
  const std::string gantt = recorder.render(10);
  EXPECT_NE(gantt.find("VM1.1 |"), std::string::npos);
  EXPECT_NE(gantt.find("VM2.1 |"), std::string::npos);
  EXPECT_NE(gantt.find("last 10 ticks"), std::string::npos);
}

}  // namespace
}  // namespace vcpusim::trace
