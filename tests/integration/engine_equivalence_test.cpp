// Whole-stack kernel equivalence: every shipped scheduling algorithm,
// run with the compiled kernel's lowered dispatch (arena predicate and
// delta programs, bitmask dirty tracking) and with every gate forced
// through the closure trampoline (SimulatorConfig::verify_footprints;
// both dispatch modes share the one bitmask dirty set, so this pins
// dispatch only), must produce bit-identical trajectories — same firing sequence, same
// event/evaluation counts, same reward integrals, same job totals — for
// every combination of incremental enabling and workload depth. This is
// the system-level closure of tests/san/compiled_engine_test.cpp: the
// vm model exercises dynamic write footprints, compositional
// scheduler-bridge gates, uniform-int workload draws, and structured
// markings that no synthetic kernel model covers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "testing/helpers.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim {
namespace {

struct Outcome {
  /// Full firing record; equality across dispatch modes is the
  /// trajectory check.
  std::vector<testing::Fire> fires;
  san::RunStats stats;
  double avail, util, pcpu;
  std::int64_t jobs;
  double energy = 0.0;  ///< DVFS runs only (integral of sum_p f*V^2)
};

Outcome run_stack(const std::string& algorithm, bool trampoline,
                  bool incremental, int jobs_per_vcpu, std::uint64_t seed,
                  bool dvfs = false) {
  auto config_vm = vm::make_symmetric_config(2, {2, 1}, jobs_per_vcpu);
  config_vm.dvfs.enabled = dvfs;  // default ladder when on
  auto system =
      vm::build_system(config_vm, sched::make_factory(algorithm)());
  auto avail = vm::mean_vcpu_availability(*system, 50.0);
  auto util = vm::mean_vcpu_utilization(*system, 50.0);
  auto pcpu = vm::pcpu_utilization(*system, 50.0);

  std::shared_ptr<san::RewardVariable> energy;
  if (dvfs) energy = vm::energy_rate(*system, 50.0);

  san::SimulatorConfig config;
  config.end_time = 400.0;
  config.seed = seed;
  config.verify_footprints = trampoline;
  config.incremental_enabling = incremental;
  san::Simulator sim(config);
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);
  sim.add_reward(*avail);
  sim.add_reward(*util);
  sim.add_reward(*pcpu);
  if (energy != nullptr) sim.add_reward(*energy);
  sim.set_model(*system->model);
  const auto stats = sim.run();
  return {testing::fires(rec), stats,
          avail->time_averaged(400.0), util->time_averaged(400.0),
          pcpu->time_averaged(400.0), vm::total_completed_jobs(*system),
          energy != nullptr ? energy->accumulated() : 0.0};
}

void expect_identical(const Outcome& tramp, const Outcome& lowered,
                      const std::string& label) {
  ASSERT_FALSE(tramp.fires.empty()) << label;
  EXPECT_EQ(tramp.fires, lowered.fires) << label;
  EXPECT_EQ(tramp.stats.events, lowered.stats.events) << label;
  EXPECT_EQ(tramp.stats.enabling_evals, lowered.stats.enabling_evals) << label;
  EXPECT_EQ(tramp.stats.aborted_events, lowered.stats.aborted_events) << label;
  EXPECT_EQ(tramp.jobs, lowered.jobs) << label;
  EXPECT_DOUBLE_EQ(tramp.avail, lowered.avail) << label;
  EXPECT_DOUBLE_EQ(tramp.util, lowered.util) << label;
  EXPECT_DOUBLE_EQ(tramp.pcpu, lowered.pcpu) << label;
  EXPECT_DOUBLE_EQ(tramp.energy, lowered.energy) << label;
}

TEST(EngineEquivalence, EveryAlgorithmBitIdenticalAcrossEngines) {
  for (const auto& name : sched::builtin_algorithms()) {
    for (const int jobs : {1, 8}) {
      const std::string label = name + "/jobs=" + std::to_string(jobs);
      const auto tramp = run_stack(name, true, true, jobs, 99);
      const auto lowered = run_stack(name, false, true, jobs, 99);
      expect_identical(tramp, lowered, label);
    }
  }
}

TEST(EngineEquivalence, FullScanModeBitIdenticalAcrossEngines) {
  // With incremental enabling off, both dispatch modes fall back to
  // full rescans after every firing; the lowered fast paths (arena
  // predicates, enabled bitmasks) must not leak into this mode's
  // evaluation accounting.
  for (const auto& name : sched::builtin_algorithms()) {
    const auto tramp = run_stack(name, true, false, 4, 7);
    const auto lowered = run_stack(name, false, false, 4, 7);
    expect_identical(tramp, lowered, name + "/full-scan");
  }
}

TEST(EngineEquivalence, DvfsSystemsBitIdenticalAcrossEnginesAndJobs) {
  // The DVFS lowering (Freq_Levels vector marking, per-VCPU Service_Scale
  // places, the bridge's frequency-switch pass, the energy reward's
  // dynamic reads) must survive the lowered dispatch and be independent
  // of the workload depth, for frequency-driving and oblivious
  // algorithms alike.
  for (const std::string name : {"dvfs-cc", "dvfs-la", "rebalance", "credit"}) {
    for (const int jobs : {1, 8}) {
      const std::string label = name + "/dvfs/jobs=" + std::to_string(jobs);
      const auto tramp = run_stack(name, true, true, jobs, 99, /*dvfs=*/true);
      const auto lowered =
          run_stack(name, false, true, jobs, 99, /*dvfs=*/true);
      expect_identical(tramp, lowered, label);
    }
    // Full-scan enabling walks the identical DVFS trajectory too.
    const auto tramp = run_stack(name, true, false, 4, 7, /*dvfs=*/true);
    const auto lowered = run_stack(name, false, false, 4, 7, /*dvfs=*/true);
    expect_identical(tramp, lowered, name + "/dvfs/full-scan");
  }
}

TEST(EngineEquivalence, IncrementalTogglesAgreeWithinCompiledEngine) {
  // The incremental index is a pure optimization: the trajectory (though
  // not enabling_evals) must match full-scan mode.
  const auto inc = run_stack("credit", false, true, 4, 31);
  const auto full = run_stack("credit", false, false, 4, 31);
  EXPECT_EQ(inc.fires, full.fires);
  EXPECT_EQ(inc.stats.events, full.stats.events);
  EXPECT_EQ(inc.jobs, full.jobs);
  EXPECT_LT(inc.stats.enabling_evals, full.stats.enabling_evals);
}

}  // namespace
}  // namespace vcpusim
