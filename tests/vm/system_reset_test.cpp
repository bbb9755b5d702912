// Reset and rebind are equivalent to a fresh build. exp::SystemPool runs
// every replication on a built system that is either reset
// (VirtualSystem::reset + Simulator::reset(seed)) or, on the first
// checkout by a new run, rebound to another scheduler with a new
// Simulator. Either way the replication must equal one on a freshly
// built system with the same seed: the completion sequence, the kernel's
// RunStats counters, the bridge counters and the accumulated value of
// every reward builder in vm/metrics.hpp, for every builtin algorithm
// under both enabling modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "testing/helpers.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::vm {
namespace {

constexpr san::Time kEndTime = 300.0;
constexpr san::Time kWarmup = 30.0;
constexpr std::uint64_t kFirstSeed = 11;
constexpr std::uint64_t kSeed = 20260805;

/// Contended enough that the algorithms differ, with the spinlock and
/// DVFS extensions on so their places, counters and rewards are covered.
SystemConfig reset_config() {
  SystemConfig config = make_symmetric_config(2, {2, 1, 1}, 5);
  for (auto& vmc : config.vms) vmc.spinlock.enabled = true;
  config.dvfs.enabled = true;
  return config;
}

/// What one SystemPool slot holds: a built system, the simulator bound
/// to its model and the reward variables bound to its places.
struct Slot {
  std::unique_ptr<VirtualSystem> system;
  std::unique_ptr<san::Simulator> sim;
  std::vector<std::unique_ptr<san::RewardVariable>> rewards;

  Slot(const std::string& algorithm, bool incremental)
      : Slot(reset_config(), algorithm, incremental) {}

  Slot(const SystemConfig& config, const std::string& algorithm,
       bool incremental)
      : system(build_system(config, sched::make_factory(algorithm)())) {
    bind(incremental);
  }

  /// A new simulator and a new set of every reward builder, as a new
  /// pool stamp binds them. The old simulator releases the model first.
  void bind(bool incremental) {
    san::SimulatorConfig config;
    config.end_time = kEndTime;
    config.incremental_enabling = incremental;
    sim = std::make_unique<san::Simulator>(config);
    sim->set_model(*system->model);
    rewards.clear();
    const VirtualSystem& s = *system;
    for (int v = 0; v < s.num_vcpus(); ++v) {
      rewards.push_back(vcpu_availability(s, v, kWarmup));
      rewards.push_back(vcpu_utilization(s, v, kWarmup));
    }
    for (int vm = 0; vm < static_cast<int>(s.vms.size()); ++vm) {
      rewards.push_back(vm_blocked_fraction(s, vm, kWarmup));
    }
    rewards.push_back(mean_vcpu_availability(s, kWarmup));
    rewards.push_back(pcpu_utilization(s, kWarmup));
    rewards.push_back(mean_vcpu_utilization(s, kWarmup));
    rewards.push_back(mean_spin_fraction(s, kWarmup));
    rewards.push_back(mean_productive_fraction(s, kWarmup));
    rewards.push_back(energy_rate(s, kWarmup));
    rewards.push_back(system_throughput(s, kWarmup));
    for (auto& r : rewards) sim->add_reward(*r);
  }
};

struct Replication {
  std::uint64_t fire_digest = 0;
  san::RunStats stats;
  BridgeStats bridge;
  std::vector<double> rewards;
};

Replication run_replication(Slot& slot, std::uint64_t seed) {
  auto sink = testing::fire_sink();
  slot.sim->set_trace(&sink);
  slot.sim->reset(seed);
  Replication out;
  out.stats = slot.sim->advance_until(kEndTime);
  slot.sim->set_trace(nullptr);
  out.fire_digest = testing::fire_digest(sink);
  out.bridge = *slot.system->scheduler_places.bridge_stats;
  for (const auto& r : slot.rewards) out.rewards.push_back(r->accumulated());
  return out;
}

void expect_identical(const Replication& fresh, const Replication& reused) {
  EXPECT_GT(fresh.stats.events, 0u);
  EXPECT_EQ(reused.fire_digest, fresh.fire_digest);
  EXPECT_EQ(reused.stats.events, fresh.stats.events);
  EXPECT_EQ(reused.stats.enabling_evals, fresh.stats.enabling_evals);
  EXPECT_EQ(reused.stats.aborted_events, fresh.stats.aborted_events);
  EXPECT_EQ(reused.bridge.ticks, fresh.bridge.ticks);
  EXPECT_EQ(reused.bridge.schedules_in, fresh.bridge.schedules_in);
  EXPECT_EQ(reused.bridge.schedules_out, fresh.bridge.schedules_out);
  EXPECT_EQ(reused.bridge.preemptions, fresh.bridge.preemptions);
  EXPECT_EQ(reused.bridge.freq_changes, fresh.bridge.freq_changes);
  // Exact: the contract is bit-identity, not tolerance.
  EXPECT_EQ(reused.rewards, fresh.rewards);
}

class SystemReset : public ::testing::TestWithParam<bool> {};

TEST_P(SystemReset, ResetEqualsFreshBuildForEveryAlgorithm) {
  const bool incremental = GetParam();
  for (const auto& algorithm : sched::builtin_algorithms()) {
    SCOPED_TRACE(algorithm);
    Slot fresh(algorithm, incremental);
    const Replication expected = run_replication(fresh, kSeed);

    Slot reused(algorithm, incremental);
    run_replication(reused, kFirstSeed);
    reused.system->reset();
    expect_identical(expected, run_replication(reused, kSeed));
  }
}

TEST_P(SystemReset, RebindEqualsFreshBuildForEveryAlgorithm) {
  const bool incremental = GetParam();
  const auto algorithms = sched::builtin_algorithms();
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    const std::string& previous = algorithms[(a + 1) % algorithms.size()];
    SCOPED_TRACE(algorithms[a] + " after " + previous);
    Slot fresh(algorithms[a], incremental);
    const Replication expected = run_replication(fresh, kSeed);

    Slot rebound(previous, incremental);
    run_replication(rebound, kFirstSeed);
    rebound.system->rebind_scheduler(sched::make_factory(algorithms[a])());
    rebound.system->reset();
    rebound.bind(incremental);
    expect_identical(expected, run_replication(rebound, kSeed));
  }
}

// The reset and rebind checks above hold within one enabling mode; this
// one holds the modes to each other. The VM gates report the effect
// variant each firing took, so incremental enabling dirties far less
// than the full scan re-checks: every algorithm, spinlock and DVFS on,
// under both barrier modes, must still walk the identical trajectory.
TEST(SystemResetModes, IncrementalMatchesFullScanForEverySyncMode) {
  for (const SyncMode sync : {SyncMode::kEveryKth, SyncMode::kRandom}) {
    for (const auto& algorithm : sched::builtin_algorithms()) {
      SCOPED_TRACE(algorithm + (sync == SyncMode::kRandom ? "|random-sync"
                                                          : "|every-kth"));
      Replication runs[2];
      for (const bool incremental : {false, true}) {
        SystemConfig config = reset_config();
        for (auto& vmc : config.vms) vmc.sync_mode = sync;
        Slot slot(config, algorithm, incremental);
        runs[incremental ? 1 : 0] = run_replication(slot, kSeed);
      }
      const Replication& full = runs[0];
      const Replication& incremental = runs[1];
      EXPECT_GT(full.stats.events, 0u);
      EXPECT_EQ(incremental.fire_digest, full.fire_digest);
      EXPECT_EQ(incremental.stats.events, full.stats.events);
      EXPECT_EQ(incremental.stats.aborted_events, full.stats.aborted_events);
      EXPECT_EQ(incremental.bridge.schedules_in, full.bridge.schedules_in);
      EXPECT_EQ(incremental.bridge.freq_changes, full.bridge.freq_changes);
      EXPECT_EQ(incremental.rewards, full.rewards);
      EXPECT_LT(incremental.stats.enabling_evals, full.stats.enabling_evals);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EnablingModes, SystemReset, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Incremental" : "FullScan";
                         });

}  // namespace
}  // namespace vcpusim::vm
