// Property: the `energy` reward integral equals a brute-force replay of
// sum_p f*V^2 * dt over the frequency segments the structured trace
// records, for randomized ladders, topologies and frequency-driving
// algorithms — and the integral is invariant across enabling modes.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "testing/helpers.hpp"
#include "trace/sinks.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim {
namespace {

constexpr double kEndTime = 120.0;

/// A randomized experiment point: topology, sync ratio and a DVFS
/// ladder with strictly ascending frequencies, drawn from the trial's
/// own PropertyRng (never from the stats::Rng under test).
vm::SystemConfig random_dvfs_config(testing::PropertyRng& rng) {
  const int pcpus = rng.uniform_int(1, 3);
  std::vector<int> vms(static_cast<std::size_t>(rng.uniform_int(1, 3)));
  for (auto& v : vms) v = rng.uniform_int(1, 2);
  auto config = vm::make_symmetric_config(pcpus, vms, rng.uniform_int(0, 5));

  config.dvfs.enabled = true;
  const int num_levels = rng.uniform_int(2, 5);
  double f = rng.uniform(0.2, 0.5);
  for (int i = 0; i < num_levels; ++i) {
    config.dvfs.levels.push_back({f, rng.uniform(0.7, 1.2)});
    f += rng.uniform(0.1, 0.4);
  }
  config.dvfs.initial_level =
      rng.chance(0.5) ? -1 : rng.uniform_int(0, num_levels - 1);
  config.validate();
  return config;
}

/// One recorded frequency switch: PCPU `pcpu` moved to `level` at `time`.
struct FreqSwitch {
  double time = 0.0;
  std::int64_t pcpu = 0;
  std::int64_t level = 0;
};

struct EnergyRun {
  double accumulated = 0.0;
  std::vector<FreqSwitch> freq_events;
};

EnergyRun run_energy(const vm::SystemConfig& config,
                     const std::string& algorithm, std::uint64_t seed,
                     bool incremental) {
  auto system = vm::build_system(config, sched::make_factory(algorithm)());
  auto energy = vm::energy_rate(*system, 0.0);

  trace::RingBufferSink sink(0, san::trace_bit(san::TraceCategory::kScheduler));
  san::SimulatorConfig sim_config;
  sim_config.end_time = kEndTime;
  sim_config.seed = seed;
  sim_config.incremental_enabling = incremental;
  san::Simulator sim(sim_config);
  sim.add_reward(*energy);
  sim.set_trace(&sink);
  sim.set_model(*system->model);
  sim.run();

  EnergyRun out;
  out.accumulated = energy->accumulated();
  for (const san::TraceEvent e : sink.events()) {
    if (e.detail == "freq") {
      out.freq_events.push_back({e.time, e.a, e.b});
    }
  }
  return out;
}

/// Brute-force replay: start every PCPU at the configured initial level
/// and integrate sum_p f*V^2 over the piecewise-constant frequency
/// segments between the recorded switches ("freq" events: a = PCPU,
/// b = new level).
double replay_energy(const vm::SystemConfig& config,
                     const std::vector<FreqSwitch>& events) {
  const auto levels = config.dvfs.effective_levels();
  std::vector<double> power;
  power.reserve(levels.size());
  for (const auto& l : levels) {
    power.push_back(l.frequency * l.voltage * l.voltage);
  }
  std::vector<int> level(static_cast<std::size_t>(config.num_pcpus),
                         config.dvfs.effective_initial_level());
  const auto rate = [&] {
    double r = 0.0;
    for (const int l : level) r += power[static_cast<std::size_t>(l)];
    return r;
  };
  double total = 0.0;
  double t = 0.0;
  for (const auto& e : events) {
    total += rate() * (e.time - t);
    t = e.time;
    level.at(static_cast<std::size_t>(e.pcpu)) = static_cast<int>(e.level);
  }
  total += rate() * (kEndTime - t);
  return total;
}

TEST(EnergyProperty, RewardIntegralMatchesBruteForceReplay) {
  const std::vector<std::string> algorithms = {"dvfs-cc", "dvfs-la",
                                               "rebalance", "rrs"};
  bool saw_switches = false;
  for (int trial = 0; trial < 8; ++trial) {
    testing::PropertyRng rng(0x9E3779B9ULL + static_cast<std::uint64_t>(trial));
    const auto config = random_dvfs_config(rng);
    const auto& algorithm =
        algorithms[static_cast<std::size_t>(trial) % algorithms.size()];
    SCOPED_TRACE("trial " + std::to_string(trial) + " (" + algorithm + ")");

    const auto run = run_energy(config, algorithm,
                                1000 + static_cast<std::uint64_t>(trial), true);
    const double expected = replay_energy(config, run.freq_events);
    EXPECT_NEAR(run.accumulated, expected,
                1e-8 * (1.0 + std::abs(expected)))
        << run.freq_events.size() << " frequency switches";
    saw_switches = saw_switches || !run.freq_events.empty();
  }
  // The sweep is vacuous if no trial ever changed a frequency.
  EXPECT_TRUE(saw_switches);
}

TEST(EnergyProperty, IntegralInvariantAcrossEnablingModes) {
  for (int trial = 0; trial < 4; ++trial) {
    testing::PropertyRng rng(0xA5A5A5A5ULL + static_cast<std::uint64_t>(trial));
    const auto config = random_dvfs_config(rng);
    const std::string algorithm = trial % 2 == 0 ? "dvfs-cc" : "dvfs-la";
    SCOPED_TRACE("trial " + std::to_string(trial) + " (" + algorithm + ")");

    const auto incremental = run_energy(config, algorithm, 77, true);
    const auto full_scan = run_energy(config, algorithm, 77, false);
    EXPECT_EQ(incremental.accumulated, full_scan.accumulated)
        << "energy integral depends on the enabling mode";
    ASSERT_EQ(incremental.freq_events.size(), full_scan.freq_events.size());
  }
}

}  // namespace
}  // namespace vcpusim
