// The footprint sanitizer must be a pure observer: running every
// builtin algorithm (with and without the spinlock extension) under
// verify_footprints must (a) walk the bit-identical event trajectory a
// plain run walks, and (b) report zero footprint violations on the
// shipped models — the dynamic half of the "prove the footprints"
// gate, complementing the static lint in lint_shipped_models_test.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "san/sanitizer.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "testing/helpers.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim {
namespace {

constexpr san::Time kEndTime = 150.0;
constexpr std::uint64_t kSeed = 20260805;

vm::SystemConfig fig8_config(bool spinlock) {
  auto cfg = vm::make_symmetric_config(2, {2, 1, 1}, 5);
  if (spinlock) {
    for (auto& vmc : cfg.vms) vmc.spinlock.enabled = true;
  }
  return cfg;
}

struct TraceRun {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::size_t footprint_errors = 0;
  std::string report_text;
};

TraceRun run_trace(const vm::SystemConfig& system_config,
                   const std::string& algorithm, bool verify_footprints) {
  auto system =
      vm::build_system(system_config, sched::make_factory(algorithm)());
  san::SimulatorConfig config;
  config.end_time = kEndTime;
  config.seed = kSeed;
  config.verify_footprints = verify_footprints;
  san::Simulator sim(config);
  sim.set_model(*system->model);
  auto fires = testing::fire_sink();
  sim.set_trace(&fires);
  const auto stats = sim.run();
  TraceRun run;
  run.events = stats.events;
  run.digest = testing::fire_digest(fires);
  if (verify_footprints) {
    const san::FootprintReport* report = sim.footprint_report();
    EXPECT_NE(report, nullptr);
    if (report != nullptr) {
      run.footprint_errors = report->errors();
      run.report_text = report->render_text();
    }
  }
  return run;
}

TEST(SanitizerIdentity, EveryAlgorithmIsTrajectoryIdenticalAndClean) {
  for (const auto& algorithm : sched::builtin_algorithms()) {
    for (const bool spinlock : {false, true}) {
      SCOPED_TRACE(algorithm + (spinlock ? "|spinlock" : "|plain"));
      const TraceRun plain = run_trace(fig8_config(spinlock), algorithm, false);
      const TraceRun checked =
          run_trace(fig8_config(spinlock), algorithm, true);
      EXPECT_EQ(checked.events, plain.events)
          << "sanitizer perturbed the event count";
      EXPECT_EQ(checked.digest, plain.digest)
          << "sanitizer perturbed the event trajectory";
      EXPECT_EQ(checked.footprint_errors, 0u) << checked.report_text;
    }
  }
}

// The VM gates report the effect variant each firing took; the
// sanitizer checks every write against the reported variant's places.
// Every path of those gates must map to a covering variant, including
// the spinlock, DVFS and random-barrier paths the configuration above
// leaves out.
TEST(SanitizerIdentity, VariantReportsCleanWithDvfsAndBothSyncModes) {
  for (const auto& algorithm : sched::builtin_algorithms()) {
    for (const vm::SyncMode sync :
         {vm::SyncMode::kEveryKth, vm::SyncMode::kRandom}) {
      SCOPED_TRACE(algorithm + (sync == vm::SyncMode::kRandom
                                    ? "|dvfs|spinlock|random-sync"
                                    : "|dvfs|spinlock|every-kth"));
      vm::SystemConfig config = fig8_config(/*spinlock=*/true);
      config.dvfs.enabled = true;
      for (auto& vmc : config.vms) vmc.sync_mode = sync;
      const TraceRun plain = run_trace(config, algorithm, false);
      const TraceRun checked = run_trace(config, algorithm, true);
      EXPECT_EQ(checked.events, plain.events);
      EXPECT_EQ(checked.digest, plain.digest);
      EXPECT_EQ(checked.footprint_errors, 0u) << checked.report_text;
    }
  }
}

}  // namespace
}  // namespace vcpusim
