// Golden-trace equivalence for the shipped scheduling algorithms.
//
// The scheduling stack (bridge + algorithms) is refactor-hot: the
// layered rework must keep every algorithm's decisions — and therefore
// the full event trajectory and the RNG stream — bit-identical. These
// tests pin each algorithm's trajectory digest and reward estimates on
// a Figure-8-style system (three VMs, 2+1+1 VCPUs, sync ratio 1:5),
// with and without the spinlock extension, against fixtures recorded
// under tests/testing/golden/.
//
// Each fixture row is checked four ways:
//   * the event trajectory with incremental enabling ON,
//   * the identical trajectory with incremental enabling OFF,
//   * reward estimates with jobs = 1,
//   * bit-identical reward estimates with jobs = 8.
//
// Regenerate (only when a trajectory change is intended) with:
//   VCPUSIM_UPDATE_GOLDEN=1 ./integration_tests --gtest_filter='GoldenTrace.*'
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "testing/helpers.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim {
namespace {

constexpr const char* kFixturePath =
    VCPUSIM_TEST_DIR "/testing/golden/scheduler_traces.txt";
constexpr san::Time kTraceEndTime = 400.0;
constexpr std::uint64_t kTraceSeed = 20260805;
constexpr san::Time kRewardEndTime = 600.0;
constexpr san::Time kRewardWarmup = 100.0;
constexpr std::size_t kRewardReplications = 4;

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
};

TraceRun run_trace(const std::string& algorithm, bool spinlock,
                   bool incremental) {
  auto system =
      vm::build_system(fig8_config(spinlock), sched::make_factory(algorithm)());
  san::SimulatorConfig config;
  config.end_time = kTraceEndTime;
  config.seed = kTraceSeed;
  config.incremental_enabling = incremental;
  san::Simulator sim(config);
  sim.set_model(*system->model);
  auto fires = testing::fire_sink();
  sim.set_trace(&fires);
  const auto stats = sim.run();
  return TraceRun{stats.events, testing::fire_digest(fires)};
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Reward estimates (hexfloat, bit-exact) of the four headline metrics.
std::vector<std::string> run_rewards(const std::string& algorithm,
                                     bool spinlock, std::size_t jobs) {
  exp::RunSpec spec;
  spec.system = fig8_config(spinlock);
  spec.scheduler = sched::make_factory(algorithm);
  spec.end_time = kRewardEndTime;
  spec.warmup = kRewardWarmup;
  spec.jobs = jobs;
  spec.policy.min_replications = kRewardReplications;
  spec.policy.max_replications = kRewardReplications;
  spec.policy.target_half_width = 1e-12;
  const auto result = exp::run_point(
      spec, {{exp::MetricKind::kMeanVcpuAvailability, -1, "avail"},
             {exp::MetricKind::kPcpuUtilization, -1, "pcpu"},
             {exp::MetricKind::kMeanVcpuUtilization, -1, "vcpu"},
             {exp::MetricKind::kThroughput, -1, "tput"}});
  std::vector<std::string> out;
  out.reserve(result.metrics.size());
  for (const auto& m : result.metrics) out.push_back(hexfloat(m.ci.mean));
  return out;
}

struct GoldenRow {
  std::uint64_t events = 0;
  std::string digest;
  std::vector<std::string> rewards;
};

std::string row_key(const std::string& algorithm, bool spinlock) {
  return algorithm + (spinlock ? "|spinlock" : "|plain");
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

GoldenRow compute_row(const std::string& algorithm, bool spinlock) {
  GoldenRow row;
  const auto trace = run_trace(algorithm, spinlock, /*incremental=*/true);
  row.events = trace.events;
  row.digest = hex64(trace.digest);
  row.rewards = run_rewards(algorithm, spinlock, /*jobs=*/1);
  return row;
}

std::map<std::string, GoldenRow> load_fixture() {
  std::map<std::string, GoldenRow> rows;
  std::ifstream in(kFixturePath);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string key, variant, events, digest, rewards;
    if (!std::getline(is, key, '|') || !std::getline(is, variant, '|') ||
        !std::getline(is, events, '|') || !std::getline(is, digest, '|') ||
        !std::getline(is, rewards)) {
      ADD_FAILURE() << "malformed fixture line: " << line;
      continue;
    }
    GoldenRow row;
    row.events = std::strtoull(events.c_str(), nullptr, 10);
    row.digest = digest;
    std::istringstream rs(rewards);
    std::string r;
    while (std::getline(rs, r, ',')) row.rewards.push_back(r);
    rows[key + "|" + variant] = std::move(row);
  }
  return rows;
}

void write_fixture(const std::map<std::string, GoldenRow>& rows) {
  std::ofstream out(kFixturePath);
  ASSERT_TRUE(out) << "cannot write " << kFixturePath;
  out << "# Golden scheduler trajectories — regenerate with\n"
         "#   VCPUSIM_UPDATE_GOLDEN=1 ./integration_tests "
         "--gtest_filter='GoldenTrace.*'\n"
         "# algorithm|variant|events|trace_digest|reward_means(hexfloat)\n";
  for (const auto& [key, row] : rows) {
    out << key << "|" << row.events << "|" << row.digest << "|";
    for (std::size_t i = 0; i < row.rewards.size(); ++i) {
      out << (i ? "," : "") << row.rewards[i];
    }
    out << "\n";
  }
}

bool update_mode() {
  const char* env = std::getenv("VCPUSIM_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(GoldenTrace, AllAlgorithmsMatchRecordedTrajectories) {
  std::map<std::string, GoldenRow> fixture;
  const bool update = update_mode();
  if (!update) {
    fixture = load_fixture();
    ASSERT_FALSE(fixture.empty())
        << "missing fixture " << kFixturePath
        << " — regenerate with VCPUSIM_UPDATE_GOLDEN=1";
  }

  std::map<std::string, GoldenRow> computed;
  for (const auto& algorithm : sched::builtin_algorithms()) {
    for (const bool spinlock : {false, true}) {
      const std::string key = row_key(algorithm, spinlock);
      SCOPED_TRACE(key);
      const GoldenRow row = compute_row(algorithm, spinlock);

      // Full-scan enabling must walk the identical trajectory.
      const auto full = run_trace(algorithm, spinlock, /*incremental=*/false);
      EXPECT_EQ(hex64(full.digest), row.digest)
          << "incremental vs full-scan enabling divergence";
      EXPECT_EQ(full.events, row.events);

      // Parallel replication folding must not perturb the estimates.
      EXPECT_EQ(run_rewards(algorithm, spinlock, /*jobs=*/8), row.rewards)
          << "jobs=8 reward estimates diverge from jobs=1";

      if (update) {
        computed[key] = row;
        continue;
      }
      const auto it = fixture.find(key);
      ASSERT_NE(it, fixture.end()) << "fixture row missing";
      EXPECT_EQ(row.events, it->second.events);
      EXPECT_EQ(row.digest, it->second.digest)
          << "event trajectory diverged from the recorded golden trace";
      EXPECT_EQ(row.rewards, it->second.rewards)
          << "reward estimates diverged from the recorded golden values";
    }
  }
  if (update) write_fixture(computed);
}

}  // namespace
}  // namespace vcpusim
