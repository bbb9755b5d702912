// run_point observability contract: the metrics registry is
// populated with the documented names, its deterministic entries do not
// depend on the worker count, profiling exports exclusive wall-clock
// buckets without changing any result, and the trace forwarded to a
// RunSpec sink is replication-ordered.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "san/trace.hpp"
#include "sched/registry.hpp"
#include "stats/metrics.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::exp {
namespace {

RunSpec base_spec(std::size_t jobs = 1) {
  RunSpec spec;
  spec.system = vm::make_symmetric_config(2, {2, 2}, 5);
  spec.scheduler = sched::make_factory("rrs");
  spec.end_time = 15.0;
  spec.warmup = 2.0;
  spec.base_seed = 99;
  spec.jobs = jobs;
  spec.policy.min_replications = 3;
  spec.policy.max_replications = 3;
  return spec;
}

std::vector<MetricRequest> availability() {
  return {{MetricKind::kMeanVcpuAvailability, -1, "avail"}};
}

/// The registry entries that are a pure function of the replication set
/// (everything but the executor.* bookkeeping and the profile.* wall
/// clock), rendered as JSON.
std::string deterministic_json(const stats::MetricsRegistry& reg) {
  stats::MetricsRegistry deterministic;
  for (const char* name :
       {"sim.events", "sim.enabling_evals", "sched.ticks",
        "sched.schedules_in", "sched.schedules_out", "sched.preemptions",
        "sched.freq_changes", "run.replications", "arena.bytes",
        "kernel.compiled_gates", "kernel.trampoline_gates"}) {
    deterministic.counter(name).add(reg.counter_value(name));
  }
  deterministic.summary("metric.avail") = reg.summary_values("metric.avail");
  deterministic.summary("sim.events_per_replication") =
      reg.summary_values("sim.events_per_replication");
  std::ostringstream json;
  deterministic.write_json(json);
  return json.str();
}

std::uint64_t profile_calls(const stats::MetricsRegistry& reg,
                            const std::string& bucket) {
  return reg.counter_value("profile." + bucket + ".calls");
}

constexpr const char* kBuckets[] = {"build", "lint",     "compile",
                                    "reset", "simulate", "decide"};

TEST(MetricsExport, RunPointPopulatesDocumentedNames) {
  stats::MetricsRegistry reg;
  RunSpec spec = base_spec();
  spec.metrics = &reg;
  const auto result = run_point(spec, availability());

  for (const char* name :
       {"sim.events", "sim.enabling_evals", "sched.ticks",
        "sched.schedules_in", "sched.schedules_out", "sched.preemptions",
        "run.replications", "run.controller.batches",
        "executor.speculative_waste", "executor.batches"}) {
    EXPECT_TRUE(reg.has(name)) << name;
  }
  EXPECT_GT(reg.counter_value("sim.events"), 0U);
  EXPECT_GT(reg.counter_value("sched.ticks"), 0U);
  EXPECT_EQ(reg.counter_value("run.replications"), result.replications);
  // The controller flag counter: exactly one run.controller.<name> entry.
  EXPECT_TRUE(reg.has("run.controller.fixed"));
  EXPECT_EQ(reg.counter_value("run.controller.fixed"), 1U);
  EXPECT_FALSE(reg.has("run.controller.adaptive"));
  EXPECT_EQ(reg.counter_value("executor.speculative_waste"),
            result.speculative_waste());
  EXPECT_EQ(reg.gauge_value("executor.jobs"), 1.0);
  EXPECT_EQ(reg.summary_values("sim.events_per_replication").count(),
            result.replications);
  // Per-metric sample summaries mirror the replication estimates.
  EXPECT_EQ(reg.summary_values("metric.avail").count(), result.replications);
  EXPECT_NEAR(reg.summary_values("metric.avail").mean(),
              result.metrics.at(0).samples.mean(), 1e-12);
}

TEST(MetricsExport, DeterministicEntriesIdenticalAcrossJobs) {
  // Everything except the executor.* bookkeeping and wall-clock profile
  // must be a pure function of the replication set. Compare the full
  // JSON after erasing only those whitelisted nondeterministic entries
  // by rebuilding registries without them.
  std::vector<std::string> jsons;
  std::vector<std::uint64_t> sim_events;
  for (const std::size_t jobs : {1u, 8u}) {
    stats::MetricsRegistry reg;
    RunSpec spec = base_spec(jobs);
    spec.metrics = &reg;
    run_point(spec, availability());
    sim_events.push_back(reg.counter_value("sim.events"));
    jsons.push_back(deterministic_json(reg));
  }
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_EQ(sim_events[0], sim_events[1]);
}

TEST(MetricsExport, ControllerFlagFollowsTheSelectedController) {
  stats::MetricsRegistry reg;
  RunSpec spec = base_spec();
  spec.controller = stats::ControllerKind::kAdaptive;
  spec.metrics = &reg;
  run_point(spec, availability());
  EXPECT_TRUE(reg.has("run.controller.adaptive"));
  EXPECT_FALSE(reg.has("run.controller.fixed"));
  // Adaptive at jobs = 1 dispatches one replication at a time: no
  // speculative work at all.
  EXPECT_EQ(reg.counter_value("executor.speculative_waste"), 0U);
}

TEST(MetricsExport, ProfileExportAppearsOnlyWhenRequested) {
  stats::MetricsRegistry plain;
  RunSpec spec = base_spec();
  spec.metrics = &plain;
  run_point(spec, availability());
  std::ostringstream json;
  plain.write_json(json);
  EXPECT_EQ(json.str().find("\"profile."), std::string::npos) << json.str();

  stats::MetricsRegistry profiled;
  spec.metrics = &profiled;
  spec.profile = true;
  run_point(spec, availability());
  for (const char* bucket : kBuckets) {
    EXPECT_TRUE(profiled.has(std::string("profile.") + bucket + ".calls"))
        << bucket;
    EXPECT_TRUE(profiled.has(std::string("profile.") + bucket + ".ns"))
        << bucket;
  }
  EXPECT_EQ(profile_calls(profiled, "run_point"), 1U);
  EXPECT_GT(profiled.counter_value("profile.run_point.ns"), 0U);
  EXPECT_GT(profiled.counter_value("profile.simulate.ns"), 0U);
}

TEST(MetricsExport, ProfiledRunIsBitIdenticalToUnprofiled) {
  // The profile only reads the clock around the runner's calls and
  // forwards schedule() through a timing wrapper: every algorithm's
  // result and deterministic registry entries must not move.
  for (const std::size_t jobs : {1u, 4u}) {
    for (const auto& algorithm : sched::builtin_algorithms()) {
      SCOPED_TRACE(algorithm + " jobs=" + std::to_string(jobs));
      RunSpec spec = base_spec(jobs);
      spec.scheduler = sched::make_factory(algorithm);
      spec.policy.record_observations = true;
      stats::MetricsRegistry plain_reg;
      spec.metrics = &plain_reg;
      const auto plain = run_point(spec, availability());
      stats::MetricsRegistry profiled_reg;
      spec.metrics = &profiled_reg;
      spec.profile = true;
      const auto profiled = run_point(spec, availability());

      EXPECT_EQ(plain.replications, profiled.replications);
      EXPECT_EQ(plain.converged, profiled.converged);
      EXPECT_EQ(plain.observations, profiled.observations);
      ASSERT_EQ(plain.metrics.size(), profiled.metrics.size());
      for (std::size_t m = 0; m < plain.metrics.size(); ++m) {
        EXPECT_EQ(plain.metrics[m].ci.mean, profiled.metrics[m].ci.mean);
        EXPECT_EQ(plain.metrics[m].ci.half_width,
                  profiled.metrics[m].ci.half_width);
      }
      EXPECT_EQ(deterministic_json(plain_reg),
                deterministic_json(profiled_reg));
    }
  }
}

TEST(MetricsExport, ProfileFoldsOnlyNonSpeculativeReplications) {
  // Four workers and a stopping rule met at two replications: the batch
  // runs two speculative replications, which no bucket may count.
  RunSpec spec = base_spec(/*jobs=*/4);
  spec.policy.min_replications = 2;
  spec.policy.max_replications = 8;
  spec.policy.target_half_width = 1e9;
  stats::MetricsRegistry reg;
  spec.metrics = &reg;
  spec.profile = true;
  const auto result = run_point(spec, availability());
  ASSERT_GT(result.speculative_waste(), 0U);
  EXPECT_EQ(profile_calls(reg, "decide"), reg.counter_value("sched.ticks"));
  EXPECT_EQ(profile_calls(reg, "reset"), reg.counter_value("run.replications"));
  EXPECT_EQ(profile_calls(reg, "simulate"), result.replications);
  EXPECT_LE(profile_calls(reg, "build"), result.replications);
  EXPECT_EQ(profile_calls(reg, "lint"), 0U);
}

TEST(MetricsExport, ProfileBucketsAreExclusiveAtOneJob) {
  // At jobs 1 every bucket is a disjoint span inside the call, so they
  // cannot add up to more than run_point. The lint build seeds the
  // pool: replication 0 checks it out instead of building again.
  RunSpec spec = base_spec();
  spec.lint = true;
  stats::MetricsRegistry reg;
  spec.metrics = &reg;
  spec.profile = true;
  const auto result = run_point(spec, availability());
  EXPECT_EQ(profile_calls(reg, "lint"), 1U);
  EXPECT_EQ(profile_calls(reg, "build"), 1U);
  EXPECT_EQ(profile_calls(reg, "compile"), 1U);
  EXPECT_EQ(profile_calls(reg, "reset"), result.replications);
  EXPECT_EQ(profile_calls(reg, "decide"), reg.counter_value("sched.ticks"));
  std::uint64_t sum = 0;
  for (const char* bucket : kBuckets) {
    sum += reg.counter_value(std::string("profile.") + bucket + ".ns");
  }
  EXPECT_LE(sum, reg.counter_value("profile.run_point.ns"));
}

TEST(MetricsExport, ProfileTableReadsTheBuckets) {
  RunSpec spec = base_spec();
  stats::MetricsRegistry reg;
  spec.metrics = &reg;
  spec.profile = true;
  run_point(spec, availability());
  const std::string table = profile_table(reg).render();
  for (const char* row : {"| build", "| lint", "| compile", "| reset",
                          "| simulate", "| decide", "| sum", "| run_point"}) {
    EXPECT_NE(table.find(row), std::string::npos) << row << "\n" << table;
  }
  EXPECT_NE(table.find("100.0%"), std::string::npos) << table;
  // Without a profiled run there is nothing to read.
  EXPECT_THROW(profile_table(stats::MetricsRegistry{}), std::out_of_range);
}

/// Minimal collecting sink for the forwarding contract.
class CollectingSink final : public san::TraceSink {
 public:
  CollectingSink() : san::TraceSink(san::kTraceAll) {}
  void on_event(const san::TraceEvent& event) override {
    if (event.category == san::TraceCategory::kMarker &&
        event.name == "replication") {
      markers.push_back(event.a);
    }
    ++events;
  }
  std::vector<std::int64_t> markers;
  std::size_t events = 0;
};

TEST(MetricsExport, TraceForwardedInReplicationOrderEvenWhenParallel) {
  CollectingSink sink;
  RunSpec spec = base_spec(/*jobs=*/8);
  spec.trace = &sink;
  const auto result = run_point(spec, availability());

  // One marker per kept replication, in index order, regardless of the
  // order workers finished in.
  std::vector<std::int64_t> expected;
  for (std::size_t i = 0; i < result.replications; ++i) {
    expected.push_back(static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(sink.markers, expected);
  EXPECT_GT(sink.events, result.replications);
}

}  // namespace
}  // namespace vcpusim::exp
