// run_point observability contract: the metrics registry is
// populated with the documented names, its deterministic entries do not
// depend on the worker count, profiling exports phase timers, and the
// trace forwarded to a RunSpec sink is replication-ordered.
#include <gtest/gtest.h>

#include <sstream>
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

    stats::MetricsRegistry deterministic;
    for (const char* name :
         {"sim.events", "sim.enabling_evals", "sched.ticks",
          "sched.schedules_in", "sched.schedules_out", "sched.preemptions",
          "run.replications"}) {
      deterministic.counter(name).add(reg.counter_value(name));
    }
    deterministic.summary("metric.avail") =
        reg.summary_values("metric.avail");
    std::ostringstream json;
    deterministic.write_json(json);
    jsons.push_back(json.str());
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
  EXPECT_FALSE(plain.has("profile.fire.calls"));

  stats::MetricsRegistry profiled;
  spec.metrics = &profiled;
  spec.profile = true;
  run_point(spec, availability());
  EXPECT_TRUE(profiled.has("profile.fire.calls"));
  EXPECT_TRUE(profiled.has("profile.fire.ns"));
  EXPECT_GT(profiled.counter_value("profile.fire.calls"), 0U);
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
