// Golden structured-trace fixtures: the JSONL event stream (activity
// fires, enabling changes, marking updates, scheduler decisions,
// replication markers) of every shipped algorithm on a 2-PCPU / 4-VCPU
// system is pinned byte-for-byte (as is the Chrome trace_event export of
// one short credit run), and the stream is required to be identical
// across --jobs values, controllers and incremental-enabling modes. A
// run that throws must leave a prefix of the stream in the sink.
//
// Regenerate (only when a trajectory or format change is intended) with:
//   VCPUSIM_UPDATE_GOLDEN=1 ./integration_tests --gtest_filter='StructuredTrace.*'
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "testing/helpers.hpp"
#include "testing/json.hpp"
#include "trace/latency.hpp"
#include "trace/sinks.hpp"
#include "trace/timeline.hpp"
#include "vm/sched_interface.hpp"
#include "vm/system_builder.hpp"
#include "vm/validation.hpp"

namespace vcpusim {
namespace {

constexpr const char* kFixtureDir =
    VCPUSIM_TEST_DIR "/testing/golden/structured";
constexpr std::uint64_t kSeed = 20260805;
constexpr san::Time kEndTime = 12.0;
constexpr std::size_t kReplications = 2;
/// Fixtures pin the first N lines (the full streams run to thousands).
constexpr std::size_t kFixtureLines = 300;
/// The Chrome fixture pins a whole document, so its horizon is short.
constexpr san::Time kChromeEndTime = 3.0;
constexpr const char* kChromeAlgorithm = "credit";

vm::SystemConfig two_pcpu_four_vcpu() {
  return vm::make_symmetric_config(2, {2, 2}, 5);
}

/// The DVFS families trace on a system that actually has a frequency
/// ladder, so their fixtures pin the "freq" decision events too; every
/// other algorithm keeps the plain system (and its original fixture).
vm::SystemConfig system_for(const std::string& algorithm) {
  auto system = two_pcpu_four_vcpu();
  if (algorithm.rfind("dvfs", 0) == 0) system.dvfs.enabled = true;
  return system;
}

/// The spec every fixture traces: `kReplications` replications of
/// `algorithm` at `jobs` workers.
exp::RunSpec traced_spec(const std::string& algorithm, std::size_t jobs,
                         san::Time end_time) {
  exp::RunSpec spec;
  spec.system = system_for(algorithm);
  spec.scheduler = sched::make_factory(algorithm);
  spec.end_time = end_time;
  spec.warmup = 1.0;
  spec.base_seed = kSeed;
  spec.jobs = jobs;
  spec.policy.min_replications = kReplications;
  spec.policy.max_replications = kReplications;
  return spec;
}

/// The full stream `spec` delivers to the named stream sink ("jsonl"
/// or "chrome") while estimating `metric`.
std::string traced_stream(
    exp::RunSpec spec, const std::string& sink_name,
    exp::MetricKind metric = exp::MetricKind::kMeanVcpuAvailability) {
  std::ostringstream os;
  const auto sink = trace::make_stream_sink(sink_name, os);
  spec.trace = sink.get();
  exp::run_point(spec, {{metric, -1, "m"}});
  sink->finish();
  return os.str();
}

std::string traced_stream(const std::string& algorithm, std::size_t jobs,
                          const std::string& sink_name, san::Time end_time) {
  return traced_stream(traced_spec(algorithm, jobs, end_time), sink_name);
}

/// The full JSONL stream of `kReplications` replications.
std::string structured_stream(const std::string& algorithm,
                              std::size_t jobs) {
  return traced_stream(algorithm, jobs, "jsonl", kEndTime);
}

std::string first_lines(const std::string& text, std::size_t n) {
  std::istringstream is(text);
  std::ostringstream out;
  std::string line;
  for (std::size_t i = 0; i < n && std::getline(is, line); ++i) {
    out << line << "\n";
  }
  return out.str();
}

std::string fixture_path(const std::string& algorithm) {
  return std::string(kFixtureDir) + "/" + algorithm + ".jsonl";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool update_mode() {
  const char* env = std::getenv("VCPUSIM_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(StructuredTrace, PerAlgorithmStreamsMatchFixtures) {
  const bool update = update_mode();
  for (const auto& algorithm : sched::builtin_algorithms()) {
    SCOPED_TRACE(algorithm);
    const std::string head =
        first_lines(structured_stream(algorithm, /*jobs=*/1), kFixtureLines);
    ASSERT_FALSE(head.empty());
    if (update) {
      std::ofstream out(fixture_path(algorithm));
      ASSERT_TRUE(out) << "cannot write " << fixture_path(algorithm);
      out << head;
      continue;
    }
    const std::string expected = read_file(fixture_path(algorithm));
    ASSERT_FALSE(expected.empty())
        << "missing fixture " << fixture_path(algorithm)
        << " — regenerate with VCPUSIM_UPDATE_GOLDEN=1";
    EXPECT_EQ(head, expected)
        << "structured trace diverged from the recorded fixture";
  }
}

/// The Chrome trace_event export of one short run, pinned whole (header,
/// every instant / counter entry and the closing bracket).
TEST(StructuredTrace, ChromeDocumentMatchesFixture) {
  const std::string path =
      std::string(kFixtureDir) + "/" + kChromeAlgorithm + ".chrome.json";
  const std::string document =
      traced_stream(kChromeAlgorithm, /*jobs=*/1, "chrome", kChromeEndTime);
  ASSERT_FALSE(document.empty());
  if (update_mode()) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << document;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << path
      << " — regenerate with VCPUSIM_UPDATE_GOLDEN=1";
  EXPECT_EQ(document, expected)
      << "Chrome trace diverged from the recorded fixture";
}

/// A replication whose predecessors have all folded streams straight
/// into the sink; the rest are buffered and forwarded at fold. Uneven
/// batches (jobs 3), antithetic pairs split across batches and a stop
/// in mid-batch (speculative replications buffered, never forwarded)
/// put both kinds side by side in one stream, which must still be
/// byte-identical to the all-direct jobs-1 stream.
TEST(StructuredTrace, ByteIdenticalAcrossJobs) {
  for (const std::string algorithm : {"rrs", "credit", "dvfs-cc"}) {
    for (const auto controller :
         {stats::ControllerKind::kFixed, stats::ControllerKind::kAdaptive,
          stats::ControllerKind::kAntithetic}) {
      SCOPED_TRACE(algorithm + " " + stats::controller_name(controller));
      // Throughput varies across replications: these stop at 4 or 6
      // replications, mostly in mid-batch, or run to the cap of 7. The
      // horizon is long enough that the lanes of a batch overlap.
      const auto stream_at = [&](std::size_t jobs) {
        exp::RunSpec spec = traced_spec(algorithm, jobs, /*end_time=*/200.0);
        spec.controller = controller;
        spec.policy.min_replications = 3;
        spec.policy.max_replications = 7;
        spec.policy.target_half_width = 0.015;
        return traced_stream(spec, "jsonl", exp::MetricKind::kThroughput);
      };
      const std::string jobs1 = stream_at(1);
      ASSERT_FALSE(jobs1.empty());
      for (const std::size_t jobs : {3u, 8u}) {
        EXPECT_EQ(jobs1, stream_at(jobs))
            << "trace bytes depend on the worker count (jobs=" << jobs << ")";
      }
    }
  }
}

/// rrs that throws once this instance has made `fail_at` decisions.
/// The count deliberately survives on_reset, so a pooled jobs-1 run
/// fails partway through a later replication, not the first.
class FailingRrs final : public vm::Scheduler {
 public:
  explicit FailingRrs(long fail_at)
      : inner_(sched::make_factory("rrs")()), fail_at_(fail_at) {}
  void on_attach(const vm::SystemTopology& topology) override {
    inner_->on_attach(topology);
  }
  void on_reset(const vm::SystemTopology& topology) override {
    inner_->on_reset(topology);
  }
  bool schedule(std::span<vm::VCPU_host_external> vcpus,
                std::span<vm::PCPU_external> pcpus, long timestamp) override {
    if (++decisions_ >= fail_at_) {
      throw std::runtime_error("injected scheduler failure");
    }
    return inner_->schedule(vcpus, pcpus, timestamp);
  }
  std::string name() const override { return inner_->name(); }

 private:
  vm::SchedulerPtr inner_;
  long fail_at_;
  long decisions_ = 0;
};

std::vector<std::int64_t> replication_markers(const std::string& stream) {
  std::istringstream lines(stream);
  std::string line;
  std::vector<std::int64_t> markers;
  while (std::getline(lines, line)) {
    const auto doc = testing::parse_json(line);
    if (doc.at("kind").string == "marker" &&
        doc.at("label").string == "replication") {
      markers.push_back(static_cast<std::int64_t>(doc.at("value").number));
    }
  }
  return markers;
}

/// The failure contract: replications stream as they fold, so a run that
/// throws leaves the sink holding a prefix of the stream a successful
/// run would have delivered (with jobs 1, everything up to the failing
/// decision).
TEST(StructuredTrace, FailedRunLeavesAPrefixOfTheStream) {
  constexpr std::size_t kReps = 12;
  // About 12 decisions per replication, so a jobs-1 run fails in its
  // third replication. At jobs 4 the 144 decisions of the run fall on
  // at most 4 pooled schedulers, so one of them reaches 30.
  constexpr long kFailAt = 30;
  const auto spec_at = [&](std::size_t jobs) {
    exp::RunSpec spec = traced_spec("rrs", jobs, kEndTime);
    spec.policy.min_replications = kReps;
    spec.policy.max_replications = kReps;
    return spec;
  };
  const std::string full = traced_stream(spec_at(1), "jsonl");
  ASSERT_EQ(replication_markers(full).size(), kReps);

  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    exp::RunSpec spec = spec_at(jobs);
    spec.scheduler = [fail_at = kFailAt]() -> vm::SchedulerPtr {
      return std::make_unique<FailingRrs>(fail_at);
    };
    std::ostringstream os;
    trace::JsonlSink sink(os);
    spec.trace = &sink;
    EXPECT_THROW(exp::run_point(
                     spec, {{exp::MetricKind::kMeanVcpuAvailability, -1, "m"}}),
                 std::runtime_error);
    sink.finish();
    const std::string partial = os.str();
    ASSERT_LT(partial.size(), full.size());
    EXPECT_EQ(full.compare(0, partial.size(), partial), 0)
        << "a failed run delivered bytes a successful run would not";
    if (jobs == 1) {
      EXPECT_EQ(replication_markers(partial),
                (std::vector<std::int64_t>{0, 1, 2}));
    }
  }
}

TEST(StructuredTrace, ByteIdenticalAcrossEnablingModes) {
  for (const std::string algorithm : {"rrs", "credit", "dvfs-la"}) {
    SCOPED_TRACE(algorithm);
    std::vector<std::string> streams;
    for (const bool incremental : {true, false}) {
      auto system = vm::build_system(system_for(algorithm),
                                     sched::make_factory(algorithm)());
      san::SimulatorConfig config;
      config.end_time = kEndTime;
      config.seed = kSeed;
      config.incremental_enabling = incremental;
      san::Simulator sim(config);
      sim.set_model(*system->model);
      std::ostringstream os;
      trace::JsonlSink sink(os);
      sim.set_trace(&sink);
      sim.run();
      sink.finish();
      streams.push_back(os.str());
    }
    EXPECT_EQ(streams[0], streams[1])
        << "trace bytes depend on the enabling mode";
  }
}

TEST(StructuredTrace, StreamIsWellFormedJsonlWithReplicationMarkers) {
  const std::string stream = structured_stream("rrs", /*jobs=*/1);
  std::istringstream lines(stream);
  std::string line;
  std::vector<std::int64_t> markers;
  std::size_t count = 0;
  bool saw_fire = false;
  bool saw_sched = false;
  bool saw_marking = false;
  bool saw_enabling = false;
  while (std::getline(lines, line)) {
    const auto doc = testing::parse_json(line);
    const std::string kind = doc.at("kind").string;
    if (kind == "marker" && doc.at("label").string == "replication") {
      markers.push_back(static_cast<std::int64_t>(doc.at("value").number));
    }
    saw_fire = saw_fire || kind == "fire";
    saw_sched = saw_sched || kind == "sched";
    saw_marking = saw_marking || kind == "marking";
    saw_enabling = saw_enabling || kind == "enabling";
    ++count;
  }
  EXPECT_GT(count, 100U);
  EXPECT_EQ(markers, (std::vector<std::int64_t>{0, 1}));
  EXPECT_TRUE(saw_fire);
  EXPECT_TRUE(saw_sched);
  EXPECT_TRUE(saw_marking);
  EXPECT_TRUE(saw_enabling);
}

/// A live recorder samples the marking of the system it was built for
/// at each Clock fire. Attached with Simulator::set_trace it runs that
/// system for `ticks`; passed as RunSpec::trace it would receive
/// replications from systems it does not watch, so run_point must throw
/// at the first replication marker.
void expect_live_only(vm::VirtualSystem& system, san::TraceSink& recorder,
                      san::Time ticks) {
  testing::run_traced(system, recorder, ticks, kSeed);
  exp::RunSpec spec;
  spec.system = two_pcpu_four_vcpu();
  spec.scheduler = sched::make_factory("rrs");
  spec.end_time = kEndTime;
  spec.warmup = 1.0;
  spec.policy.min_replications = kReplications;
  spec.policy.max_replications = kReplications;
  spec.trace = &recorder;
  try {
    exp::run_point(spec, {{exp::MetricKind::kMeanVcpuAvailability, -1, "m"}});
    ADD_FAILURE() << "a live recorder accepted a replayed stream";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("Simulator::set_trace"),
              std::string::npos)
        << e.what();
  }
}

TEST(StructuredTrace, LiveRecordersSampleDirectRunsAndRefuseReplays) {
  constexpr san::Time kTicks = 200.0;
  const auto fresh = [] {
    return vm::build_system(two_pcpu_four_vcpu(), sched::make_factory("rrs")());
  };
  {
    auto system = fresh();
    trace::TimelineRecorder timeline(*system);
    expect_live_only(*system, timeline, kTicks);
    EXPECT_EQ(timeline.ticks(), 200u);  // the direct run's ticks only
  }
  {
    auto system = fresh();
    trace::BarrierLatencyAnalyzer latency(*system);
    expect_live_only(*system, latency, kTicks);
    EXPECT_GT(latency.overall().count(), 0u);
  }
  {
    auto system = fresh();
    vm::InvariantChecker checker(*system);
    expect_live_only(*system, checker, kTicks);
    EXPECT_EQ(checker.checks_performed(), 200u);
    EXPECT_TRUE(checker.consistent());
  }
}

}  // namespace
}  // namespace vcpusim
