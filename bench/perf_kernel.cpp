// google-benchmark microbenchmarks of the discrete-event SAN kernel:
// events/second across system sizes, the primitive building blocks
// (RNG, distribution sampling, event queue churn via an M/M/1 model),
// replication-level parallel speedup, incremental-enabling settle
// throughput, the scheduling function replayed alone and JSONL trace
// serialization. CI publishes the
// parallel/settle numbers as BENCH_parallel.json (see
// docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <ostream>
#include <span>
#include <streambuf>

#include "exp/runner.hpp"
#include "san/experiment.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "stats/distribution.hpp"
#include "trace/sinks.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace {

using namespace vcpusim;

void BM_RngUniform01(benchmark::State& state) {
  stats::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform01());
  }
}
BENCHMARK(BM_RngUniform01);

void BM_ExponentialSample(benchmark::State& state) {
  stats::Rng rng(1);
  const auto dist = stats::make_exponential(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist->sample(rng));
  }
}
BENCHMARK(BM_ExponentialSample);

void BM_MM1Events(benchmark::State& state) {
  double total_events = 0;
  for (auto _ : state) {
    san::ComposedModel model("MM1");
    auto& sub = model.add_submodel("Q");
    auto queue = sub.add_place<std::int64_t>("queue", 0);
    auto& arrive = sub.add_timed_activity("arrive", stats::make_exponential(0.5));
    arrive.add_output_gate(
        {"a", [queue](san::GateContext&) { queue->mut() += 1; }});
    auto& serve = sub.add_timed_activity("serve", stats::make_exponential(1.0));
    serve.add_input_gate(
        {"busy", [queue]() { return queue->get() > 0; }, nullptr});
    serve.add_output_gate(
        {"s", [queue](san::GateContext&) { queue->mut() -= 1; }});
    san::SimulatorConfig config;
    config.end_time = 10000.0;
    config.seed = 7;
    const auto stats_out = san::run_once(model, config);
    total_events += static_cast<double>(stats_out.events);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MM1Events)->Unit(benchmark::kMillisecond);

/// Full virtualization-system simulation throughput at increasing scale:
/// arg = number of 2-VCPU VMs (PCPUs = VMs, i.e. 50% over-commit).
void BM_VirtualSystemScale(benchmark::State& state) {
  const int vms = static_cast<int>(state.range(0));
  double total_events = 0;
  for (auto _ : state) {
    auto system = vm::build_system(
        vm::make_symmetric_config(vms, std::vector<int>(static_cast<std::size_t>(vms), 2), 5),
        sched::make_factory("rrs")());
    san::SimulatorConfig config;
    config.end_time = 1000.0;
    config.seed = 11;
    const auto stats_out = san::run_once(*system->model, config);
    total_events += static_cast<double>(stats_out.events);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
  state.counters["vcpus"] = static_cast<double>(vms * 2);
}
BENCHMARK(BM_VirtualSystemScale)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// Per-algorithm scheduling-function overhead across system sizes:
/// arg = total VCPUs with 2-VCPU VMs and PCPUs = VMs, i.e. 50%
/// over-commit. The system and simulator are built once and reused via
/// the replication recipe (VirtualSystem::reset + Simulator::reset(seed))
/// — the same steady state the exp::SystemPool runs in, so model
/// construction and compilation are not in the measured loop.
/// enabling_evals_per_event is the tell-tale for the Scheduling_Func
/// gate's dynamic write footprint: it stays roughly flat as the system
/// grows, whereas a full enabling rescan on every scheduler tick would
/// make it grow linearly with the VCPU count.
void BM_SchedulerTick(benchmark::State& state,
                      const std::string& algorithm) {
  const int vms = static_cast<int>(state.range(0)) / 2;
  auto system = vm::build_system(
      vm::make_symmetric_config(
          vms, std::vector<int>(static_cast<std::size_t>(vms), 2), 5),
      sched::make_factory(algorithm)());
  san::SimulatorConfig config;
  config.end_time = 1000.0;
  config.seed = 3;
  san::Simulator sim(config);
  sim.set_model(*system->model);
  double total_events = 0;
  double total_evals = 0;
  double total_aborted = 0;
  for (auto _ : state) {
    system->reset();
    sim.reset(config.seed);
    const auto stats_out = sim.advance_until(config.end_time);
    total_events += static_cast<double>(stats_out.events);
    total_evals += static_cast<double>(stats_out.enabling_evals);
    total_aborted += static_cast<double>(stats_out.aborted_events);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
  state.counters["enabling_evals_per_event"] = total_evals / total_events;
  state.counters["aborted_per_event"] = total_aborted / total_events;
  state.counters["vcpus"] = static_cast<double>(state.range(0));
}
BENCHMARK_CAPTURE(BM_SchedulerTick, rrs, std::string("rrs"))
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerTick, scs, std::string("scs"))
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerTick, rcs, std::string("rcs"))
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerTick, credit, std::string("credit"))
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

/// Forwards every call to `inner` and keeps a copy of each snapshot
/// schedule() receives, taken before the algorithm decides.
class RecordingScheduler final : public vm::Scheduler {
 public:
  explicit RecordingScheduler(vm::SchedulerPtr inner)
      : inner_(std::move(inner)) {}
  void on_attach(const vm::SystemTopology& topology) override {
    this->topology = topology;
    inner_->on_attach(topology);
  }
  void on_reset(const vm::SystemTopology& topology) override {
    inner_->on_reset(topology);
  }
  bool schedule(std::span<vm::VCPU_host_external> vcpus,
                std::span<vm::PCPU_external> pcpus, long timestamp) override {
    vx.insert(vx.end(), vcpus.begin(), vcpus.end());
    px.insert(px.end(), pcpus.begin(), pcpus.end());
    timestamps.push_back(timestamp);
    return inner_->schedule(vcpus, pcpus, timestamp);
  }
  std::string name() const override { return inner_->name(); }

  vm::SystemTopology topology;
  std::vector<vm::VCPU_host_external> vx;  ///< tick-major snapshots
  std::vector<vm::PCPU_external> px;
  std::vector<long> timestamps;

 private:
  vm::SchedulerPtr inner_;
};

/// The scheduling function alone. One replication of a system is
/// recorded through a RecordingScheduler; each iteration then replays the
/// recorded snapshots through a fresh instance of the algorithm, from
/// on_reset. A replayed tick copies its snapshot into the working buffers
/// and calls schedule(), so decide is timed without the two clock reads
/// that a timing wrapper (RunSpec::profile, perfbench --trace 1) adds to
/// every tick. `s_per_tick` is the mean time of one replayed tick.
///
/// `vcpus` 0 records a 2+3-VCPU system on 4 PCPUs (a paper_grid point)
/// for 3000 ticks. Otherwise it is the VCPU count of BM_SchedulerTick's
/// shape (2-VCPU VMs, PCPUs = VMs), recorded for 1000 ticks to bound the
/// recording's memory; these rows show how decide grows with the system.
void BM_DecideReplay(benchmark::State& state, const std::string& algorithm,
                     int vcpus) {
  auto owner =
      std::make_unique<RecordingScheduler>(sched::make_factory(algorithm)());
  const RecordingScheduler& recorded = *owner;
  const int vms = vcpus / 2;
  const auto system = vm::build_system(
      vcpus == 0 ? vm::make_symmetric_config(4, {2, 3}, 5)
                 : vm::make_symmetric_config(
                       vms, std::vector<int>(static_cast<std::size_t>(vms), 2),
                       5),
      std::move(owner));
  san::SimulatorConfig config;
  config.end_time = vcpus == 0 ? 3000.0 : 1000.0;
  config.seed = 3;
  san::run_once(*system->model, config);
  const std::size_t ticks = recorded.timestamps.size();
  const std::size_t n = recorded.vx.size() / ticks;
  const std::size_t pcpus = recorded.px.size() / ticks;
  const vm::SchedulerPtr fresh = sched::make_factory(algorithm)();
  fresh->on_attach(recorded.topology);
  std::vector<vm::VCPU_host_external> vx(n);
  std::vector<vm::PCPU_external> px(pcpus);
  for (auto _ : state) {
    fresh->on_reset(recorded.topology);
    for (std::size_t t = 0; t < ticks; ++t) {
      std::copy_n(recorded.vx.begin() + static_cast<std::ptrdiff_t>(t * n), n,
                  vx.begin());
      std::copy_n(recorded.px.begin() + static_cast<std::ptrdiff_t>(t * pcpus),
                  pcpus, px.begin());
      benchmark::DoNotOptimize(
          fresh->schedule(vx, px, recorded.timestamps[t]));
    }
    benchmark::ClobberMemory();
  }
  state.counters["s_per_tick"] = benchmark::Counter(
      static_cast<double>(ticks) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_DecideReplay, rrs, std::string("rrs"), 0)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DecideReplay, scs, std::string("scs"), 0)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DecideReplay, rcs, std::string("rcs"), 0)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DecideReplay, credit, std::string("credit"), 0)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DecideReplay, rcs/64, std::string("rcs"), 64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DecideReplay, rcs/256, std::string("rcs"), 256)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DecideReplay, credit/64, std::string("credit"), 64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DecideReplay, credit/256, std::string("credit"), 256)
    ->Unit(benchmark::kMicrosecond);

/// Parallel replication speedup: a fig8-style run_point with a fixed
/// replication count (min == max, unreachable CI target, so every jobs
/// value does identical work) at arg = worker threads. The 8-job row
/// over the 1-job row is the speedup figure the CI perf-smoke job
/// records; results are bit-identical across rows by construction.
void BM_ParallelRunPoint(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  exp::RunSpec spec;
  spec.system = vm::make_symmetric_config(2, {2, 1, 1}, 5);
  spec.scheduler = sched::make_factory("rrs");
  spec.end_time = 1500.0;
  spec.warmup = 200.0;
  spec.jobs = jobs;
  spec.policy.min_replications = 16;
  spec.policy.max_replications = 16;
  spec.policy.target_half_width = 1e-12;  // never converges early
  double total_replications = 0;
  for (auto _ : state) {
    const auto result = exp::run_point(
        spec, {{exp::MetricKind::kMeanVcpuAvailability, -1, ""}});
    total_replications += static_cast<double>(result.replications);
  }
  state.counters["replications_per_s"] =
      benchmark::Counter(total_replications, benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_ParallelRunPoint)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Setup-cost amortization of the zero-rebuild replication engine: 32
/// replications with a deliberately short horizon, so per-replication
/// system construction (places, gate closures, dependency index) is a
/// large share of the work. args = (total VCPUs, pooled 0/1): the pooled
/// row is exp::run_point, which reuses one built (system, simulator)
/// slot per executor lane via SystemPool; the baseline row is the SAN
/// layer's build-per-replication driver, san::run_experiment, over a
/// factory that builds the same system and reward every replication. CI
/// gates pooled >= 2x baseline replications_per_s at every size (see
/// docs/PERFORMANCE.md).
void BM_ReplicationSetup(benchmark::State& state) {
  const int vcpus = static_cast<int>(state.range(0));
  const bool pooled = state.range(1) != 0;
  const int vms = vcpus / 2;
  exp::RunSpec spec;
  spec.system = vm::make_symmetric_config(
      vms, std::vector<int>(static_cast<std::size_t>(vms), 2), 5);
  spec.scheduler = sched::make_factory("rrs");
  spec.end_time = 20.0;  // short horizon: setup cost dominates
  spec.warmup = 5.0;
  spec.jobs = 1;
  spec.policy.min_replications = 32;
  spec.policy.max_replications = 32;
  spec.policy.target_half_width = 1e-12;  // never converges early

  san::ExperimentConfig baseline;
  baseline.end_time = spec.end_time;
  baseline.base_seed = spec.base_seed;
  baseline.policy = spec.policy;
  baseline.jobs = spec.jobs;
  const san::ReplicaFactory build_replica = [&spec](std::size_t) {
    std::shared_ptr<vm::VirtualSystem> system =
        vm::build_system(spec.system, spec.scheduler());
    san::Replica replica;
    replica.rewards.push_back(vm::mean_vcpu_availability(*system, spec.warmup));
    replica.model = std::move(system->model);
    replica.context = std::move(system);
    return replica;
  };

  double total_replications = 0;
  for (auto _ : state) {
    const auto result =
        pooled ? exp::run_point(
                     spec, {{exp::MetricKind::kMeanVcpuAvailability, -1, ""}})
               : san::run_experiment({"mean_vcpu_availability"},
                                     build_replica, baseline);
    total_replications += static_cast<double>(result.replications);
  }
  state.counters["replications_per_s"] =
      benchmark::Counter(total_replications, benchmark::Counter::kIsRate);
  state.counters["vcpus"] = static_cast<double>(vcpus);
  state.counters["pooled"] = pooled ? 1.0 : 0.0;
}
BENCHMARK(BM_ReplicationSetup)
    ->Args({4, 0})->Args({4, 1})
    ->Args({16, 0})->Args({16, 1})
    ->Args({64, 0})->Args({64, 1})
    ->Unit(benchmark::kMillisecond);

/// Incremental vs full-scan enabling on a large composed system: the
/// same trajectory, with settle() either re-evaluating every activity
/// after each firing (arg = 0) or only the footprint-affected ones
/// (arg = 1). events_per_s is the settle-throughput figure.
void BM_SettleEnabling(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  const int vms = 12;  // 24 VCPUs on 12 PCPUs: wide activity fan-out
  double total_events = 0;
  for (auto _ : state) {
    auto system = vm::build_system(
        vm::make_symmetric_config(
            vms, std::vector<int>(static_cast<std::size_t>(vms), 2), 5),
        sched::make_factory("rrs")());
    san::SimulatorConfig config;
    config.end_time = 600.0;
    config.seed = 17;
    config.incremental_enabling = incremental;
    const auto stats_out = san::run_once(*system->model, config);
    total_events += static_cast<double>(stats_out.events);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
  state.counters["incremental"] = incremental ? 1.0 : 0.0;
}
BENCHMARK(BM_SettleEnabling)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// A stream buffer that counts the bytes it is given and keeps none.
class DiscardBuf final : public std::streambuf {
 public:
  std::size_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::size_t>(n);
    return n;
  }
};

/// JSONL serialization of a 16-VCPU credit stream (8 two-VCPU VMs on 8
/// PCPUs, every category) into a JsonlSink over a discarding stream
/// buffer. Two rows:
///  * live:0 replays a recorded stream. The replayed markings carry
///    their text, as a buffered replication's do, so this row times the
///    serializer alone, on the text form.
///  * live:1 drives the simulator with the sink attached, as a `--jobs 1`
///    trace and the `trace_jsonl` workload do. Its markings carry the
///    place and are written by PlaceBase::write_json_value; the row
///    times the kernel and the serializer together.
/// Both write the same stream, so bytes_per_event agrees. s_per_event
/// is the cost per event (the console shows ns as "n").
void BM_JsonlSerialize(benchmark::State& state) {
  const bool live = state.range(0) != 0;
  auto system = vm::build_system(
      vm::make_symmetric_config(8, std::vector<int>(8, 2), 5),
      sched::make_factory("credit")());
  san::SimulatorConfig config;
  config.end_time = 500.0;
  config.seed = 5;
  san::Simulator sim(config);
  trace::RingBufferSink recorded;
  sim.set_trace(&recorded);
  sim.set_model(*system->model);
  sim.run();
  DiscardBuf discard;
  std::ostream os(&discard);
  trace::JsonlSink sink(os);
  sim.set_trace(&sink);
  for (auto _ : state) {
    if (live) {
      system->reset();
      sim.reset(config.seed);
      sim.advance_until(config.end_time);
    } else {
      recorded.replay_into(sink);
    }
    benchmark::DoNotOptimize(discard.bytes);
  }
  const auto events = static_cast<double>(recorded.events().size());
  state.counters["events"] = events;
  state.counters["bytes_per_event"] =
      static_cast<double>(discard.bytes) /
      (events * static_cast<double>(state.iterations()));
  state.counters["s_per_event"] = benchmark::Counter(
      events, benchmark::Counter::kIsIterationInvariantRate |
                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_JsonlSerialize)
    ->ArgName("live")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
