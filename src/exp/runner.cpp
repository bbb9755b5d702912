#include "exp/runner.hpp"

#include <array>
#include <chrono>
#include <locale>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "exp/pool.hpp"
#include "san/analyze/analyzer.hpp"
#include "san/experiment.hpp"
#include "san/simulator.hpp"
#include "trace/sinks.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::exp {

std::string default_label(const MetricRequest& request) {
  switch (request.kind) {
    case MetricKind::kVcpuAvailability:
      return "vcpu_availability[" + std::to_string(request.index) + "]";
    case MetricKind::kMeanVcpuAvailability:
      return "mean_vcpu_availability";
    case MetricKind::kPcpuUtilization:
      return "pcpu_utilization";
    case MetricKind::kVcpuUtilization:
      return "vcpu_utilization[" + std::to_string(request.index) + "]";
    case MetricKind::kMeanVcpuUtilization:
      return "mean_vcpu_utilization";
    case MetricKind::kVcpuBusyFraction:
      return "vcpu_busy_fraction[" + std::to_string(request.index) + "]";
    case MetricKind::kMeanVcpuBusyFraction:
      return "mean_vcpu_busy_fraction";
    case MetricKind::kVmBlockedFraction:
      return "vm_blocked_fraction[" + std::to_string(request.index) + "]";
    case MetricKind::kThroughput:
      return "throughput";
    case MetricKind::kMeanSpinFraction:
      return "mean_spin_fraction";
    case MetricKind::kMeanEffectiveUtilization:
      return "mean_effective_utilization";
    case MetricKind::kEnergy:
      return "energy";
  }
  return "metric";
}

namespace {

/// One metric bound to a freshly built system: its reward variables plus
/// the function that reduces them to the reported value at end of run.
struct BoundMetric {
  std::vector<std::unique_ptr<san::RewardVariable>> rewards;
  std::function<double(san::Time end)> finalize;
};

BoundMetric bind_metric(const vm::VirtualSystem& system,
                        const MetricRequest& request, san::Time warmup) {
  BoundMetric bound;
  const auto single = [&bound](std::unique_ptr<san::RewardVariable> reward) {
    san::RewardVariable* raw = reward.get();
    bound.rewards.push_back(std::move(reward));
    bound.finalize = [raw](san::Time end) { return raw->time_averaged(end); };
  };
  const auto ratio = [&bound](std::unique_ptr<san::RewardVariable> numerator,
                              std::unique_ptr<san::RewardVariable> denominator) {
    san::RewardVariable* num = numerator.get();
    san::RewardVariable* den = denominator.get();
    bound.rewards.push_back(std::move(numerator));
    bound.rewards.push_back(std::move(denominator));
    bound.finalize = [num, den](san::Time) {
      const double d = den->accumulated();
      return d > 0 ? num->accumulated() / d : 0.0;
    };
  };

  switch (request.kind) {
    case MetricKind::kVcpuAvailability:
      single(vm::vcpu_availability(system, request.index, warmup));
      break;
    case MetricKind::kMeanVcpuAvailability:
      single(vm::mean_vcpu_availability(system, warmup));
      break;
    case MetricKind::kPcpuUtilization:
      single(vm::pcpu_utilization(system, warmup));
      break;
    case MetricKind::kVcpuUtilization:
      // Paper metric: busy time over scheduled (ACTIVE) time.
      ratio(vm::vcpu_utilization(system, request.index, warmup),
            vm::vcpu_availability(system, request.index, warmup));
      break;
    case MetricKind::kMeanVcpuUtilization:
      // Sum of busy over sum of active across all VCPUs.
      ratio(vm::mean_vcpu_utilization(system, warmup),
            vm::mean_vcpu_availability(system, warmup));
      break;
    case MetricKind::kVcpuBusyFraction:
      single(vm::vcpu_utilization(system, request.index, warmup));
      break;
    case MetricKind::kMeanVcpuBusyFraction:
      single(vm::mean_vcpu_utilization(system, warmup));
      break;
    case MetricKind::kVmBlockedFraction:
      single(vm::vm_blocked_fraction(system, request.index, warmup));
      break;
    case MetricKind::kThroughput:
      single(vm::system_throughput(system, warmup));
      break;
    case MetricKind::kMeanSpinFraction:
      single(vm::mean_spin_fraction(system, warmup));
      break;
    case MetricKind::kMeanEffectiveUtilization:
      // Productive (non-spinning) busy time over scheduled time.
      ratio(vm::mean_productive_fraction(system, warmup),
            vm::mean_vcpu_availability(system, warmup));
      break;
    case MetricKind::kEnergy: {
      // Energy is the *integral* of the power rate, not its time
      // average: report the accumulated value.
      auto reward = vm::energy_rate(system, warmup);
      san::RewardVariable* raw = reward.get();
      bound.rewards.push_back(std::move(reward));
      bound.finalize = [raw](san::Time) { return raw->accumulated(); };
      break;
    }
  }
  if (!bound.finalize) {
    throw std::invalid_argument("run_point: unknown metric kind");
  }
  return bound;
}

using Clock = std::chrono::steady_clock;

/// RunSpec::profile's exclusive wall-clock buckets, in report order.
enum Bucket : std::size_t {
  kBuild,     ///< vm::build_system
  kLint,      ///< the analyzer's check of the lint build
  kCompile,   ///< Simulator construction, set_model, metric binding
  kReset,     ///< checkout, rebind, VirtualSystem and Simulator reset
  kSimulate,  ///< advance_until minus decide
  kDecide,    ///< Scheduler::schedule
  kBucketCount,
};
constexpr std::array<const char*, kBucketCount> kBucketNames = {
    "build", "lint", "compile", "reset", "simulate", "decide"};

struct Span {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  void add(std::uint64_t elapsed) noexcept {
    calls += 1;
    ns += elapsed;
  }
};
using Buckets = std::array<Span, kBucketCount>;

std::uint64_t ns_between(Clock::time_point start, Clock::time_point end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

/// The decide bucket: forwards every call to the wrapped scheduler and
/// times schedule(), so the bridge itself reads no clock.
class DecideTimer final : public vm::Scheduler {
 public:
  explicit DecideTimer(vm::SchedulerPtr inner) : inner_(std::move(inner)) {}
  void on_attach(const vm::SystemTopology& topology) override {
    inner_->on_attach(topology);
  }
  void on_reset(const vm::SystemTopology& topology) override {
    inner_->on_reset(topology);
  }
  bool schedule(std::span<vm::VCPU_host_external> vcpus,
                std::span<vm::PCPU_external> pcpus, long timestamp) override {
    const Clock::time_point start = Clock::now();
    const bool ok = inner_->schedule(vcpus, pcpus, timestamp);
    span.add(ns_between(start, Clock::now()));
    return ok;
  }
  std::string name() const override { return inner_->name(); }

  Span span;  ///< schedule() calls since the runner last cleared it

 private:
  vm::SchedulerPtr inner_;
};

/// Observability record of one replication, captured inside the
/// (possibly concurrent) replication function and folded after the
/// parallel region.
struct RepRecord {
  san::RunStats stats;
  vm::BridgeStats bridge;
  Buckets buckets;          ///< this replication's spans (profiled runs)
  san::KernelStats kernel;  ///< compiled-kernel census
  /// The event stream of a replication that could not stream to the
  /// user sink directly, forwarded when it folds. Null otherwise.
  std::unique_ptr<trace::RingBufferSink> trace;
};

/// The kMarker event that opens replication `rep`'s stream.
void emit_replication_marker(san::TraceSink& sink, std::size_t rep) {
  if (!sink.wants(san::TraceCategory::kMarker)) return;
  sink.on_event(san::TraceEvent{san::TraceCategory::kMarker, 0.0, 0,
                                "replication", static_cast<std::int64_t>(rep),
                                0, {}});
}

/// The metric bindings a pool slot is carrying, stored opaquely in
/// SystemPool::Slot::bindings (the pool cannot see this TU's types).
struct SlotBindings {
  std::vector<BoundMetric> bound;
  DecideTimer* decide = nullptr;  ///< the slot's scheduler, when profiled
};

}  // namespace

stats::ReplicationResult run_point(const RunSpec& spec,
                                   const std::vector<MetricRequest>& metrics) {
  if (metrics.empty()) {
    throw std::invalid_argument("run_point: no metrics requested");
  }
  if (!spec.scheduler) {
    throw std::invalid_argument("run_point: no scheduler factory");
  }
  if (!(spec.warmup >= 0) || spec.warmup >= spec.end_time) {
    throw std::invalid_argument("run_point: warmup must be in [0, end_time)");
  }
  // The scheduler Clock fires once per tick, so a horizon of more ticks
  // than the event cap cannot be reached: refuse it before replicating.
  const std::uint64_t event_cap = san::SimulatorConfig{}.max_events;
  if (spec.end_time > static_cast<double>(event_cap)) {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "run_point: end_time " << spec.end_time
       << " exceeds the simulator's event cap of " << event_cap
       << " events (the scheduler Clock alone fires once per tick)";
    throw std::invalid_argument(os.str());
  }
  // RunSpec::profile: steady-clock reads at this function's own call
  // boundaries, none when the run is not profiled.
  const bool profiling = spec.profile && spec.metrics != nullptr;
  const auto now = [profiling] {
    return profiling ? Clock::now() : Clock::time_point{};
  };
  const Clock::time_point call_start = now();
  Buckets run_buckets{};  // the run-level spans: lint and its build
  std::unique_ptr<SystemPool> local_pool;
  SystemPool* pool = spec.pool;
  if (pool == nullptr) {
    local_pool = std::make_unique<SystemPool>(spec.system);
    pool = local_pool.get();
  } else if (pool->fingerprint() != SystemPool::fingerprint_of(spec.system)) {
    throw std::invalid_argument(
        "run_point: spec.pool was built for a different system "
        "configuration (fingerprint mismatch)");
  }
  const std::uint64_t stamp = pool->next_stamp();
  const std::uint64_t pool_builds_before = pool->builds();
  const std::uint64_t pool_reuses_before = pool->reuses();

  if (spec.lint) {
    // Fail fast on structural defects before spending replication time.
    Clock::time_point t = now();
    auto system = vm::build_system(spec.system, spec.scheduler());
    run_buckets[kBuild].add(ns_between(t, now()));
    t = now();
    san::analyze::Analyzer().check_or_throw(*system->model);
    run_buckets[kLint].add(ns_between(t, now()));
    // The lint build is a perfectly good pooled system: seed the pool so
    // replication 0 checks it out instead of building again.
    pool->add_built(std::move(system));
  }

  std::vector<std::string> names;
  names.reserve(metrics.size());
  for (const auto& m : metrics) {
    names.push_back(m.label.empty() ? default_label(m) : m.label);
  }

  const bool observe = spec.metrics != nullptr || spec.trace != nullptr;
  std::mutex records_mutex;
  std::map<std::size_t, RepRecord> records;

  // One replication: check a slot out, build/rebind it only on the first
  // touch and reset it otherwise, replay the replication from the
  // re-seeded simulator with the trace target attached, finalize the
  // metrics and capture the observability record.
  const stats::StreamedReplicationFn one_replication =
      [&](const stats::ReplicationTask& task) -> std::vector<double> {
    const std::size_t rep = task.rep;
    Buckets buckets{};
    const Clock::time_point setup_start = now();
    SystemPool::Checkout checkout = pool->acquire();
    SystemPool::Slot& slot = checkout.slot();
    // A profiled run wraps the slot's scheduler in a DecideTimer.
    DecideTimer* decide_timer = nullptr;
    const auto make_scheduler = [&]() -> vm::SchedulerPtr {
      vm::SchedulerPtr scheduler = spec.scheduler();
      if (!profiling) return scheduler;
      auto timer = std::make_unique<DecideTimer>(std::move(scheduler));
      decide_timer = timer.get();
      return timer;
    };
    bool built = false;
    if (slot.system == nullptr) {
      const Clock::time_point t = now();
      slot.system = vm::build_system(spec.system, make_scheduler());
      buckets[kBuild].add(ns_between(t, now()));
      built = true;
    }
    if (slot.stamp != stamp) {
      // First touch by this run: bind the slot to this run's
      // scheduler, simulator configuration and metric set. The
      // expensive part (build_system) is what stays amortized; the
      // simulator re-derives its index from the already-built model.
      if (!built) slot.system->rebind_scheduler(make_scheduler());
      const Clock::time_point t = now();
      san::SimulatorConfig config;
      config.end_time = spec.end_time;
      config.seed = san::replication_seed(spec.base_seed, task.stream.stream);
      config.verify_footprints = spec.verify_footprints;
      slot.simulator = std::make_unique<san::Simulator>(config);
      slot.simulator->set_model(*slot.system->model);
      auto bindings = std::make_shared<SlotBindings>();
      bindings->bound.reserve(metrics.size());
      for (const auto& m : metrics) {
        bindings->bound.push_back(bind_metric(*slot.system, m, spec.warmup));
      }
      for (auto& b : bindings->bound) {
        for (auto& r : b.rewards) slot.simulator->add_reward(*r);
      }
      bindings->decide = decide_timer;
      slot.bindings = std::move(bindings);
      slot.stamp = stamp;
      buckets[kCompile].add(ns_between(t, now()));
    }
    // Bridge counters + scheduler state back to just-built (a system
    // built this very checkout is already there).
    if (!built) slot.system->reset();
    vm::VirtualSystem& system = *slot.system;
    san::Simulator& sim = *slot.simulator;
    auto& bindings = *static_cast<SlotBindings*>(slot.bindings.get());
    auto& bound = bindings.bound;

    std::unique_ptr<trace::RingBufferSink> buffer;
    if (spec.trace != nullptr) {
      if (task.in_order) {
        // Every earlier replication has been forwarded already, so this
        // one streams straight into the user sink.
        emit_replication_marker(*spec.trace, rep);
        sim.set_trace(spec.trace);
      } else {
        // Unbounded private buffer, forwarded at fold; the category
        // mask mirrors the user sink's so unwanted events are never
        // constructed.
        buffer = std::make_unique<trace::RingBufferSink>(
            0, spec.trace->categories());
        sim.set_trace(buffer.get());
      }
    }
    sim.reset(san::replication_seed(spec.base_seed, task.stream.stream),
              task.stream.antithetic);
    const Clock::time_point run_start = now();
    buckets[kReset].add(ns_between(setup_start, run_start) -
                        buckets[kBuild].ns - buckets[kCompile].ns);
    if (profiling) bindings.decide->span = {};
    const san::RunStats run_stats = sim.advance_until(spec.end_time);
    if (profiling) {
      const Span decide = bindings.decide->span;
      buckets[kDecide] = decide;
      buckets[kSimulate].add(ns_between(run_start, now()) - decide.ns);
    }
    sim.set_trace(nullptr);
    if (run_stats.hit_event_cap) {
      // The marking froze at the cap; accruing it up to end_time would
      // print a wrong number.
      std::ostringstream os;
      os.imbue(std::locale::classic());
      os << "run_point: replication " << rep << " (seed "
         << san::replication_seed(spec.base_seed, task.stream.stream)
         << ") stopped at the event cap of " << event_cap << " events at t="
         << run_stats.end_time << ", before end_time " << spec.end_time;
      throw std::runtime_error(os.str());
    }
    if (spec.verify_footprints) {
      const san::FootprintReport* fp = sim.footprint_report();
      if (fp != nullptr && fp->errors() > 0) {
        throw std::runtime_error("footprint sanitizer: replication " +
                                 std::to_string(rep) + " reported " +
                                 std::to_string(fp->errors()) +
                                 " violation(s)\n" + fp->render_text());
      }
    }
    std::vector<double> obs;
    obs.reserve(bound.size());
    for (auto& b : bound) obs.push_back(b.finalize(spec.end_time));
    if (observe) {
      RepRecord record;
      record.stats = run_stats;
      if (system.scheduler_places.bridge_stats != nullptr) {
        record.bridge = *system.scheduler_places.bridge_stats;
      }
      record.buckets = buckets;
      record.kernel = sim.kernel_stats();
      record.trace = std::move(buffer);
      const std::lock_guard<std::mutex> lock(records_mutex);
      records.insert_or_assign(rep, std::move(record));
    }
    return obs;
  };

  // Forward each buffered replication the moment it folds: folds come
  // in index order and an in-order replication streamed itself, so the
  // user sink sees the same stream for every `jobs` value. Speculative
  // replications past the stopping point never fold, so their buffers
  // are never forwarded. The executor's batch join orders a head
  // replication's (possibly worker-thread) sink calls before these.
  stats::FoldHook forward;
  if (spec.trace != nullptr) {
    forward = [&](std::size_t rep) {
      std::unique_ptr<trace::RingBufferSink> buffer;
      {
        const std::lock_guard<std::mutex> lock(records_mutex);
        const auto it = records.find(rep);
        if (it != records.end()) buffer = std::move(it->second.trace);
      }
      if (buffer == nullptr) return;
      emit_replication_marker(*spec.trace, rep);
      buffer->replay_into(*spec.trace);
    };
  }

  const auto controller = stats::make_controller(spec.controller, spec.policy);
  stats::ReplicationResult result = stats::run_replications(
      names, one_replication, *controller, spec.jobs, forward);

  // Fold the deterministic per-replication counters (non-speculative
  // replications only, index order) and the executor bookkeeping into
  // the registry.
  if (spec.metrics != nullptr) {
    stats::MetricsRegistry& reg = *spec.metrics;
    Buckets bucket_total = run_buckets;
    bool kernel_exported = false;
    for (std::size_t rep = 0; rep < result.replications; ++rep) {
      const auto it = records.find(rep);
      if (it == records.end()) continue;
      const RepRecord& record = it->second;
      reg.counter("sim.events").add(record.stats.events);
      reg.counter("sim.enabling_evals").add(record.stats.enabling_evals);
      reg.summary("sim.events_per_replication")
          .add(static_cast<double>(record.stats.events));
      reg.counter("sched.ticks").add(record.bridge.ticks);
      reg.counter("sched.schedules_in").add(record.bridge.schedules_in);
      reg.counter("sched.schedules_out").add(record.bridge.schedules_out);
      reg.counter("sched.preemptions").add(record.bridge.preemptions);
      reg.counter("sched.freq_changes").add(record.bridge.freq_changes);
      for (std::size_t b = 0; b < kBucketCount; ++b) {
        bucket_total[b].calls += record.buckets[b].calls;
        bucket_total[b].ns += record.buckets[b].ns;
      }
      // Static per-model census — identical for every replication of the
      // run, so exported once.
      if (!kernel_exported) {
        reg.counter("arena.bytes").add(record.kernel.arena_bytes);
        reg.counter("kernel.compiled_gates").add(record.kernel.compiled_gates);
        reg.counter("kernel.trampoline_gates")
            .add(record.kernel.trampoline_gates);
        kernel_exported = true;
      }
    }
    reg.counter("run.replications").add(result.replications);
    if (result.converged) reg.counter("run.converged").add(1);
    // Which controller drove the run, as a self-describing flag counter.
    reg.counter("run.controller." + result.controller).add(1);
    reg.counter("run.controller.batches").add(result.batches);
    // The single waste figure: replications invoked past the stopping
    // index and discarded (previously derivable only as
    // executor.invoked - run.replications).
    reg.counter("executor.speculative_waste").add(result.speculative_waste());
    reg.counter("executor.batches").add(result.batches);
    reg.gauge("executor.jobs").set(static_cast<double>(result.jobs));
    // Deltas, so a shared external pool reports per-run figures.
    reg.counter("executor.pool_builds")
        .add(pool->builds() - pool_builds_before);
    reg.counter("executor.pool_reuses")
        .add(pool->reuses() - pool_reuses_before);
    for (const auto& m : result.metrics) {
      reg.summary("metric." + m.name) = m.samples;
    }
    if (profiling) {
      for (std::size_t b = 0; b < kBucketCount; ++b) {
        const std::string base = std::string("profile.") + kBucketNames[b];
        reg.counter(base + ".calls").add(bucket_total[b].calls);
        reg.counter(base + ".ns").add(bucket_total[b].ns);
      }
      reg.counter("profile.run_point.calls").add(1);
      reg.counter("profile.run_point.ns").add(ns_between(call_start, now()));
    }
  }
  return result;
}

Table profile_table(const stats::MetricsRegistry& registry) {
  const auto ns = [&registry](const std::string& name) {
    return static_cast<double>(registry.counter_value(name + ".ns"));
  };
  const double whole = ns("profile.run_point");
  Table table({"bucket", "calls", "ms", "share"});
  const auto row = [&](const std::string& bucket, const std::string& calls,
                       double elapsed) {
    table.add_row({bucket, calls, format_fixed(elapsed / 1e6, 3),
                   format_percent(whole > 0 ? elapsed / whole : 0.0)});
  };
  double sum = 0;
  for (const char* bucket : kBucketNames) {
    const std::string name = std::string("profile.") + bucket;
    sum += ns(name);
    row(bucket, std::to_string(registry.counter_value(name + ".calls")),
        ns(name));
  }
  row("sum", "", sum);
  row("run_point",
      std::to_string(registry.counter_value("profile.run_point.calls")),
      whole);
  return table;
}

}  // namespace vcpusim::exp
