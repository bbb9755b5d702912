// Shared test utilities: a scriptable scheduler test-double, helpers to
// build and run small virtualization systems deterministically, and
// completion recording over the structured trace channel.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "san/simulator.hpp"
#include "trace/sinks.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::testing {

/// One activity completion copied out of a trace: the record trajectory
/// comparisons check for equality.
struct Fire {
  san::Time time = 0.0;
  std::string activity;
  std::size_t case_index = 0;
  bool operator==(const Fire&) const = default;
};

/// An unbounded ring that keeps only completions (kFire events). Attach
/// it with Simulator::set_trace; read it back with fires().
inline trace::RingBufferSink fire_sink() {
  return trace::RingBufferSink(0, san::trace_bit(san::TraceCategory::kFire));
}

/// The completions `sink` retained, oldest first.
inline std::vector<Fire> fires(const trace::RingBufferSink& sink) {
  std::vector<Fire> out;
  out.reserve(sink.events().size());
  for (const san::TraceEvent& e : sink.events()) {
    if (e.category != san::TraceCategory::kFire) continue;
    out.push_back({e.time, std::string(e.name), static_cast<std::size_t>(e.a)});
  }
  return out;
}

/// FNV-1a over the completion sequence `sink` retained: the time bits,
/// the qualified activity name and the case index as std::size_t per
/// event (the bytes the golden trajectory digests are recorded over).
inline std::uint64_t fire_digest(const trace::RingBufferSink& sink) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (const Fire& f : fires(sink)) {
    mix(&f.time, sizeof(f.time));
    mix(f.activity.data(), f.activity.size());
    mix(&f.case_index, sizeof(f.case_index));
  }
  return h;
}

/// Seeded pseudo-random source for property-based tests. Deliberately
/// separate from stats::Rng (the code under test): a property test must
/// not derive its inputs from the machinery it is checking. Always seed
/// explicitly so failures reproduce; encode the seed in the test name or
/// loop index.
class PropertyRng {
 public:
  explicit PropertyRng(std::uint64_t seed) : engine_(seed) {}

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  int uniform_int(int lo, int hi) {  // inclusive bounds
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  bool chance(double p) { return uniform(0.0, 1.0) < p; }

  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Scheduler driven by a lambda — lets tests script hypervisor decisions
/// tick by tick and observe the exact snapshots the framework passes.
class LambdaScheduler final : public vm::Scheduler {
 public:
  using Fn = std::function<bool(std::span<vm::VCPU_host_external>,
                                std::span<vm::PCPU_external>, long)>;

  explicit LambdaScheduler(Fn fn, std::string name = "lambda")
      : fn_(std::move(fn)), name_(std::move(name)) {}

  bool schedule(std::span<vm::VCPU_host_external> vcpus,
                std::span<vm::PCPU_external> pcpus, long timestamp) override {
    return fn_(vcpus, pcpus, timestamp);
  }

  std::string name() const override { return name_; }

 private:
  Fn fn_;
  std::string name_;
};

inline vm::SchedulerPtr make_lambda_scheduler(LambdaScheduler::Fn fn,
                                              std::string name = "lambda") {
  return std::make_unique<LambdaScheduler>(std::move(fn), std::move(name));
}

/// A scheduler that never assigns anything (all VCPUs stay INACTIVE).
inline vm::SchedulerPtr make_null_scheduler() {
  return make_lambda_scheduler(
      [](auto, auto, long) { return true; }, "null");
}

/// Decorator recording the snapshot passed to (and decisions returned
/// by) an inner scheduler at every tick — used for per-tick invariant
/// checks (gang co-start, skew bounds, run-to-completion, ...).
class SpyScheduler final : public vm::Scheduler {
 public:
  struct Tick {
    long timestamp;
    std::vector<vm::VCPU_host_external> before;  ///< snapshot pre-decision
    std::vector<vm::VCPU_host_external> after;   ///< with decisions filled in
    std::vector<vm::PCPU_external> pcpus;
  };

  explicit SpyScheduler(vm::SchedulerPtr inner) : inner_(std::move(inner)) {}

  void on_attach(const vm::SystemTopology& topology) override {
    inner_->on_attach(topology);
  }

  bool schedule(std::span<vm::VCPU_host_external> vcpus,
                std::span<vm::PCPU_external> pcpus, long timestamp) override {
    Tick tick;
    tick.timestamp = timestamp;
    tick.before.assign(vcpus.begin(), vcpus.end());
    tick.pcpus.assign(pcpus.begin(), pcpus.end());
    const bool ok = inner_->schedule(vcpus, pcpus, timestamp);
    tick.after.assign(vcpus.begin(), vcpus.end());
    ticks_->push_back(std::move(tick));
    return ok;
  }

  std::string name() const override { return inner_->name(); }

  /// Shared so the recording survives the system taking ownership.
  std::shared_ptr<std::vector<Tick>> ticks() const { return ticks_; }

 private:
  vm::SchedulerPtr inner_;
  std::shared_ptr<std::vector<Tick>> ticks_ =
      std::make_shared<std::vector<Tick>>();
};

/// Run `system`'s model for `end_time` ticks with the given rewards.
inline san::RunStats run_system(vm::VirtualSystem& system, san::Time end_time,
                                std::uint64_t seed = 1,
                                std::vector<san::RewardVariable*> rewards = {}) {
  san::SimulatorConfig config;
  config.end_time = end_time;
  config.seed = seed;
  return san::run_once(*system.model, config, std::move(rewards));
}

/// Run `system`'s model once for `end_time` ticks with `sink` attached
/// (live recorders such as trace::TimelineRecorder sample it directly).
inline san::RunStats run_traced(vm::VirtualSystem& system, san::TraceSink& sink,
                                san::Time end_time, std::uint64_t seed = 1) {
  san::SimulatorConfig config;
  config.end_time = end_time;
  config.seed = seed;
  san::Simulator sim(config);
  sim.set_model(*system.model);
  sim.set_trace(&sink);
  return sim.run();
}

}  // namespace vcpusim::testing
