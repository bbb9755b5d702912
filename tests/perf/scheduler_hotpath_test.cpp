// Hot-path guarantees of the layered scheduling stack
// (docs/SCHEDULING.md):
//   * a steady-state scheduler tick performs zero heap allocations, for
//     every built-in algorithm — the snapshot/decide/apply buffers and
//     the sched::core run-queue state are all sized at attach time;
//   * the Scheduling_Func gate's dynamic write footprint keeps
//     incremental enabling from collapsing to a full rescan every tick;
//   * the trace sinks stay off the allocator: JsonlSink and
//     ChromeTraceSink serialize into one reused buffer each, from caches
//     sized at construction, and a RingBufferSink's storage grows
//     geometrically (O(log N) allocations for N events);
//   * a traced jobs-1 run_point stores nothing per event: replications
//     stream straight into the sink instead of through a buffer.
// The allocation counter overrides the global operator new, so these
// tests live in their own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "stats/rng.hpp"
#include "trace/sinks.hpp"
#include "vm/system_builder.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VCPUSIM_HOTPATH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VCPUSIM_HOTPATH_SANITIZED 1
#endif
#endif

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

#ifndef VCPUSIM_HOTPATH_SANITIZED
// Counting replacements for the global allocation functions. The array
// forms are replaced too so a container's choice of form cannot bypass
// the counter.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace vcpusim {
namespace {

/// Drive the Scheduling_Func gate of a freshly built system directly —
/// exactly what the simulator does once per Clock tick, minus the
/// event-queue machinery — and count heap allocations in steady state.
TEST(SchedulerHotPath, SteadyStateTickDoesNotAllocate) {
#ifdef VCPUSIM_HOTPATH_SANITIZED
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  for (const auto& name : sched::builtin_algorithms()) {
    auto system =
        vm::build_system(vm::make_symmetric_config(4, {2, 2, 2, 2}, 5),
                         sched::make_factory(name)());
    san::Activity& clock = *system->scheduler_places.clock;
    ASSERT_EQ(clock.cases().size(), 1u) << name;
    ASSERT_EQ(clock.cases().front().output_gates.size(), 1u) << name;
    const auto& gate = clock.cases().front().output_gates.front();

    stats::Rng rng(1);
    std::vector<const san::PlaceBase*> touched;
    san::GateContext ctx{rng, 0.0, &touched};

    // Warm-up: the first ticks may grow the touch buffer to capacity.
    for (int t = 0; t < 64; ++t) {
      touched.clear();
      ctx.now = static_cast<double>(t);
      gate.function(ctx);
    }
    const long before = g_allocations.load(std::memory_order_relaxed);
    for (int t = 64; t < 192; ++t) {
      touched.clear();
      ctx.now = static_cast<double>(t);
      gate.function(ctx);
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0)
        << "algorithm '" << name << "' allocated during a steady-state tick";
  }
#endif
}

/// Steady-state tracing is allocation-free: fire and marking events
/// carry string_views into model-owned names, and marking events carry
/// the place rather than rendered text. The event queue itself still
/// allocates rarely as occupancy reaches new high-water marks, so the
/// check is differential — with every trace category enabled, the traced
/// run (same seed, hence the bit-identical trajectory) must allocate
/// exactly as much as the untraced baseline.
TEST(SchedulerHotPath, SteadyStateTracingDoesNotAllocate) {
#ifdef VCPUSIM_HOTPATH_SANITIZED
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  class NullSink final : public san::TraceSink {
   public:
    NullSink() : san::TraceSink(san::kTraceAll) {}
    void on_event(const san::TraceEvent& event) override {
      events += event.name.size();
    }
    std::size_t events = 0;
  };
  const auto measure = [](san::TraceSink* sink, std::uint64_t* events_out) {
    auto system =
        vm::build_system(vm::make_symmetric_config(4, {2, 2, 2, 2}, 5),
                         sched::make_factory("credit")());
    san::SimulatorConfig config;
    config.end_time = 600.0;
    config.seed = 3;
    san::Simulator sim(config);
    if (sink != nullptr) sim.set_trace(sink);
    sim.set_model(*system->model);
    sim.reset();
    sim.advance_until(300.0);  // warm-up: buffers grow to capacity
    const long before = g_allocations.load(std::memory_order_relaxed);
    const auto stats = sim.advance_until(600.0);
    *events_out = stats.events;
    return g_allocations.load(std::memory_order_relaxed) - before;
  };
  std::uint64_t base_events = 0;
  std::uint64_t traced_events = 0;
  const long baseline = measure(nullptr, &base_events);
  NullSink sink;
  const long traced = measure(&sink, &traced_events);
  ASSERT_EQ(base_events, traced_events);  // same trajectory measured
  EXPECT_GT(sink.events, 0u) << "trace sink saw no events in the window";
  EXPECT_EQ(traced, baseline)
      << "tracing added " << (traced - baseline)
      << " heap allocations over the untraced baseline";
#endif
}

/// Stream buffer that drops every byte without allocating.
class DiscardBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// A JsonlSink serializing a real event stream (every category, taken
/// from a traced credit run) allocates nothing per event once its line
/// buffer has grown to the longest line.
TEST(SchedulerHotPath, JsonlSinkSteadyStateDoesNotAllocate) {
#ifdef VCPUSIM_HOTPATH_SANITIZED
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  auto system =
      vm::build_system(vm::make_symmetric_config(4, {2, 2, 2, 2}, 5),
                       sched::make_factory("credit")());
  san::SimulatorConfig config;
  config.end_time = 200.0;
  config.seed = 3;
  san::Simulator sim(config);
  trace::RingBufferSink recorded;
  sim.set_trace(&recorded);
  sim.set_model(*system->model);
  sim.run();
  ASSERT_GT(recorded.events().size(), 1000U);

  DiscardBuf discard;
  std::ostream os(&discard);
  trace::JsonlSink sink(os);
  recorded.replay_into(sink);  // warm-up: the line buffer reaches capacity
  const long before = g_allocations.load(std::memory_order_relaxed);
  recorded.replay_into(sink);
  sink.finish();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0)
      << "JsonlSink allocated while serializing "
      << recorded.events().size() << " events";
#endif
}

/// The same for a ChromeTraceSink: once its entry buffer and marking
/// scratch have grown and its name cache is warm, a second pass over
/// the recorded stream allocates nothing.
TEST(SchedulerHotPath, ChromeTraceSinkSteadyStateDoesNotAllocate) {
#ifdef VCPUSIM_HOTPATH_SANITIZED
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  auto system =
      vm::build_system(vm::make_symmetric_config(4, {2, 2, 2, 2}, 5),
                       sched::make_factory("credit")());
  san::SimulatorConfig config;
  config.end_time = 200.0;
  config.seed = 3;
  san::Simulator sim(config);
  trace::RingBufferSink recorded;
  sim.set_trace(&recorded);
  sim.set_model(*system->model);
  sim.run();
  ASSERT_GT(recorded.events().size(), 1000U);

  DiscardBuf discard;
  std::ostream os(&discard);
  trace::ChromeTraceSink sink(os);
  recorded.replay_into(sink);  // warm-up: buffers reach capacity
  const long before = g_allocations.load(std::memory_order_relaxed);
  recorded.replay_into(sink);
  sink.finish();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0)
      << "ChromeTraceSink allocated while serializing "
      << recorded.events().size() << " events";
#endif
}

/// A RingBufferSink's per-event cost is a record append plus, on an
/// intern-cache miss, an arena append — both amortized growth, so N
/// events cost O(log N) allocations however many strings they carry.
TEST(SchedulerHotPath, RingBufferSinkAllocatesLogarithmically) {
#ifdef VCPUSIM_HOTPATH_SANITIZED
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  std::vector<std::string> names;  // stable, model-owned-like names
  for (int i = 0; i < 40; ++i) {
    names.push_back("VM_" + std::to_string(i) + ".VCPU1->Schedule_In");
  }
  std::string value(16, '\0');  // reused storage, like a marking value
  for (const std::size_t n : {std::size_t{1} << 12U, std::size_t{1} << 15U,
                              std::size_t{1} << 18U}) {
    SCOPED_TRACE(n);
    const long before = g_allocations.load(std::memory_order_relaxed);
    {
      trace::RingBufferSink sink;
      for (std::size_t i = 0; i < n; ++i) {
        value.assign(1 + i % 3, static_cast<char>('0' + i % 10));
        sink.on_event(san::TraceEvent{
            i % 2 == 0 ? san::TraceCategory::kFire
                       : san::TraceCategory::kMarking,
            static_cast<double>(i), i, names[i % names.size()], 0, 0,
            i % 2 == 0 ? std::string_view{} : std::string_view(value)});
      }
      ASSERT_EQ(sink.events().size(), n);
    }
    const long allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    // Two geometrically grown buffers: records and the byte arena.
    const long bound = 2 * static_cast<long>(std::log2(n)) + 4;
    EXPECT_LE(allocations, bound) << n << " events";
  }
#endif
}

/// A traced jobs-1 run_point streams every replication straight into
/// its sink, so what the trace adds to the run's allocations does not
/// grow with the horizon: nothing is stored per event. (The untraced run
/// itself allocates a little more over a longer horizon as its queues
/// reach new high-water marks; subtracting it isolates the trace.)
TEST(SchedulerHotPath, TracedRunPointStoresNothingPerEvent) {
#ifdef VCPUSIM_HOTPATH_SANITIZED
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  const auto allocations = [](san::Time end_time, bool traced) {
    exp::RunSpec spec;
    spec.system = vm::make_symmetric_config(4, {2, 2, 2, 2}, 5);
    spec.scheduler = sched::make_factory("credit");
    spec.end_time = end_time;
    spec.warmup = 10.0;
    spec.jobs = 1;
    spec.policy.min_replications = 8;
    spec.policy.max_replications = 8;
    DiscardBuf discard;
    std::ostream os(&discard);
    trace::JsonlSink sink(os);
    if (traced) spec.trace = &sink;
    const long before = g_allocations.load(std::memory_order_relaxed);
    exp::run_point(spec, {{exp::MetricKind::kMeanVcpuAvailability, -1, "m"}});
    sink.finish();
    return g_allocations.load(std::memory_order_relaxed) - before;
  };
  const auto trace_cost = [&](san::Time end_time) {
    return allocations(end_time, true) - allocations(end_time, false);
  };
  constexpr san::Time kHorizon = 500.0;
  const long once = trace_cost(kHorizon);
  const long twice = trace_cost(2 * kHorizon);
  // A small constant covers the line buffer reaching a new longest line.
  EXPECT_LE(std::labs(twice - once), 4)
      << "the trace added " << once << " allocations at end_time "
      << kHorizon << " and " << twice << " at " << 2 * kHorizon;
#endif
}

/// The simulator's replication reset is a block copy: no virtual
/// per-place reset() walk (counted by PlaceBase::reset_count) and, once
/// the event calendar has reached capacity, no heap allocation.
TEST(SchedulerHotPath, CompiledResetIsBlockCopy) {
  auto system = vm::build_system(vm::make_symmetric_config(4, {2, 2, 2, 2}, 5),
                                 sched::make_factory("rrs")());
  san::SimulatorConfig config;
  config.end_time = 200.0;
  config.seed = 9;
  san::Simulator sim(config);
  sim.set_model(*system->model);
  sim.run();
  sim.reset(10);  // warm-up reset: pools and calendar slots at capacity

  const std::uint64_t resets_before = san::PlaceBase::reset_count();
#ifndef VCPUSIM_HOTPATH_SANITIZED
  const long allocs_before = g_allocations.load(std::memory_order_relaxed);
#endif
  sim.reset(11);
  EXPECT_EQ(san::PlaceBase::reset_count(), resets_before)
      << "compiled reset fell back to the virtual per-place walk";
#ifndef VCPUSIM_HOTPATH_SANITIZED
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - allocs_before, 0)
      << "compiled reset allocated";
#endif

  // The reset simulator still replays a full replication correctly.
  const auto stats = sim.advance_until(200.0);
  EXPECT_GT(stats.events, 0u);
}

/// Same trajectory with and without the enabling index: the dynamic
/// footprint must cut the enabling re-evaluations well below the
/// full-scan count (before it, every Clock tick dirtied every VCPU model
/// and settle() degenerated to a full rescan).
TEST(SchedulerHotPath, SchedulerTickAvoidsFullEnablingRescan) {
  const auto cfg =
      vm::make_symmetric_config(8, std::vector<int>(8, 2), 5);
  const auto run = [&cfg](bool incremental) {
    auto system = vm::build_system(cfg, sched::make_factory("rrs")());
    san::SimulatorConfig config;
    config.end_time = 500.0;
    config.seed = 5;
    config.incremental_enabling = incremental;
    return san::run_once(*system->model, config);
  };
  const auto full = run(false);
  const auto incremental = run(true);
  EXPECT_EQ(full.events, incremental.events);
  ASSERT_GT(incremental.enabling_evals, 0u);
  EXPECT_LT(incremental.enabling_evals * 3, full.enabling_evals)
      << "incremental=" << incremental.enabling_evals
      << " full=" << full.enabling_evals;
}

}  // namespace
}  // namespace vcpusim
