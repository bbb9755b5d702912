// Compiled-kernel contract tests (san/compiled.hpp): bit-identical
// trajectories between the lowered dispatch and the all-trampoline
// dispatch (SimulatorConfig::verify_footprints forces every gate through
// its closure) on synthetic models that exercise every lowering path —
// exact-effect deltas, compiled predicate terms, probe terms, trampoline
// fallbacks, multi-case RNG draws — plus the arena reset identity, the
// pod-vector restore recipe, the event-calendar edge cases (far-future
// overflow, fractional times, horizon-split advances) checked against
// closed-form fire times, and the compile-time census the run-metrics
// registry exports. The vm-model equivalence lives in
// tests/integration/engine_equivalence_test.cpp; this file owns the
// kernel-level corners a full system never reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "san/compiled.hpp"
#include "san/simulator.hpp"
#include "san/trace.hpp"
#include "stats/distribution.hpp"
#include "testing/helpers.hpp"

namespace vcpusim::san {
namespace {

using testing::Fire;

/// `trampoline` selects the all-closure dispatch: verify_footprints
/// compiles with CompileOptions::force_trampoline and evaluates every
/// predicate through its closure under the footprint sanitizer.
SimulatorConfig config_with(bool trampoline, Time end, std::uint64_t seed) {
  SimulatorConfig c;
  c.verify_footprints = trampoline;
  c.end_time = end;
  c.seed = seed;
  return c;
}

/// A model mixing every compiled-dispatch flavor: a token pipeline with
/// declared exact effects and pred terms (lowered), a weighted
/// multi-case activity (RNG case draws), a probe-gated consumer, and an
/// undeclared opaque gate (trampoline fallback).
struct MixedModel {
  std::unique_ptr<ComposedModel> model;
  std::shared_ptr<TokenPlace> buffer;
  std::shared_ptr<TokenPlace> done;
  std::shared_ptr<TokenPlace> opaque_hits;

  static MixedModel build() {
    MixedModel m;
    m.model = std::make_unique<ComposedModel>("mixed");
    auto& sub = m.model->add_submodel("S");
    m.buffer = sub.add_place<std::int64_t>("buffer", 0);
    m.done = sub.add_place<std::int64_t>("done", 0);
    m.opaque_hits = sub.add_place<std::int64_t>("opaque_hits", 0);
    auto buffer = m.buffer;
    auto done = m.done;
    auto opaque_hits = m.opaque_hits;

    // Lowered producer: exact-effect output gate, exponential delay.
    auto& produce =
        sub.add_timed_activity("produce", stats::make_exponential(0.9));
    produce.add_output_gate(
        {"p", [buffer](GateContext&) { buffer->mut() += 1; },
         with_exact_effect(access({}, {buffer}), {{buffer, "", +1}})});

    // Weighted cases: the case draw must consume the RNG stream
    // identically in both dispatch modes.
    auto& branch =
        sub.add_timed_activity("branch", stats::make_uniform(0.5, 1.5));
    InputGate gate{"nonempty", [buffer]() { return buffer->get() > 0; },
                   nullptr, access({buffer}), {token_positive(buffer)}};
    branch.add_input_gate(std::move(gate));
    branch.add_case(
        {0.25, {{"take2",
                 [buffer, done](GateContext&) {
                   const auto take = buffer->get() >= 2 ? 2 : 1;
                   buffer->mut() -= take;
                   done->mut() += take;
                 },
                 access({buffer}, {buffer, done})}}});
    branch.add_case(
        {0.75, {{"take1", [buffer, done](GateContext&) {
                   buffer->mut() -= 1;
                   done->mut() += 1;
                 },
                 with_exact_effect(access({}, {buffer, done}),
                                   {{buffer, "", -1}, {done, "", +1}})}}});

    // Probe-gated watcher (compiled predicate via marking probe).
    auto& watch = sub.add_timed_activity(
        "watch", stats::make_deterministic(1.0), /*priority=*/1);
    InputGate probe_gate{
        "deep", [done]() { return done->get() >= 3; }, nullptr, access({done}),
        {marking_probe(done, [](const std::int64_t& v) { return v >= 3; })}};
    watch.add_input_gate(std::move(probe_gate));
    watch.add_output_gate({"w", [](GateContext&) {}, access({})});

    // Undeclared gate: trampoline dispatch AND an opaque write set
    // (forces full rescans) in both dispatch modes.
    auto& opaque =
        sub.add_timed_activity("opaque", stats::make_erlang(2, 0.7));
    opaque.add_output_gate(
        {"o", [opaque_hits](GateContext&) { opaque_hits->mut() += 1; }, {}});
    return m;
  }
};

struct RunResult {
  std::vector<Fire> fires;
  RunStats stats;
  std::int64_t buffer, done, opaque_hits;
};

RunResult run_mixed(bool trampoline, Time end, std::uint64_t seed,
                    bool incremental = true) {
  auto m = MixedModel::build();
  auto config = config_with(trampoline, end, seed);
  config.incremental_enabling = incremental;
  Simulator sim(config);
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);
  sim.set_model(*m.model);
  const auto stats = sim.run();
  return {testing::fires(rec), stats, m.buffer->get(), m.done->get(),
          m.opaque_hits->get()};
}

TEST(CompiledEngine, TrajectoryBitIdenticalToTrampoline) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto tramp = run_mixed(true, 200.0, seed);
    const auto lowered = run_mixed(false, 200.0, seed);
    ASSERT_FALSE(tramp.fires.empty());
    EXPECT_EQ(tramp.fires, lowered.fires) << "seed " << seed;
    EXPECT_EQ(tramp.stats.events, lowered.stats.events);
    EXPECT_EQ(tramp.stats.enabling_evals, lowered.stats.enabling_evals);
    EXPECT_EQ(tramp.stats.aborted_events, lowered.stats.aborted_events);
    EXPECT_EQ(tramp.buffer, lowered.buffer);
    EXPECT_EQ(tramp.done, lowered.done);
    EXPECT_EQ(tramp.opaque_hits, lowered.opaque_hits);
  }
}

TEST(CompiledEngine, IncrementalOffMatchesToo) {
  // The lowered fast paths (fired-mask dirty tracking, the enabled
  // bitmasks) are all gated on incremental enabling; full-scan mode must
  // still match the trampoline dispatch exactly.
  const auto tramp = run_mixed(true, 150.0, 5, false);
  const auto lowered = run_mixed(false, 150.0, 5, false);
  EXPECT_EQ(tramp.fires, lowered.fires);
  EXPECT_EQ(tramp.stats.enabling_evals, lowered.stats.enabling_evals);
}

/// True when the recorded fire times never decrease.
bool times_nondecreasing(const std::vector<Fire>& entries) {
  return std::is_sorted(
      entries.begin(), entries.end(),
      [](const auto& a, const auto& b) { return a.time < b.time; });
}

TEST(CompiledEngine, CalendarHandlesFarFutureDelays) {
  // Delays far beyond the calendar ring window (128 unit buckets) park
  // in the overflow list; the window must jump over the empty span and
  // fold them back in fire order. `rare` is always enabled with a
  // deterministic 350 delay, so it must fire at exactly k * 350.
  for (const std::uint64_t seed : {3ull, 11ull}) {
    auto model = std::make_unique<ComposedModel>("far");
    auto& sub = model->add_submodel("S");
    auto count = sub.add_place<std::int64_t>("count", 0);
    auto& slow =
        sub.add_timed_activity("slow", stats::make_uniform(100.0, 900.0));
    slow.add_output_gate(
        {"s", [count](GateContext&) { count->mut() += 1; }, access({}, {count})});
    auto& rare =
        sub.add_timed_activity("rare", stats::make_deterministic(350.0));
    rare.add_output_gate(
        {"r", [count](GateContext&) { count->mut() += 10; }, access({}, {count})});

    Simulator sim(config_with(false, 5000.0, seed));
    auto rec = testing::fire_sink();
    sim.set_trace(&rec);
    sim.set_model(*model);
    const auto stats = sim.run();

    ASSERT_GT(stats.events, 10u);
    const auto fires = testing::fires(rec);
    EXPECT_TRUE(times_nondecreasing(fires)) << "seed " << seed;
    std::vector<Time> rare_times;
    for (const auto& e : fires) {
      if (e.activity == rare.name()) rare_times.push_back(e.time);
    }
    std::vector<Time> expected;
    for (int k = 1; k <= 14; ++k) expected.push_back(350.0 * k);
    EXPECT_EQ(rare_times, expected) << "seed " << seed;
    // slow adds 1 per fire, rare 10.
    EXPECT_EQ(count->get(),
              static_cast<std::int64_t>(fires.size()) + 9 * 14);
  }
}

TEST(CompiledEngine, CalendarOrdersFractionalTimesWithinBucket) {
  // Exponential(4) packs many fractional completion times into each
  // unit-width bucket; within-bucket ordering must stay exact (time,
  // then priority, then FIFO seq).
  const auto run = [](bool trampoline) {
    auto model = std::make_unique<ComposedModel>("frac");
    auto& sub = model->add_submodel("S");
    auto count = sub.add_place<std::int64_t>("count", 0);
    for (int i = 0; i < 6; ++i) {
      auto& fast = sub.add_timed_activity(
          "fast" + std::to_string(i), stats::make_exponential(4.0),
          /*priority=*/i % 3);
      fast.add_output_gate({"f", [count](GateContext&) { count->mut() += 1; },
                            access({}, {count})});
    }
    Simulator sim(config_with(trampoline, 50.0, 9));
    auto rec = testing::fire_sink();
    sim.set_trace(&rec);
    sim.set_model(*model);
    sim.run();
    auto fires = testing::fires(rec);
    EXPECT_EQ(count->get(), static_cast<std::int64_t>(fires.size()));
    return fires;
  };
  const auto lowered = run(false);
  ASSERT_GT(lowered.size(), 100u);
  EXPECT_TRUE(times_nondecreasing(lowered));
  EXPECT_EQ(run(true), lowered);

  // The clock never runs backwards, so a misordered bucket still records
  // non-decreasing times. Exact binary-fraction periods pin the order in
  // closed form instead: at t = j/4 every activity whose period divides
  // t fires, by descending priority, FIFO among equal priorities.
  ComposedModel model("ticks");
  auto& sub = model.add_submodel("S");
  const auto add = [&sub](const std::string& name, double period,
                          int priority) -> const Activity& {
    auto& a = sub.add_timed_activity(name, stats::make_deterministic(period),
                                     priority);
    a.add_output_gate({"t", [](GateContext&) {}, access({})});
    return a;
  };
  const Activity& quarter = add("quarter", 0.25, 0);
  const Activity& half = add("half", 0.5, 1);
  const Activity& three = add("three", 0.75, 2);
  const Activity& half_fifo = add("half_fifo", 0.5, 1);
  Simulator sim(config_with(false, 10.0, 1));
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);
  sim.set_model(model);
  sim.run();
  std::vector<Fire> expected;
  for (int j = 1; j <= 40; ++j) {
    const Time t = 0.25 * j;
    if (j % 3 == 0) expected.push_back({t, three.name(), 0});
    if (j % 2 == 0) {
      expected.push_back({t, half.name(), 0});
      expected.push_back({t, half_fifo.name(), 0});
    }
    expected.push_back({t, quarter.name(), 0});
  }
  EXPECT_EQ(testing::fires(rec), expected);
}

TEST(CompiledEngine, AdvanceInStepsMatchesOneShot) {
  // The calendar keeps state across advance_until horizons (peeked but
  // unfired events stay queued); stepping must replay the one-shot run.
  auto one = MixedModel::build();
  Simulator whole(config_with(false, 100.0, 13));
  auto wrec = testing::fire_sink();
  whole.set_trace(&wrec);
  whole.set_model(*one.model);
  const auto wstats = whole.run();

  auto stepped = MixedModel::build();
  Simulator steps(config_with(false, 100.0, 13));
  auto srec = testing::fire_sink();
  steps.set_trace(&srec);
  steps.set_model(*stepped.model);
  steps.reset();
  RunStats sstats;
  for (Time t = 12.5; t <= 100.0; t += 12.5) sstats = steps.advance_until(t);
  EXPECT_EQ(testing::fires(wrec), testing::fires(srec));
  EXPECT_EQ(wstats.events, sstats.events);
  EXPECT_EQ(one.done->get(), stepped.done->get());
}

TEST(CompiledEngine, ResetRestoresMarkingsWithoutPerPlaceResets) {
  auto m = MixedModel::build();
  Simulator sim(config_with(false, 100.0, 2));
  sim.set_model(*m.model);
  sim.run();
  ASSERT_NE(m.done->get(), 0);

  const std::uint64_t before = PlaceBase::reset_count();
  sim.reset(2);
  EXPECT_EQ(PlaceBase::reset_count(), before)
      << "compiled reset must be a block copy, not virtual reset() calls";
  EXPECT_EQ(m.buffer->get(), 0);
  EXPECT_EQ(m.done->get(), 0);
  EXPECT_EQ(m.opaque_hits->get(), 0);
}

TEST(CompiledEngine, ResetWithSeedReplaysIdenticalReplication) {
  auto m = MixedModel::build();
  Simulator sim(config_with(false, 80.0, 21));
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);
  sim.set_model(*m.model);
  sim.run();
  const auto first = testing::fires(rec);
  const auto done_first = m.done->get();
  ASSERT_FALSE(first.empty());

  // Same seed after reset: byte-identical replay off the arena image
  // (the zero-rebuild replication path the system pool relies on).
  rec.clear();
  sim.reset(21);
  sim.advance_until(80.0);
  EXPECT_EQ(testing::fires(rec), first);
  EXPECT_EQ(m.done->get(), done_first);
}

TEST(CompiledEngine, PodVectorMarkingRestoredOnReset) {
  ComposedModel cm("pod");
  auto& sub = cm.add_submodel("S");
  auto vec = sub.add_place<std::vector<std::int32_t>>(
      "vec", std::vector<std::int32_t>{1, 2, 3});
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate({"bump",
                         [vec](GateContext&) {
                           for (auto& v : vec->mut()) v += 1;
                         },
                         access({}, {vec})});

  Simulator sim(config_with(false, 5.0, 1));
  sim.set_model(cm);
  sim.run();
  EXPECT_EQ(vec->get(), (std::vector<std::int32_t>{6, 7, 8}));
  sim.reset(1);
  EXPECT_EQ(vec->get(), (std::vector<std::int32_t>{1, 2, 3}))
      << "pod-vector markings restore through the flat span recipe";
}

TEST(CompiledEngine, DoubleCompileThrows) {
  auto m = MixedModel::build();
  Simulator first(config_with(false, 10.0, 1));
  first.set_model(*m.model);
  first.run();
  const std::int64_t buffer = m.buffer->get();
  const std::int64_t done = m.done->get();
  const std::int64_t opaque_hits = m.opaque_hits->get();
  ASSERT_GT(buffer + done + opaque_hits, 0);

  Simulator second(config_with(false, 10.0, 1));
  EXPECT_THROW(second.set_model(*m.model), std::logic_error)
      << "a model may be arena-bound by at most one simulator at a time";
  // The failed set_model registered no model: the second simulator
  // refuses to run instead of executing against the first one's arena.
  EXPECT_THROW(second.reset(), std::logic_error);
  EXPECT_THROW(second.run(), std::logic_error);
  EXPECT_THROW(second.advance_until(10.0), std::logic_error);
  EXPECT_EQ(second.kernel_stats().places, 0u);
  EXPECT_EQ(m.buffer->get(), buffer);
  EXPECT_EQ(m.done->get(), done);
  EXPECT_EQ(m.opaque_hits->get(), opaque_hits);
}

/// Model A of the failed-compile rollback test: P (compiled id 0) and R
/// (id 1). The clock writes both but reports only P through touch(), so
/// the dynamic dirtying resolves P's compiled id on every firing; a
/// corrupted id dirties R's watcher instead of P's and the trajectory
/// changes.
struct TouchModel {
  std::unique_ptr<ComposedModel> model;
  std::shared_ptr<Place<std::int64_t>> p;

  static TouchModel build() {
    TouchModel m;
    m.model = std::make_unique<ComposedModel>("A");
    auto& sub = m.model->add_submodel("S");
    auto p = sub.add_place<std::int64_t>("p", 0);
    auto r = sub.add_place<std::int64_t>("r", 0);
    auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
    clock.add_output_gate({"inc",
                           [p](GateContext& ctx) {
                             p->mut() += 1;
                             ctx.touch(p.get());
                           },
                           access_dynamic({}, {p, r})});
    auto& watch_p =
        sub.add_timed_activity("watch_p", stats::make_exponential(0.3));
    watch_p.add_input_gate({"odd", [p]() { return p->get() % 2 == 1; },
                            nullptr, access({p}), {}});
    watch_p.add_output_gate({"noop", [](GateContext&) {}, access({}, {})});
    auto& watch_r =
        sub.add_timed_activity("watch_r", stats::make_exponential(0.3));
    watch_r.add_input_gate({"zero", [r]() { return r->get() == 0; }, nullptr,
                            access({r}), {}});
    watch_r.add_output_gate({"noop", [](GateContext&) {}, access({}, {})});
    m.p = p;
    return m;
  }
};

TEST(CompiledEngine, FailedCompileRollsBackBindingsAndIds) {
  // Model B owns Q and joins A's P. While a first simulator holds A's
  // arena, compiling B binds Q, then throws on P ("already
  // arena-bound"). The failed compile must leave Q inline and readable,
  // P's compiled id unchanged, and the first simulator's next run
  // bit-identical to a control run.
  constexpr Time kEnd = 60.0;
  constexpr std::uint64_t kSeed = 17;
  auto control_model = TouchModel::build();
  Simulator control(config_with(false, kEnd, kSeed));
  auto control_rec = testing::fire_sink();
  control.set_trace(&control_rec);
  control.set_model(*control_model.model);
  const RunStats control_stats = control.run();

  auto a = TouchModel::build();
  Simulator first(config_with(false, kEnd, kSeed));
  auto rec = testing::fire_sink();
  first.set_trace(&rec);
  first.set_model(*a.model);
  first.run();
  ASSERT_EQ(a.p->compiled_id(), 0u);

  ComposedModel b("B");
  auto& sub = b.add_submodel("T");
  auto q = sub.add_place<std::int64_t>("q", 7);
  sub.join_place("p", a.p);
  {
    Simulator second(config_with(false, kEnd, kSeed));
    EXPECT_THROW(second.set_model(b), std::logic_error);
  }
  EXPECT_EQ(a.p->compiled_id(), 0u) << "another engine's id was restamped";
  EXPECT_EQ(q->compiled_id(), PlaceBase::kNoCompiledId);
  EXPECT_EQ(q->get(), 7);
  q->set(9);
  EXPECT_EQ(q->get(), 9);
  // Q's marking is back inline: a model holding only Q compiles (an
  // arena-bound Q would throw "already arena-bound").
  ComposedModel c("C");
  c.add_submodel("U").join_place("q", q);
  EXPECT_NO_THROW(CompiledModel{c});

  rec.clear();
  first.reset(kSeed);
  const RunStats stats = first.advance_until(kEnd);
  EXPECT_EQ(testing::fires(rec), testing::fires(control_rec));
  EXPECT_EQ(stats.events, control_stats.events);
  EXPECT_EQ(stats.enabling_evals, control_stats.enabling_evals);
  EXPECT_EQ(a.p->get(), control_model.p->get());
}

TEST(CompiledEngine, KernelStatsCensusMatchesModel) {
  auto m = MixedModel::build();
  Simulator sim(config_with(false, 10.0, 1));
  sim.set_model(*m.model);
  const KernelStats stats = sim.kernel_stats();
  EXPECT_EQ(stats.places, 3u);
  EXPECT_EQ(stats.arena_places, 3u);
  EXPECT_GT(stats.arena_bytes, 0u);
  // Lowered: produce's exact effect, branch's pred terms + take1 exact
  // effect, watch's probe gate. Trampolined: branch take2, watch's "w",
  // opaque's undeclared gate.
  EXPECT_EQ(stats.compiled_gates, 4u);
  EXPECT_EQ(stats.trampoline_gates, 3u);

  // Before set_model() there is no kernel to count.
  Simulator unset(config_with(false, 10.0, 1));
  const KernelStats none = unset.kernel_stats();
  EXPECT_EQ(none.places, 0u);
  EXPECT_EQ(none.arena_bytes, 0u);
}

}  // namespace
}  // namespace vcpusim::san
