// Structured-tracing contract of the simulator: which events are
// emitted, in what order, and that the stream is a pure function of the
// trajectory (identical across incremental-enabling modes); and the
// trace keys that name an event's activity or place.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "san/simulator.hpp"
#include "san/trace.hpp"
#include "stats/distribution.hpp"

namespace vcpusim::san {
namespace {

/// Local recording sink: serializes every event to one line so streams
/// can be compared across runs (san_tests deliberately exercises only
/// the san-layer API; the production sinks live in trace/).
class RecordingSink final : public TraceSink {
 public:
  explicit RecordingSink(std::uint8_t categories = kTraceAll)
      : TraceSink(categories) {}

  void on_event(const TraceEvent& event) override {
    const std::string_view detail = detail_text(event, text_);
    std::ostringstream os;
    os << trace_category_name(event.category) << " t=" << event.time
       << " seq=" << event.seq << " name=" << event.name << " a=" << event.a
       << " b=" << event.b << " d=" << detail;
    lines.push_back(os.str());
    events.push_back({event.category, event.time, event.seq,
                      std::string(event.name), event.a, event.b,
                      std::string(detail)});
  }

  struct Owned {
    TraceCategory category;
    Time time;
    std::uint64_t seq;
    std::string name;
    std::int64_t a;
    std::int64_t b;
    std::string detail;
  };
  std::vector<std::string> lines;
  std::vector<Owned> events;

  std::size_t count(TraceCategory c) const {
    std::size_t n = 0;
    for (const auto& e : events) {
      if (e.category == c) ++n;
    }
    return n;
  }

 private:
  std::string text_;  ///< a kernel marking's rendered value
};

/// Deterministic clock incrementing a counter, with declared footprint.
struct ClockModel {
  ComposedModel model{"M"};
  std::shared_ptr<Place<std::int64_t>> count;

  ClockModel() {
    auto& sub = model.add_submodel("S");
    count = sub.add_place<std::int64_t>("count", 0);
    auto& clock =
        sub.add_timed_activity("clock", stats::make_deterministic(1.0));
    clock.add_output_gate({"inc",
                           [c = count](GateContext&) { c->mut() += 1; },
                           access({}, {count})});
  }
};

TEST(SimulatorTrace, NoSinkByDefault) {
  Simulator sim(SimulatorConfig{});
  EXPECT_EQ(sim.trace(), nullptr);
}

TEST(SimulatorTrace, FireEventsMatchCompletions) {
  ClockModel m;
  SimulatorConfig config;
  config.end_time = 5.0;
  Simulator sim(config);
  sim.set_model(m.model);
  RecordingSink sink;
  sim.set_trace(&sink);
  const auto stats = sim.run();

  EXPECT_EQ(sink.count(TraceCategory::kFire), stats.events);
  std::uint64_t expected_seq = 0;
  for (const auto& e : sink.events) {
    if (e.category != TraceCategory::kFire) continue;
    EXPECT_EQ(e.name, "S->clock");
    EXPECT_EQ(e.a, 0);  // single case
    EXPECT_EQ(e.seq, expected_seq++);
  }
}

TEST(SimulatorTrace, MarkingEventsComeFromDeclaredWrites) {
  ClockModel m;
  SimulatorConfig config;
  config.end_time = 3.0;
  Simulator sim(config);
  sim.set_model(m.model);
  RecordingSink sink;
  sim.set_trace(&sink);
  sim.run();

  ASSERT_EQ(sink.count(TraceCategory::kMarking), 3U);
  std::vector<std::string> values;
  for (const auto& e : sink.events) {
    if (e.category != TraceCategory::kMarking) continue;
    EXPECT_EQ(e.name, "S->count");
    values.push_back(e.detail);
  }
  EXPECT_EQ(values, (std::vector<std::string>{"1", "2", "3"}));
}

TEST(SimulatorTrace, UndeclaredFootprintEmitsNoMarkingEvents) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto count = sub.add_place<std::int64_t>("count", 0);
  auto& clock =
      sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate(
      {"inc", [count](GateContext&) { count->mut() += 1; }});  // undeclared

  SimulatorConfig config;
  config.end_time = 3.0;
  Simulator sim(config);
  sim.set_model(cm);
  RecordingSink sink;
  sim.set_trace(&sink);
  sim.run();

  EXPECT_EQ(sink.count(TraceCategory::kFire), 3U);
  EXPECT_EQ(sink.count(TraceCategory::kMarking), 0U);
}

TEST(SimulatorTrace, EnablingEventsOnlyOnActualTransitions) {
  // `burst` is enabled while gate_open holds a token; `toggle` flips it
  // every 2 ticks, so burst alternates activated/aborted.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto gate_open = sub.add_place<std::int64_t>("open", 0);
  auto flips = sub.add_place<std::int64_t>("flips", 0);
  auto& toggle =
      sub.add_timed_activity("toggle", stats::make_deterministic(2.0));
  toggle.add_output_gate({"flip",
                          [gate_open, flips](GateContext&) {
                            gate_open->set(gate_open->get() == 0 ? 1 : 0);
                            flips->mut() += 1;
                          },
                          access({gate_open}, {gate_open, flips})});
  auto& burst =
      sub.add_timed_activity("burst", stats::make_deterministic(10.0));
  burst.add_input_gate({"armed",
                        [gate_open]() { return gate_open->get() > 0; },
                        nullptr,
                        access({gate_open})});

  SimulatorConfig config;
  config.end_time = 9.0;  // toggles at 2,4,6,8 -> burst never completes
  Simulator sim(config);
  sim.set_model(cm);
  RecordingSink sink;
  sim.set_trace(&sink);
  sim.run();

  // Expected burst transitions: activated at t=2, aborted at 4,
  // activated at 6, aborted at 8 — and nothing in between even though
  // `toggle` also re-evaluates every settle round.
  std::vector<std::pair<double, std::int64_t>> transitions;
  for (const auto& e : sink.events) {
    if (e.category != TraceCategory::kEnabling) continue;
    if (e.name != "S->burst") continue;
    transitions.emplace_back(e.time, e.a);
  }
  const std::vector<std::pair<double, std::int64_t>> expected = {
      {2.0, 1}, {4.0, 0}, {6.0, 1}, {8.0, 0}};
  EXPECT_EQ(transitions, expected);
}

TEST(SimulatorTrace, StreamIdenticalAcrossIncrementalEnablingModes) {
  std::vector<std::string> streams;
  for (const bool incremental : {true, false}) {
    ClockModel m;
    SimulatorConfig config;
    config.end_time = 25.0;
    config.seed = 7;
    config.incremental_enabling = incremental;
    Simulator sim(config);
    sim.set_model(m.model);
    RecordingSink sink;
    sim.set_trace(&sink);
    sim.run();
    std::string joined;
    for (const auto& line : sink.lines) joined += line + "\n";
    streams.push_back(joined);
  }
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_FALSE(streams[0].empty());
}

TEST(SimulatorTrace, CategoryMaskSuppressesOtherEvents) {
  ClockModel m;
  SimulatorConfig config;
  config.end_time = 4.0;
  Simulator sim(config);
  sim.set_model(m.model);
  RecordingSink sink(trace_bit(TraceCategory::kFire));
  sim.set_trace(&sink);
  sim.run();

  EXPECT_EQ(sink.count(TraceCategory::kFire), 4U);
  EXPECT_EQ(sink.count(TraceCategory::kMarking), 0U);
  EXPECT_EQ(sink.count(TraceCategory::kEnabling), 0U);
}

TEST(SimulatorTrace, GateEmittedEventsCarryTheFiringSeq) {
  // Gates see the sink through GateContext and stamp their events with
  // the completion ordinal — the path the scheduler bridge uses.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto count = sub.add_place<std::int64_t>("count", 0);
  auto& clock =
      sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate(
      {"emit",
       [count](GateContext& ctx) {
         count->mut() += 1;
         if (ctx.trace != nullptr &&
             ctx.trace->wants(TraceCategory::kScheduler)) {
           ctx.trace->on_event(TraceEvent{TraceCategory::kScheduler, ctx.now,
                                          ctx.seq, "sched", count->get(), -1,
                                          "custom"});
         }
       },
       access({}, {count})});

  SimulatorConfig config;
  config.end_time = 3.0;
  Simulator sim(config);
  sim.set_model(cm);
  RecordingSink sink;
  sim.set_trace(&sink);
  sim.run();

  std::vector<std::uint64_t> sched_seqs;
  std::vector<std::uint64_t> fire_seqs;
  for (const auto& e : sink.events) {
    if (e.category == TraceCategory::kScheduler) sched_seqs.push_back(e.seq);
    if (e.category == TraceCategory::kFire) fire_seqs.push_back(e.seq);
  }
  EXPECT_EQ(sched_seqs, fire_seqs);  // gate events share the firing seq
  // Gate-emitted events precede the kFire of the same completion.
  std::size_t first_sched = sink.events.size();
  std::size_t first_fire = sink.events.size();
  for (std::size_t i = 0; i < sink.events.size(); ++i) {
    if (sink.events[i].category == TraceCategory::kScheduler) {
      first_sched = std::min(first_sched, i);
    }
    if (sink.events[i].category == TraceCategory::kFire) {
      first_fire = std::min(first_fire, i);
    }
  }
  EXPECT_LT(first_sched, first_fire);
}

TEST(SimulatorTrace, DetachingSinkStopsEmission) {
  ClockModel m;
  SimulatorConfig config;
  config.end_time = 3.0;
  Simulator sim(config);
  sim.set_model(m.model);
  RecordingSink sink;
  sim.set_trace(&sink);
  sim.run();
  const std::size_t after_first = sink.events.size();
  EXPECT_GT(after_first, 0U);

  sim.set_trace(nullptr);
  sim.run();
  EXPECT_EQ(sink.events.size(), after_first);
}

// --- trace keys ---------------------------------------------------------
// A sink caches a name's rendering under its key without checking the
// bytes, so a key must never name two strings.

/// True iff every key is non-zero and no two are equal.
bool distinct_non_zero(std::vector<std::uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  return !keys.empty() && keys.front() != 0 &&
         std::adjacent_find(keys.begin(), keys.end()) == keys.end();
}

TEST(TraceKeys, EveryPlaceAndActivityGetsADistinctNonZeroKey) {
  std::vector<std::uint64_t> keys;
  // Two models with the same names: equal names still get their own keys.
  std::vector<std::unique_ptr<ComposedModel>> models;
  for (int copy = 0; copy < 2; ++copy) {
    auto& model = *models.emplace_back(std::make_unique<ComposedModel>("M"));
    for (int m = 0; m < 3; ++m) {
      auto& sub = model.add_submodel("S" + std::to_string(m));
      for (int i = 0; i < 40; ++i) {
        const std::string n = std::to_string(i);
        sub.add_place<std::int64_t>("p" + n, 0);
        sub.add_place<double>("d" + n, 0.0);
        sub.add_timed_activity("t" + n, stats::make_deterministic(1.0));
        sub.add_instantaneous_activity("i" + n);  // moved into the model
      }
    }
    for (const auto& sub : model.submodels()) {
      for (const PlacePtr& p : sub->places()) keys.push_back(p->trace_key());
    }
    for (const Activity* a : model.all_activities()) {
      keys.push_back(a->trace_key());
    }
  }
  EXPECT_EQ(keys.size(), 2U * 3U * 40U * 4U);
  EXPECT_TRUE(distinct_non_zero(keys));
}

TEST(TraceKeys, KeysStayDistinctAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<std::uint64_t>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&keys = per_thread[static_cast<std::size_t>(t)]] {
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 2 == 0) {
          keys.push_back(TokenPlace("p", 0).trace_key());
        } else {
          keys.push_back(Activity::make_instantaneous("a").trace_key());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<std::uint64_t> keys;
  for (const auto& k : per_thread) keys.insert(keys.end(), k.begin(), k.end());
  EXPECT_TRUE(distinct_non_zero(keys));
}

TEST(TraceKeys, MovedFromActivityGivesUpItsKey) {
  Activity a("A", stats::make_deterministic(1.0));
  const std::uint64_t key = a.trace_key();
  ASSERT_NE(key, 0U);
  Activity b(std::move(a));
  EXPECT_EQ(b.trace_key(), key);
  EXPECT_EQ(a.trace_key(), 0U);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.name(), "A");

  Activity c = Activity::make_instantaneous("C");
  const std::uint64_t c_key = c.trace_key();
  ASSERT_NE(c_key, key);
  c = std::move(b);  // "C"'s key retires with its name
  EXPECT_EQ(c.trace_key(), key);
  EXPECT_EQ(b.trace_key(), 0U);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.name(), "A");

  // A regrowing vector moves every element: each name keeps its key.
  std::vector<Activity> activities;
  std::map<std::string, std::uint64_t> keys;
  for (int i = 0; i < 100; ++i) {
    activities.push_back(Activity::make_instantaneous(std::to_string(i)));
    keys.emplace(std::to_string(i), activities.back().trace_key());
  }
  for (const Activity& activity : activities) {
    EXPECT_EQ(activity.trace_key(), keys.at(activity.name()));
  }
}

/// Records each event's (name, key).
class KeySink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    seen.emplace_back(event.category, std::string(event.name));
    keys.push_back(event.name_key);
  }
  std::vector<std::pair<TraceCategory, std::string>> seen;
  std::vector<std::uint64_t> keys;
};

TEST(TraceKeys, SimulatorEventsCarryTheKeyOfTheirName) {
  ClockModel m;
  Activity& clock = *m.model.all_activities().front();
  SimulatorConfig config;
  config.end_time = 3.0;
  Simulator sim(config);
  sim.set_model(m.model);
  KeySink sink;
  sim.set_trace(&sink);
  sim.run();
  ASSERT_FALSE(sink.seen.empty());
  std::size_t marking = 0;
  for (std::size_t i = 0; i < sink.seen.size(); ++i) {
    const auto& [category, name] = sink.seen[i];
    SCOPED_TRACE(name);
    if (category == TraceCategory::kMarking) {
      EXPECT_EQ(name, m.count->name());
      EXPECT_EQ(sink.keys[i], m.count->trace_key());
      ++marking;
    } else {
      EXPECT_EQ(name, clock.name());
      EXPECT_EQ(sink.keys[i], clock.trace_key());
    }
  }
  EXPECT_EQ(marking, 3U);
}

}  // namespace
}  // namespace vcpusim::san
