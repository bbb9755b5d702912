#include "san/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "san/sanitizer.hpp"
#include "sched/registry.hpp"
#include "stats/distribution.hpp"
#include "testing/helpers.hpp"

namespace vcpusim::san {
namespace {

SimulatorConfig config_for(Time end, std::uint64_t seed = 1) {
  SimulatorConfig c;
  c.end_time = end;
  c.seed = seed;
  return c;
}

TEST(Simulator, RequiresModel) {
  Simulator sim(config_for(10));
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulator, RejectsNonPositiveEndTime) {
  SimulatorConfig c;
  c.end_time = 0;
  EXPECT_THROW(Simulator{c}, std::invalid_argument);
}

TEST(Simulator, SettingModelAgainSwapsTheModel) {
  // A simulator can be re-pointed at another model: the second model
  // runs from its own initial marking and the first stays untouched
  // after the swap (the pool's rebind path relies on this).
  auto make_counter_model = [](const std::string& name,
                               std::shared_ptr<TokenPlace>& counter) {
    auto model = std::make_unique<ComposedModel>(name);
    auto& sub = model->add_submodel("S");
    counter = sub.add_place<std::int64_t>("count", 0);
    auto c = counter;
    auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
    clock.add_output_gate({"inc", [c](GateContext&) { c->mut() += 1; }});
    return model;
  };
  std::shared_ptr<TokenPlace> first_counter;
  std::shared_ptr<TokenPlace> second_counter;
  const auto first = make_counter_model("A", first_counter);
  const auto second = make_counter_model("B", second_counter);

  Simulator sim(config_for(10.0));
  sim.set_model(*first);
  EXPECT_EQ(sim.run().events, 10u);
  EXPECT_EQ(first_counter->get(), 10);

  sim.set_model(*second);
  EXPECT_EQ(sim.run().events, 10u);
  EXPECT_EQ(second_counter->get(), 10);
  EXPECT_EQ(first_counter->get(), 10) << "swap must not touch the old model";
}

TEST(Simulator, DeterministicClockFiresEveryUnit) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto counter = sub.add_place<std::int64_t>("count", 0);
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate(
      {"inc", [counter](GateContext&) { counter->mut() += 1; }});

  Simulator sim(config_for(10.0));
  sim.set_model(cm);
  const auto stats = sim.run();
  EXPECT_EQ(counter->get(), 10);  // fires at t=1..10
  EXPECT_EQ(stats.events, 10u);
  EXPECT_EQ(stats.end_time, 10.0);
}

TEST(Simulator, TokenFlowProducerConsumer) {
  // Producer adds a token every 2 time units; consumer (period 1) removes
  // one whenever available. At the end the buffer must be nearly empty.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto buffer = sub.add_place<std::int64_t>("buffer", 0);
  auto produced = sub.add_place<std::int64_t>("produced", 0);
  auto consumed = sub.add_place<std::int64_t>("consumed", 0);

  auto& producer =
      sub.add_timed_activity("produce", stats::make_deterministic(2.0));
  producer.add_output_gate({"p", [buffer, produced](GateContext&) {
                              buffer->mut() += 1;
                              produced->mut() += 1;
                            }});
  auto& consumer =
      sub.add_timed_activity("consume", stats::make_deterministic(1.0));
  consumer.add_input_gate(
      {"nonempty", [buffer]() { return buffer->get() > 0; }, nullptr});
  consumer.add_output_gate({"c", [buffer, consumed](GateContext&) {
                              buffer->mut() -= 1;
                              consumed->mut() += 1;
                            }});

  Simulator sim(config_for(100.0));
  sim.set_model(cm);
  sim.run();
  EXPECT_EQ(produced->get(), 50);
  EXPECT_EQ(produced->get() - consumed->get(), buffer->get());
  EXPECT_LE(buffer->get(), 1);
  EXPECT_GE(consumed->get(), 49);
}

TEST(Simulator, InstantaneousFiresBeforeTimeAdvances) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto trigger = sub.add_place<std::int64_t>("trigger", 0);
  auto fired_at = sub.add_place<std::int64_t>("fired_at", -1);

  auto& timed = sub.add_timed_activity("timed", stats::make_deterministic(3.0));
  timed.add_output_gate(
      {"set", [trigger](GateContext&) { trigger->set(1); }});

  auto& inst = sub.add_instantaneous_activity("inst");
  inst.add_input_gate(
      {"armed", [trigger]() { return trigger->get() > 0; }, nullptr});
  inst.add_output_gate({"react", [trigger, fired_at](GateContext& ctx) {
                          trigger->set(0);
                          fired_at->set(static_cast<std::int64_t>(ctx.now));
                        }});

  Simulator sim(config_for(3.5));
  sim.set_model(cm);
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);
  sim.run();
  EXPECT_EQ(fired_at->get(), 3);  // same instant as the timed firing
  const auto fires = testing::fires(rec);
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[0].activity, "S->timed");
  EXPECT_EQ(fires[1].activity, "S->inst");
  EXPECT_EQ(fires[0].time, fires[1].time);
}

TEST(Simulator, InstantaneousEnabledAtTimeZeroFiresBeforeAnything) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto tokens = sub.add_place<std::int64_t>("tokens", 3);
  auto& inst = sub.add_instantaneous_activity("drain");
  inst.add_input_gate(
      {"nonempty", [tokens]() { return tokens->get() > 0; }, nullptr});
  inst.add_output_gate(
      {"dec", [tokens](GateContext&) { tokens->mut() -= 1; }});

  Simulator sim(config_for(1.0));
  sim.set_model(cm);
  const auto stats = sim.run();
  EXPECT_EQ(tokens->get(), 0);
  EXPECT_EQ(stats.events, 3u);  // all at t=0
}

TEST(Simulator, InstantaneousPriorityOrdering) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto gate_open = sub.add_place<std::int64_t>("gate_open", 1);
  auto order = std::make_shared<std::vector<std::string>>();

  auto& low = sub.add_instantaneous_activity("low", 1);
  low.add_input_gate(
      {"open", [gate_open]() { return gate_open->get() == 1; }, nullptr});
  low.add_output_gate({"l", [gate_open, order](GateContext&) {
                         gate_open->set(2);
                         order->push_back("low");
                       }});
  auto& high = sub.add_instantaneous_activity("high", 5);
  high.add_input_gate(
      {"open", [gate_open]() { return gate_open->get() >= 1; }, nullptr});
  high.add_output_gate({"h", [gate_open, order](GateContext&) {
                          gate_open->mut() -= (gate_open->get() == 2 ? 2 : 1);
                          order->push_back("high");
                        }});

  // high (priority 5) must fire before low even though both are enabled.
  Simulator sim(config_for(1.0));
  sim.set_model(cm);
  sim.run();
  ASSERT_FALSE(order->empty());
  EXPECT_EQ(order->front(), "high");
}

TEST(Simulator, InstantaneousLivelockDetected) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto& inst = sub.add_instantaneous_activity("spin");
  // Always enabled, never changes the marking: zero-time livelock.
  inst.add_output_gate({"noop", [](GateContext&) {}});

  SimulatorConfig c = config_for(1.0);
  c.max_instantaneous_chain = 100;
  Simulator sim(c);
  sim.set_model(cm);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulator, DisabledActivationIsAborted) {
  // A slow activity is disabled by a faster one before completing: the
  // slow activity must never fire (race/abort semantics).
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto armed = sub.add_place<std::int64_t>("armed", 1);
  auto slow_fired = sub.add_place<std::int64_t>("slow_fired", 0);

  auto& fast = sub.add_timed_activity("fast", stats::make_deterministic(1.0));
  fast.add_input_gate(
      {"armed", [armed]() { return armed->get() == 1; }, nullptr});
  fast.add_output_gate({"disarm", [armed](GateContext&) { armed->set(0); }});

  auto& slow = sub.add_timed_activity("slow", stats::make_deterministic(5.0));
  slow.add_input_gate(
      {"armed", [armed]() { return armed->get() == 1; }, nullptr});
  slow.add_output_gate(
      {"mark", [slow_fired](GateContext&) { slow_fired->set(1); }});

  Simulator sim(config_for(20.0));
  sim.set_model(cm);
  sim.run();
  EXPECT_EQ(slow_fired->get(), 0);
}

TEST(Simulator, ReEnabledActivitySamplesFreshDelay) {
  // enable -> disable -> re-enable: the activity fires relative to its
  // re-activation, not its first activation.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto phase = sub.add_place<std::int64_t>("phase", 1);
  auto fired_at = sub.add_place<std::int64_t>("fired_at", -1);

  // Phase driver: disables "watched" during [1, 2).
  auto& driver = sub.add_timed_activity("driver", stats::make_deterministic(1.0));
  driver.add_output_gate({"advance", [phase](GateContext&) {
                            phase->mut() += 1;  // 1->2 at t=1, 2->3 at t=2, ...
                          }});

  auto& watched =
      sub.add_timed_activity("watched", stats::make_deterministic(1.5));
  watched.add_input_gate(
      {"enabled_phase", [phase]() { return phase->get() != 2; }, nullptr});
  watched.add_output_gate({"mark", [fired_at, phase](GateContext& ctx) {
                             if (fired_at->get() < 0) {
                               fired_at->set(static_cast<std::int64_t>(
                                   ctx.now * 10));  // tenths of a tick
                             }
                           }});

  // Timeline: activated at t=0 (due t=1.5), disabled at t=1 (phase 2),
  // re-enabled at t=2 (phase 3) -> fires at t=3.5, not 1.5 or 2.5.
  Simulator sim(config_for(10.0));
  sim.set_model(cm);
  sim.run();
  EXPECT_EQ(fired_at->get(), 35);
}

TEST(Simulator, SameTimePriorityOrderingOfTimedActivities) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto order = std::make_shared<std::vector<std::string>>();
  auto once = sub.add_place<std::int64_t>("once", 1);

  auto& lo = sub.add_timed_activity("lo", stats::make_deterministic(1.0), 0);
  lo.add_input_gate({"g", [once]() { return once->get() == 1; }, nullptr});
  lo.add_output_gate({"o", [order](GateContext&) { order->push_back("lo"); }});
  auto& hi = sub.add_timed_activity("hi", stats::make_deterministic(1.0), 10);
  hi.add_input_gate({"g", [once]() { return once->get() == 1; }, nullptr});
  hi.add_output_gate({"o", [order, once](GateContext&) {
                        order->push_back("hi");
                      }});

  Simulator sim(config_for(1.0));
  sim.set_model(cm);
  sim.run();
  ASSERT_EQ(order->size(), 2u);
  EXPECT_EQ((*order)[0], "hi");
  EXPECT_EQ((*order)[1], "lo");
}

TEST(Simulator, SameSeedSameTrajectory) {
  const auto build = [](ComposedModel& cm,
                        std::shared_ptr<TokenPlace>& queue_out) {
    auto& sub = cm.add_submodel("S");
    auto queue = sub.add_place<std::int64_t>("queue", 0);
    auto& arrive =
        sub.add_timed_activity("arrive", stats::make_exponential(0.7));
    arrive.add_output_gate(
        {"a", [queue](GateContext&) { queue->mut() += 1; }});
    auto& serve = sub.add_timed_activity("serve", stats::make_exponential(1.0));
    serve.add_input_gate(
        {"busy", [queue]() { return queue->get() > 0; }, nullptr});
    serve.add_output_gate({"s", [queue](GateContext&) { queue->mut() -= 1; }});
    queue_out = queue;
  };

  std::vector<testing::Fire> first;
  for (int run = 0; run < 2; ++run) {
    ComposedModel cm("M");
    std::shared_ptr<TokenPlace> queue;
    build(cm, queue);
    Simulator sim(config_for(200.0, 42));
    sim.set_model(cm);
    auto rec = testing::fire_sink();
    sim.set_trace(&rec);
    sim.run();
    if (run == 0) {
      first = testing::fires(rec);
    } else {
      EXPECT_EQ(testing::fires(rec), first);
    }
  }
}

TEST(Simulator, DifferentSeedsDifferentTrajectories) {
  const auto run_once_count = [](std::uint64_t seed) {
    ComposedModel cm("M");
    auto& sub = cm.add_submodel("S");
    auto count = sub.add_place<std::int64_t>("count", 0);
    auto& a = sub.add_timed_activity("a", stats::make_exponential(1.0));
    a.add_output_gate({"o", [count](GateContext&) { count->mut() += 1; }});
    Simulator sim(config_for(500.0, seed));
    sim.set_model(cm);
    sim.run();
    return count->get();
  };
  EXPECT_NE(run_once_count(1), run_once_count(2));
}

TEST(Simulator, EventCapStopsRun) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate({"noop", [](GateContext&) {}});
  SimulatorConfig c = config_for(1e9);
  c.max_events = 100;
  Simulator sim(c);
  sim.set_model(cm);
  const auto stats = sim.run();
  EXPECT_TRUE(stats.hit_event_cap);
  EXPECT_EQ(stats.events, 100u);
}

TEST(Simulator, MM1QueueMatchesAnalyticMeanLength) {
  // M/M/1, lambda=0.5, mu=1.0: E[N] = rho/(1-rho) = 1.0.
  ComposedModel cm("MM1");
  auto& sub = cm.add_submodel("Q");
  auto queue = sub.add_place<std::int64_t>("queue", 0);
  auto& arrive = sub.add_timed_activity("arrive", stats::make_exponential(0.5));
  arrive.add_output_gate({"a", [queue](GateContext&) { queue->mut() += 1; }});
  auto& serve = sub.add_timed_activity("serve", stats::make_exponential(1.0));
  serve.add_input_gate(
      {"busy", [queue]() { return queue->get() > 0; }, nullptr});
  serve.add_output_gate({"s", [queue](GateContext&) { queue->mut() -= 1; }});

  RewardVariable mean_n(
      "queue_len", [queue]() { return static_cast<double>(queue->get()); },
      1000.0);

  Simulator sim(config_for(120000.0, 7));
  sim.set_model(cm);
  sim.add_reward(mean_n);
  sim.run();
  EXPECT_NEAR(mean_n.time_averaged(120000.0), 1.0, 0.08);
}

TEST(Simulator, MM1UtilizationMatchesRho) {
  ComposedModel cm("MM1");
  auto& sub = cm.add_submodel("Q");
  auto queue = sub.add_place<std::int64_t>("queue", 0);
  auto& arrive = sub.add_timed_activity("arrive", stats::make_exponential(0.3));
  arrive.add_output_gate({"a", [queue](GateContext&) { queue->mut() += 1; }});
  auto& serve = sub.add_timed_activity("serve", stats::make_exponential(1.0));
  serve.add_input_gate(
      {"busy", [queue]() { return queue->get() > 0; }, nullptr});
  serve.add_output_gate({"s", [queue](GateContext&) { queue->mut() -= 1; }});

  RewardVariable busy("busy", [queue]() { return queue->get() > 0 ? 1.0 : 0.0; },
                      1000.0);
  Simulator sim(config_for(100000.0, 11));
  sim.set_model(cm);
  sim.add_reward(busy);
  sim.run();
  EXPECT_NEAR(busy.time_averaged(100000.0), 0.3, 0.02);
}

TEST(Simulator, ProbabilisticCasesViaSimulator) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto heads = sub.add_place<std::int64_t>("heads", 0);
  auto tails = sub.add_place<std::int64_t>("tails", 0);
  auto& flip = sub.add_timed_activity("flip", stats::make_deterministic(1.0));
  Case h{0.7, {}};
  h.output_gates.push_back({"h", [heads](GateContext&) { heads->mut() += 1; }});
  Case t{0.3, {}};
  t.output_gates.push_back({"t", [tails](GateContext&) { tails->mut() += 1; }});
  flip.add_case(std::move(h));
  flip.add_case(std::move(t));

  Simulator sim(config_for(20000.0, 13));
  sim.set_model(cm);
  sim.run();
  const double total = static_cast<double>(heads->get() + tails->get());
  EXPECT_EQ(total, 20000.0);
  EXPECT_NEAR(heads->get() / total, 0.7, 0.02);
}

TEST(Simulator, MachineRepairmanModelMatchesAnalytic) {
  // The classic machine-repairman model: one submodel per machine, all
  // joined on a shared repairman place.
  // N = 3 machines, each failing at rate lambda = 0.1 while up; a single
  // shared repairman place serializes repairs at rate mu = 1.0.
  // Analytic (birth-death): with rho = lambda/mu,
  //   P(k down) ~ N!/(N-k)! * rho^k; E[#up] = N - E[k].
  constexpr int kMachines = 3;
  constexpr double kLambda = 0.1;
  constexpr double kMu = 1.0;

  ComposedModel model("Shop");
  auto& common = model.add_submodel("Common");
  auto repairman_busy = common.add_place<std::int64_t>("repairman_busy", 0);

  std::vector<std::shared_ptr<TokenPlace>> up_places;
  for (int m = 1; m <= kMachines; ++m) {
    auto& sub = model.add_submodel("Machine_" + std::to_string(m));
    auto up = sub.add_place<std::int64_t>("up", 1);
    auto in_repair = sub.add_place<std::int64_t>("in_repair", 0);
    up_places.push_back(up);
    sub.join_place("repairman_busy", repairman_busy);

    auto& fail = sub.add_timed_activity("fail", stats::make_exponential(kLambda));
    fail.add_input_gate({"is_up", [up]() { return up->get() == 1; }, nullptr});
    fail.add_output_gate({"down", [up](GateContext&) { up->set(0); }});

    // Seize the (single) repairman.
    auto& seize = sub.add_instantaneous_activity("seize");
    seize.add_input_gate({"down_and_free",
                          [up, in_repair, repairman_busy]() {
                            return up->get() == 0 && in_repair->get() == 0 &&
                                   repairman_busy->get() == 0;
                          },
                          nullptr});
    seize.add_output_gate({"start", [in_repair, repairman_busy](GateContext&) {
                             in_repair->set(1);
                             repairman_busy->set(1);
                           }});

    auto& repair = sub.add_timed_activity("repair", stats::make_exponential(kMu));
    repair.add_input_gate(
        {"repairing", [in_repair]() { return in_repair->get() == 1; }, nullptr});
    repair.add_output_gate({"done",
                            [up, in_repair, repairman_busy](GateContext&) {
                              up->set(1);
                              in_repair->set(0);
                              repairman_busy->set(0);
                            }});
  }

  RewardVariable mean_up(
      "mean_up",
      [up_places]() {
        double up = 0;
        for (const auto& p : up_places) up += static_cast<double>(p->get());
        return up;
      },
      2000.0);

  SimulatorConfig config;
  config.end_time = 300000.0;
  config.seed = 17;
  Simulator sim(config);
  sim.set_model(model);
  sim.add_reward(mean_up);
  sim.run();

  // Analytic stationary distribution of machines down.
  const double rho = kLambda / kMu;
  double weights[kMachines + 1];
  double total = 0;
  for (int k = 0; k <= kMachines; ++k) {
    double w = std::pow(rho, k);
    for (int j = 0; j < k; ++j) w *= (kMachines - j);  // N!/(N-k)!
    weights[k] = w;
    total += w;
  }
  double expected_down = 0;
  for (int k = 0; k <= kMachines; ++k) {
    expected_down += k * weights[k] / total;
  }
  const double expected_up = kMachines - expected_down;

  EXPECT_NEAR(mean_up.time_averaged(300000.0), expected_up, 0.03);
}

// Activity semantics, driven through the kernel that executes them, in
// both dispatch modes: lowered, and all-trampoline (verify_footprints).

TEST(Activity, FireRunsInputThenOutputFunctions) {
  // A completion runs every input function, then the chosen case's
  // output gates.
  for (const bool sanitized : {false, true}) {
    ComposedModel cm("M");
    auto& sub = cm.add_submodel("S");
    auto p = sub.add_place<std::int64_t>("p", 0);
    std::vector<std::string> order;
    auto& a = sub.add_timed_activity("a", stats::make_deterministic(1.0));
    a.add_input_gate({"in", [p]() { return p->get() == 0; },
                      [&order](GateContext&) { order.push_back("input"); }});
    a.add_output_gate({"out", [&order, p](GateContext&) {
                         order.push_back("output");
                         p->set(1);
                       }});
    SimulatorConfig config = config_for(5.0);
    config.verify_footprints = sanitized;
    Simulator sim(config);
    sim.set_model(cm);
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"input", "output"}))
        << "sanitized=" << sanitized;
  }
}

TEST(Activity, EnabledWithoutGates) {
  // An activity without input gates is always enabled: a free-running
  // unit clock fires once per tick.
  for (const bool sanitized : {false, true}) {
    ComposedModel cm("M");
    auto& sub = cm.add_submodel("S");
    auto fires = sub.add_place<std::int64_t>("fires", 0);
    auto& clock = sub.add_timed_activity("clock",
                                         stats::make_deterministic(1.0));
    clock.add_output_gate(
        {"count", [fires](GateContext&) { fires->mut() += 1; }});
    SimulatorConfig config = config_for(10.5);
    config.verify_footprints = sanitized;
    Simulator sim(config);
    sim.set_model(cm);
    sim.run();
    EXPECT_EQ(fires->get(), 10) << "sanitized=" << sanitized;
  }
}

TEST(Activity, EnablingIsConjunctionOfGatePredicates) {
  // An activity fires only while every input gate holds.
  for (const bool sanitized : {false, true}) {
    for (const auto& [g1, g2] : {std::pair{1, 1}, std::pair{0, 1},
                                 std::pair{1, 0}}) {
      ComposedModel cm("M");
      auto& sub = cm.add_submodel("S");
      auto a = sub.add_place<std::int64_t>("a", g1);
      auto b = sub.add_place<std::int64_t>("b", g2);
      auto fires = sub.add_place<std::int64_t>("fires", 0);
      auto& gated = sub.add_timed_activity("gated",
                                           stats::make_deterministic(1.0));
      gated.add_input_gate({"g1", [a]() { return a->get() > 0; }, nullptr});
      gated.add_input_gate({"g2", [b]() { return b->get() > 0; }, nullptr});
      gated.add_output_gate(
          {"count", [fires](GateContext&) { fires->mut() += 1; }});
      SimulatorConfig config = config_for(10.5);
      config.verify_footprints = sanitized;
      Simulator sim(config);
      sim.set_model(cm);
      sim.run();
      EXPECT_EQ(fires->get(), g1 != 0 && g2 != 0 ? 10 : 0)
          << "sanitized=" << sanitized << " g1=" << g1 << " g2=" << g2;
    }
  }
}

TEST(Activity, CaseSelectionFollowsWeights) {
  // 3:1 case weights select 75% / 25%, and the sanitized (trampoline)
  // dispatch draws the same cases as the lowered one.
  std::vector<std::int64_t> firsts;
  for (const bool sanitized : {false, true}) {
    ComposedModel cm("M");
    auto& sub = cm.add_submodel("S");
    auto first = sub.add_place<std::int64_t>("first", 0);
    auto second = sub.add_place<std::int64_t>("second", 0);
    auto& pick = sub.add_timed_activity("pick", stats::make_deterministic(1.0));
    Case c1{3.0, {}};
    c1.output_gates.push_back(
        {"c1", [first](GateContext&) { first->mut() += 1; }});
    Case c2{1.0, {}};
    c2.output_gates.push_back(
        {"c2", [second](GateContext&) { second->mut() += 1; }});
    pick.add_case(std::move(c1));
    pick.add_case(std::move(c2));
    SimulatorConfig config = config_for(20000.5, 9);
    config.verify_footprints = sanitized;
    Simulator sim(config);
    sim.set_model(cm);
    sim.run();
    ASSERT_EQ(first->get() + second->get(), 20000);
    EXPECT_NEAR(static_cast<double>(first->get()) / 20000.0, 0.75, 0.02);
    firsts.push_back(first->get());
  }
  EXPECT_EQ(firsts[0], firsts[1]);
}

// ---------------------------------------------------------------------
// Footprint-driven incremental enabling: for any mix of declared and
// undeclared gate footprints, incremental settle must reproduce the
// full-scan trajectory bit for bit (same RNG consumption order).
// ---------------------------------------------------------------------

enum class Footprints { kNone, kPartial, kAll };

struct TandemOutcome {
  std::vector<testing::Fire> entries;
  std::int64_t done = 0;
  std::uint64_t events = 0;
  std::uint64_t enabling_evals = 0;
};

/// Tandem queue with an instantaneous overflow drain — couples several
/// activities through shared places so incremental marking has real
/// propagation to get right.
TandemOutcome run_tandem(Footprints footprints, bool incremental,
                         std::uint64_t seed) {
  const bool declare_most = footprints != Footprints::kNone;
  const bool declare_all = footprints == Footprints::kAll;
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto q1 = sub.add_place<std::int64_t>("q1", 0);
  auto q2 = sub.add_place<std::int64_t>("q2", 0);
  auto done = sub.add_place<std::int64_t>("done", 0);

  auto& arrive = sub.add_timed_activity("arrive", stats::make_exponential(0.9));
  arrive.add_output_gate({"a", [q1](GateContext&) { q1->mut() += 1; },
                          declare_most ? access({}, {q1}) : GateAccess{}});

  auto& stage1 = sub.add_timed_activity("stage1", stats::make_exponential(1.1));
  stage1.add_input_gate({"g1", [q1]() { return q1->get() > 0; }, nullptr,
                         declare_most ? access({q1}) : GateAccess{}});
  stage1.add_output_gate({"o1",
                          [q1, q2](GateContext&) {
                            q1->mut() -= 1;
                            q2->mut() += 1;
                          },
                          declare_most ? access({}, {q1, q2}) : GateAccess{}});

  // In kPartial mode this activity's gates stay opaque: completing it
  // must fall back to a full rescan while the rest uses the index.
  auto& stage2 = sub.add_timed_activity("stage2", stats::make_exponential(1.3));
  stage2.add_input_gate({"g2", [q2]() { return q2->get() > 0; }, nullptr,
                         declare_all ? access({q2}) : GateAccess{}});
  stage2.add_output_gate({"o2",
                          [q2, done](GateContext&) {
                            q2->mut() -= 1;
                            done->mut() += 1;
                          },
                          declare_all ? access({}, {q2, done}) : GateAccess{}});

  auto& drain = sub.add_instantaneous_activity("drain");
  drain.add_input_gate({"gd", [q2]() { return q2->get() > 3; }, nullptr,
                        declare_most ? access({q2}) : GateAccess{}});
  drain.add_output_gate({"od",
                         [q2, done](GateContext&) {
                           q2->mut() -= 1;
                           done->mut() += 1;
                         },
                         declare_most ? access({}, {q2, done}) : GateAccess{}});

  SimulatorConfig config = config_for(400.0, seed);
  config.incremental_enabling = incremental;
  Simulator sim(config);
  sim.set_model(cm);
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);
  const auto stats = sim.run();
  return {testing::fires(rec), done->get(), stats.events,
          stats.enabling_evals};
}

TEST(SimulatorIncremental, MatchesFullScanTrajectoryForEveryFootprintMix) {
  for (const auto footprints :
       {Footprints::kNone, Footprints::kPartial, Footprints::kAll}) {
    for (const std::uint64_t seed : {1u, 42u, 9001u}) {
      const auto full = run_tandem(footprints, false, seed);
      const auto incremental = run_tandem(footprints, true, seed);
      SCOPED_TRACE("footprints=" + std::to_string(static_cast<int>(footprints)) +
                   " seed=" + std::to_string(seed));
      EXPECT_EQ(full.events, incremental.events);
      EXPECT_EQ(full.done, incremental.done);
      ASSERT_EQ(full.entries.size(), incremental.entries.size());
      for (std::size_t i = 0; i < full.entries.size(); ++i) {
        EXPECT_EQ(full.entries[i].time, incremental.entries[i].time) << i;
        EXPECT_EQ(full.entries[i].activity, incremental.entries[i].activity)
            << i;
        EXPECT_EQ(full.entries[i].case_index, incremental.entries[i].case_index)
            << i;
      }
    }
  }
}

// The drain counts its visits in the bit loop. These pin what it counts:
// the exact event and enabling-evaluation totals of one paper-shape
// replication in both modes (recorded before the count moved into the
// loop), and a model whose dirty sets span several words on both sides.
TEST(SimulatorIncremental, PaperShapeReplicationCountsArePinned) {
  const auto run = [](bool incremental) {
    auto system = vm::build_system(vm::make_symmetric_config(4, {2, 3}, 5),
                                   sched::make_factory("rcs")());
    SimulatorConfig config = config_for(3000.0, 3);
    config.incremental_enabling = incremental;
    return run_once(*system->model, config);
  };
  const auto incremental = run(true);
  const auto full = run(false);
  EXPECT_EQ(incremental.events, 24326u);
  EXPECT_EQ(full.events, 24326u);
  EXPECT_EQ(incremental.enabling_evals, 53614u);
  EXPECT_EQ(full.enabling_evals, 486540u);
}

/// A ring of 140 stations, each with a timed hop to the next, plus 70
/// instantaneous spills from every other station into one overflow place
/// that a 141st timed activity drains back into the ring. Every footprint
/// is declared, so the incremental run dirties by index; the timed dirty
/// set spans three 64-bit words and the instantaneous one two.
TandemOutcome run_wide_ring(bool incremental, std::uint64_t seed) {
  constexpr int kStations = 140;
  constexpr int kSpills = 70;
  // Appending keeps GCC 12's -Wrestrict false positive on
  // `"literal" + std::string&&` out of the optimized build.
  const auto named = [](const char* prefix, int i) {
    std::string name(prefix);
    name += std::to_string(i);
    return name;
  };
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  std::vector<std::shared_ptr<Place<std::int64_t>>> q;
  for (int i = 0; i < kStations; ++i) {
    q.push_back(sub.add_place<std::int64_t>(named("q", i), 1));
  }
  auto overflow = sub.add_place<std::int64_t>("overflow", 0);
  auto returned = sub.add_place<std::int64_t>("returned", 0);
  for (int i = 0; i < kStations; ++i) {
    const auto here = q[static_cast<std::size_t>(i)];
    const auto next = q[static_cast<std::size_t>((i + 1) % kStations)];
    auto& hop = sub.add_timed_activity(
        named("hop", i), stats::make_exponential(0.5 + (i % 7) * 0.25));
    hop.add_input_gate({"g", [here]() { return here->get() > 0; }, nullptr,
                        access({here})});
    hop.add_output_gate({"o",
                         [here, next](GateContext&) {
                           here->mut() -= 1;
                           next->mut() += 1;
                         },
                         access({}, {here, next})});
  }
  for (int j = 0; j < kSpills; ++j) {
    const auto here = q[static_cast<std::size_t>(2 * j)];
    auto& spill = sub.add_instantaneous_activity(named("spill", j));
    spill.add_input_gate({"g", [here]() { return here->get() > 2; }, nullptr,
                          access({here})});
    spill.add_output_gate({"o",
                           [here, overflow](GateContext&) {
                             here->mut() -= 1;
                             overflow->mut() += 1;
                           },
                           access({}, {here, overflow})});
  }
  const auto head = q.front();
  auto& back = sub.add_timed_activity("return", stats::make_exponential(2.0));
  back.add_input_gate({"g", [overflow]() { return overflow->get() > 0; },
                       nullptr, access({overflow})});
  back.add_output_gate({"o",
                        [overflow, head, returned](GateContext&) {
                          overflow->mut() -= 1;
                          head->mut() += 1;
                          returned->mut() += 1;
                        },
                        access({}, {overflow, head, returned})});

  SimulatorConfig config = config_for(60.0, seed);
  config.incremental_enabling = incremental;
  Simulator sim(config);
  sim.set_model(cm);
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);
  const auto stats = sim.run();
  return {testing::fires(rec), returned->get(), stats.events,
          stats.enabling_evals};
}

TEST(SimulatorIncremental, MultiWordDirtySetsMatchFullScan) {
  for (const std::uint64_t seed : {1u, 77u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto full = run_wide_ring(false, seed);
    const auto incremental = run_wide_ring(true, seed);
    ASSERT_GT(incremental.events, 1000u);
    EXPECT_GT(incremental.done, 0) << "no spill ever fired";
    EXPECT_EQ(full.events, incremental.events);
    EXPECT_EQ(full.done, incremental.done);
    EXPECT_TRUE(full.entries == incremental.entries);
    // Each firing re-evaluates a handful of its ~210 activities.
    EXPECT_LT(incremental.enabling_evals * 10, full.enabling_evals)
        << "incremental=" << incremental.enabling_evals
        << " full=" << full.enabling_evals;
  }
}

TEST(SimulatorIncremental, FreeRunningClockKeepsFiringWithDeclaredWrites) {
  // A clock with no input gates reads nothing, so no marking change ever
  // marks it dirty — completing it must still re-activate it.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto count = sub.add_place<std::int64_t>("count", 0);
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate({"inc", [count](GateContext&) { count->mut() += 1; },
                         access({}, {count})});
  SimulatorConfig config = config_for(10.0);
  config.incremental_enabling = true;
  Simulator sim(config);
  sim.set_model(cm);
  const auto stats = sim.run();
  EXPECT_EQ(count->get(), 10);
  EXPECT_EQ(stats.events, 10u);
}

TEST(SimulatorIncremental, DisabledByConfigUsesFullScan) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto count = sub.add_place<std::int64_t>("count", 0);
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(2.0));
  clock.add_output_gate({"inc", [count](GateContext&) { count->mut() += 1; },
                         access({}, {count})});
  SimulatorConfig config = config_for(10.0);
  config.incremental_enabling = false;
  Simulator sim(config);
  sim.set_model(cm);
  sim.run();
  EXPECT_EQ(count->get(), 5);
}

TEST(SimulatorIncremental, FullFootprintsCutEnablingEvaluations) {
  const auto full = run_tandem(Footprints::kAll, false, 7);
  const auto incremental = run_tandem(Footprints::kAll, true, 7);
  ASSERT_EQ(full.events, incremental.events);
  ASSERT_GT(incremental.enabling_evals, 0u);
  // Only four activities, so the index's edge over a full scan is
  // modest here — still, it must beat the scan by a clear margin
  // (at least 1.5x fewer predicate checks).
  EXPECT_LT(incremental.enabling_evals * 3, full.enabling_evals * 2)
      << "incremental=" << incremental.enabling_evals
      << " full=" << full.enabling_evals;
}

TEST(SimulatorIncremental, DynamicWritesDirtyOnlyTouchedPlaces) {
  // A clock increments `count` on every firing but reports the write via
  // GateContext::touch() only on even firings. The watcher (declared
  // read {count}) must not be re-evaluated after the unreported write —
  // dynamic footprints are trusted, not checked — so its activation slips
  // from t=1 (static declaration) to t=2 (dynamic, first touch).
  const auto first_watch_fire = [](bool dynamic) {
    ComposedModel cm("M");
    auto& sub = cm.add_submodel("S");
    auto count = sub.add_place<std::int64_t>("count", 0);
    auto fired = std::make_shared<int>(0);
    auto& clock =
        sub.add_timed_activity("clock", stats::make_deterministic(1.0));
    clock.add_output_gate(
        {"inc",
         [count, fired](GateContext& ctx) {
           count->mut() += 1;
           if (++*fired % 2 == 0) ctx.touch(count.get());
         },
         dynamic ? access_dynamic({}, {count}) : access({}, {count})});
    auto& watch =
        sub.add_timed_activity("watch", stats::make_deterministic(0.5));
    watch.add_input_gate({"armed", [count]() { return count->get() >= 1; },
                          nullptr, access({count})});
    watch.add_output_gate({"noop", [](GateContext&) {}, access({}, {})});

    SimulatorConfig config = config_for(10.0);
    config.incremental_enabling = true;
    Simulator sim(config);
    sim.set_model(cm);
    auto rec = testing::fire_sink();
    sim.set_trace(&rec);
    sim.run();
    for (const auto& e : testing::fires(rec)) {
      if (e.activity == "S->watch") return e.time;
    }
    return -1.0;
  };
  EXPECT_EQ(first_watch_fire(false), 1.5);
  EXPECT_EQ(first_watch_fire(true), 2.5);
}

/// First fire time of a watcher armed by `other >= 1`, when a clock
/// increments `other` on every firing and reports `report(firing)`
/// (kNoVariant: no report) out of its variants "count" (writes `count`
/// only) and "other" (writes `other`). Reports are trusted, not checked:
/// a "count" report hides the write to `other` from the watcher.
Time first_watch_fire_with_reports(std::uint32_t (*report)(int)) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto count = sub.add_place<std::int64_t>("count", 0);
  auto other = sub.add_place<std::int64_t>("other", 0);
  auto fired = std::make_shared<int>(0);
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate(
      {"inc",
       [other, fired, report](GateContext& ctx) {
         other->mut() += 1;
         const std::uint32_t v = report(++*fired);
         if (v != kNoVariant) ctx.report_variant(v);
       },
       with_effects(access({}, {count, other}),
                    {{"count", {{count, "", +1}}}, {"other", {{other, "", +1}}}})});
  auto& watch = sub.add_timed_activity("watch", stats::make_deterministic(0.5));
  watch.add_input_gate({"armed", [other]() { return other->get() >= 1; },
                        nullptr, access({other})});
  watch.add_output_gate({"noop", [](GateContext&) {}, access({}, {})});

  Simulator sim(config_for(10.0));
  sim.set_model(cm);
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);
  sim.run();
  for (const auto& e : testing::fires(rec)) {
    if (e.activity == "S->watch") return e.time;
  }
  return -1.0;
}

TEST(SimulatorIncremental, ReportedVariantDirtiesOnlyItsPlaces) {
  // No report: the union row re-evaluates the watcher after the first
  // firing. Reporting "count" on odd firings and "other" on even ones
  // delays the first re-evaluation to the second firing.
  EXPECT_EQ(first_watch_fire_with_reports([](int) { return kNoVariant; }),
            1.5);
  EXPECT_EQ(first_watch_fire_with_reports([](int n) {
              return n % 2 == 1 ? std::uint32_t{0} : std::uint32_t{1};
            }),
            2.5);
}

TEST(SimulatorIncremental, OutOfRangeVariantReportTakesUnionRow) {
  EXPECT_EQ(first_watch_fire_with_reports([](int) { return std::uint32_t{7}; }),
            1.5);
}

TEST(SimulatorIncremental, TwoReportingGatesTakeUnionRow) {
  // With two gates able to report, an index names no single variant
  // list: every firing dirties the union of the writes.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto count = sub.add_place<std::int64_t>("count", 0);
  auto other = sub.add_place<std::int64_t>("other", 0);
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate(
      {"inc_count",
       [count](GateContext& ctx) {
         count->mut() += 1;
         ctx.report_variant(0);
       },
       with_effects(access({}, {count}), {{"count", {{count, "", +1}}}, {"none", {}}})});
  clock.add_output_gate(
      {"inc_other", [other](GateContext&) { other->mut() += 1; },
       with_effects(access({}, {other}), {{"other", {{other, "", +1}}}, {"none", {}}})});
  auto& watch = sub.add_timed_activity("watch", stats::make_deterministic(0.5));
  watch.add_input_gate({"armed", [other]() { return other->get() >= 1; },
                        nullptr, access({other})});
  watch.add_output_gate({"noop", [](GateContext&) {}, access({}, {})});
  Simulator sim(config_for(10.0));
  sim.set_model(cm);
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);
  sim.run();
  Time first = -1.0;
  for (const auto& e : testing::fires(rec)) {
    if (e.activity == "S->watch") {
      first = e.time;
      break;
    }
  }
  EXPECT_EQ(first, 1.5);
}

TEST(SimulatorIncremental, TruthfulVariantReportsMatchFullScanWithFewerEvals) {
  // A counter clock that raises a flag every fourth tick and reports
  // which it did; a watcher consumes the flag. Reports change only how
  // much is re-evaluated, never the trajectory.
  const auto run = [](bool incremental, bool report) {
    ComposedModel cm("M");
    auto& sub = cm.add_submodel("S");
    auto ticks = sub.add_place<std::int64_t>("ticks", 0);
    auto flag = sub.add_place<std::int64_t>("flag", 0);
    auto& clock =
        sub.add_timed_activity("clock", stats::make_exponential(1.0));
    clock.add_output_gate(
        {"tick",
         [ticks, flag, report](GateContext& ctx) {
           ticks->mut() += 1;
           const bool raise = ticks->get() % 4 == 0;
           if (raise) flag->mut() += 1;
           if (report) ctx.report_variant(raise ? 1 : 0);
         },
         with_effects(access({ticks}, {ticks, flag}),
                      {{"tick", {{ticks, "", +1}}},
                       {"raise", {{ticks, "", +1}, {flag, "", +1}}}})});
    auto& watch = sub.add_timed_activity("watch", stats::make_exponential(2.0));
    watch.add_input_gate({"has_flag", [flag]() { return flag->get() > 0; },
                          nullptr, access({flag})});
    watch.add_output_gate({"take", [flag](GateContext&) { flag->mut() -= 1; },
                           access({}, {flag})});
    SimulatorConfig config = config_for(200.0, 5);
    config.incremental_enabling = incremental;
    Simulator sim(config);
    sim.set_model(cm);
    auto rec = testing::fire_sink();
    sim.set_trace(&rec);
    const RunStats stats = sim.run();
    return std::make_pair(testing::fire_digest(rec), stats);
  };
  const auto full = run(false, true);
  const auto silent = run(true, false);
  const auto reported = run(true, true);
  EXPECT_EQ(reported.first, full.first);
  EXPECT_EQ(silent.first, full.first);
  EXPECT_EQ(reported.second.events, full.second.events);
  EXPECT_LT(reported.second.enabling_evals, silent.second.enabling_evals);
}

/// A clock whose dynamic-writes gate bumps `count`, which a watcher's
/// predicate reads, and `log`, which no predicate reads. The gate always
/// touches `count`, and touches `log` only when `touch_log` is set.
struct UnreadTouchRun {
  std::uint64_t digest = 0;
  RunStats stats;
  FootprintReport report;  ///< empty unless `verify`
};
UnreadTouchRun run_unread_touch(bool incremental, bool touch_log,
                                bool verify = false) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto count = sub.add_place<std::int64_t>("count", 0);
  auto log = sub.add_place<std::int64_t>("log", 0);
  auto& clock = sub.add_timed_activity("clock", stats::make_exponential(1.0));
  clock.add_output_gate(
      {"inc",
       [count, log, touch_log](GateContext& ctx) {
         count->mut() += 1;
         log->mut() += 1;
         ctx.touch(count.get());
         if (touch_log) ctx.touch(log.get());
       },
       access_dynamic({}, {count, log})});
  auto& watch = sub.add_timed_activity("watch", stats::make_exponential(2.0));
  watch.add_input_gate({"has_count", [count]() { return count->get() > 0; },
                        nullptr, access({count})});
  watch.add_output_gate({"take", [count](GateContext&) { count->mut() -= 1; },
                         access({}, {count})});
  SimulatorConfig config = config_for(200.0, 3);
  config.incremental_enabling = incremental;
  config.verify_footprints = verify;
  Simulator sim(config);
  sim.set_model(cm);
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);
  UnreadTouchRun out;
  out.stats = sim.run();
  out.digest = testing::fire_digest(rec);
  if (verify) out.report = *sim.footprint_report();
  return out;
}

TEST(SimulatorIncremental, TouchOfUnreadPlaceChangesNothing) {
  // No predicate reads `log`, so touching it can dirty nothing: the run
  // is the full-scan trajectory with or without the touch, at the same
  // enabling cost. The read place `count` must still dirty the watcher.
  const auto full = run_unread_touch(false, true);
  const auto touched = run_unread_touch(true, true);
  const auto untouched = run_unread_touch(true, false);
  ASSERT_GT(full.stats.events, 100u);
  EXPECT_EQ(touched.digest, full.digest);
  EXPECT_EQ(untouched.digest, full.digest);
  EXPECT_EQ(touched.stats.events, full.stats.events);
  EXPECT_EQ(touched.stats.enabling_evals, untouched.stats.enabling_evals);
  EXPECT_LT(touched.stats.enabling_evals, full.stats.enabling_evals);
}

TEST(SimulatorIncremental, UnreadPlaceWrittenWithoutTouchIsStillMissed) {
  // The index resolves touches of `log` to nothing, but the sanitizer
  // still holds the gate to reporting every write it makes.
  const auto truthful = run_unread_touch(true, true, true);
  EXPECT_TRUE(truthful.report.clean()) << truthful.report.render_text();
  const auto lying = run_unread_touch(true, false, true);
  bool missed_log = false;
  for (const auto& v : lying.report.violations) {
    missed_log = missed_log || (v.kind == ViolationKind::kMissedTouch &&
                                v.place.find("log") != std::string::npos);
  }
  EXPECT_TRUE(missed_log) << lying.report.render_text();
}

TEST(Simulator, RunResetsMarkingAndRewards) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto count = sub.add_place<std::int64_t>("count", 0);
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate({"inc", [count](GateContext&) { count->mut() += 1; }});

  RewardVariable reward("count", [count]() { return 1.0; });
  Simulator sim(config_for(10.0));
  sim.set_model(cm);
  sim.add_reward(reward);
  sim.run();
  const auto after_first = count->get();
  const auto reward_first = reward.accumulated();
  sim.run();  // second replication re-resets
  EXPECT_EQ(count->get(), after_first);
  EXPECT_EQ(reward.accumulated(), reward_first);
}

TEST(Simulator, ResetWithSeedReplaysFreshSimulator) {
  // A reused simulator driven via reset(seed) + advance_until must replay
  // exactly the trajectory a fresh Simulator built with that seed runs —
  // the invariant the zero-rebuild replication pool stands on.
  const auto build = [](ComposedModel& cm) {
    auto& sub = cm.add_submodel("S");
    auto queue = sub.add_place<std::int64_t>("queue", 0);
    auto& arrive =
        sub.add_timed_activity("arrive", stats::make_exponential(0.7));
    arrive.add_output_gate({"a", [queue](GateContext&) { queue->mut() += 1; }});
    auto& serve = sub.add_timed_activity("serve", stats::make_exponential(1.0));
    serve.add_input_gate(
        {"busy", [queue]() { return queue->get() > 0; }, nullptr});
    serve.add_output_gate({"s", [queue](GateContext&) { queue->mut() -= 1; }});
  };

  // Fresh-simulator reference trajectories for two seeds.
  const auto fresh = [&](std::uint64_t seed) {
    ComposedModel cm("M");
    build(cm);
    Simulator sim(config_for(150.0, seed));
    sim.set_model(cm);
    auto rec = testing::fire_sink();
    sim.set_trace(&rec);
    const auto stats = sim.run();
    return std::pair{testing::fires(rec), stats};
  };
  const auto [first_ref, first_stats] = fresh(42);
  const auto [second_ref, second_stats] = fresh(7);
  ASSERT_FALSE(first_ref.empty());
  ASSERT_FALSE(second_ref.empty());
  ASSERT_NE(first_ref[0].time, second_ref[0].time);  // seeds actually differ

  // One simulator, reused across both seeds, in reverse order and with a
  // warm-up run in between to perturb internal state.
  ComposedModel cm("M");
  build(cm);
  Simulator sim(config_for(150.0, 1234));
  sim.set_model(cm);
  auto rec = testing::fire_sink();
  sim.set_trace(&rec);

  const auto replay = [&](std::uint64_t seed) {
    rec.clear();
    sim.reset(seed);
    return sim.advance_until(150.0);
  };
  const auto check = [&](const std::vector<testing::Fire>& ref,
                         const RunStats& ref_stats, const RunStats& got) {
    EXPECT_EQ(got.events, ref_stats.events);
    EXPECT_EQ(got.enabling_evals, ref_stats.enabling_evals);
    EXPECT_EQ(testing::fires(rec), ref);
  };
  check(second_ref, second_stats, replay(7));
  replay(999);  // unrelated replication in between
  check(first_ref, first_stats, replay(42));
  check(first_ref, first_stats, replay(42));  // and again, back to back
}

TEST(Simulator, ClearRewardsDropsRegisteredVariables) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto count = sub.add_place<std::int64_t>("count", 0);
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate({"inc", [count](GateContext&) { count->mut() += 1; }});

  RewardVariable stale("stale", []() { return 1.0; });
  Simulator sim(config_for(10.0));
  sim.set_model(cm);
  sim.add_reward(stale);
  sim.run();
  const auto accumulated = stale.accumulated();
  EXPECT_GT(accumulated, 0.0);

  sim.clear_rewards();
  sim.run();  // the dropped variable must no longer be reset or accrued
  EXPECT_EQ(stale.accumulated(), accumulated);
}

}  // namespace
}  // namespace vcpusim::san
