#include "san/reward.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "san/simulator.hpp"
#include "stats/distribution.hpp"

namespace vcpusim::san {
namespace {

TEST(RewardVariable, RejectsNullRateFunction) {
  EXPECT_THROW(RewardVariable("r", nullptr), std::invalid_argument);
}

TEST(RewardVariable, RateAccruesOverDwellTime) {
  RewardVariable r("r", []() { return 2.0; });
  r.on_advance(0.0, 5.0);
  EXPECT_DOUBLE_EQ(r.accumulated(), 10.0);
  EXPECT_DOUBLE_EQ(r.time_averaged(5.0), 2.0);
}

TEST(RewardVariable, WarmupTruncatesAccrual) {
  RewardVariable r("r", []() { return 1.0; }, 10.0);
  r.on_advance(0.0, 5.0);  // entirely before start: nothing
  EXPECT_DOUBLE_EQ(r.accumulated(), 0.0);
  r.on_advance(5.0, 15.0);  // straddles start: only [10, 15)
  EXPECT_DOUBLE_EQ(r.accumulated(), 5.0);
  EXPECT_DOUBLE_EQ(r.time_averaged(15.0), 1.0);
}

TEST(RewardVariable, TimeAveragedOfEmptyIntervalIsZero) {
  RewardVariable r("r", []() { return 1.0; }, 10.0);
  EXPECT_DOUBLE_EQ(r.time_averaged(10.0), 0.0);
  EXPECT_DOUBLE_EQ(r.time_averaged(5.0), 0.0);
}

TEST(RewardVariable, RateReadsCurrentState) {
  double level = 0.0;
  RewardVariable r("r", [&level]() { return level; });
  r.on_advance(0.0, 1.0);
  level = 3.0;
  r.on_advance(1.0, 2.0);
  EXPECT_DOUBLE_EQ(r.accumulated(), 3.0);
}

TEST(RewardVariable, ImpulseOnActivityCompletion) {
  Activity a("a", stats::make_deterministic(1.0));
  Activity b("b", stats::make_deterministic(1.0));
  auto r = RewardVariable::impulse_only("r");
  r.add_impulse(&a, []() { return 2.5; });
  r.on_completion(a, 1.0);
  r.on_completion(b, 1.0);  // no impulse registered for b
  r.on_completion(a, 2.0);
  EXPECT_DOUBLE_EQ(r.accumulated(), 5.0);
  EXPECT_EQ(r.impulse_count(), 2u);
}

TEST(RewardVariable, ImpulseBeforeStartEvaluatedButNotAccrued) {
  Activity a("a", stats::make_deterministic(1.0));
  auto r = RewardVariable::impulse_only("r", 10.0);
  int calls = 0;
  r.add_impulse(&a, [&calls]() {
    ++calls;
    return 1.0;
  });
  r.on_completion(a, 5.0);
  EXPECT_EQ(calls, 1);  // delta-style impulse functions must observe this
  EXPECT_DOUBLE_EQ(r.accumulated(), 0.0);
  r.on_completion(a, 12.0);
  EXPECT_DOUBLE_EQ(r.accumulated(), 1.0);
}

TEST(RewardVariable, AddImpulseValidation) {
  Activity a("a", stats::make_deterministic(1.0));
  auto r = RewardVariable::impulse_only("r");
  EXPECT_THROW(r.add_impulse(nullptr, []() { return 1.0; }),
               std::invalid_argument);
  EXPECT_THROW(r.add_impulse(&a, nullptr), std::invalid_argument);
}

TEST(RewardVariable, ResetClearsAccumulation) {
  RewardVariable r("r", []() { return 1.0; });
  r.on_advance(0.0, 5.0);
  r.reset();
  EXPECT_DOUBLE_EQ(r.accumulated(), 0.0);
  EXPECT_EQ(r.impulse_count(), 0u);
}

TEST(RewardVariable, CombinedRateAndImpulseInSimulation) {
  // A clock fires every tick. Rate reward: tokens present. Impulse: +1
  // per firing. Over 10 ticks from t=0: 10 impulses, rate integral of a
  // staircase (0 during [0,1), 1 during [1,2), ... 9 during [9,10)) = 45.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto tokens = sub.add_place<std::int64_t>("tokens", 0);
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate(
      {"inc", [tokens](GateContext&) { tokens->mut() += 1; }});

  RewardVariable combined(
      "combined", [tokens]() { return static_cast<double>(tokens->get()); });
  combined.add_impulse(&clock, []() { return 1.0; });

  SimulatorConfig c;
  c.end_time = 10.0;
  Simulator sim(c);
  sim.set_model(cm);
  sim.add_reward(combined);
  sim.run();
  EXPECT_DOUBLE_EQ(combined.accumulated(), 45.0 + 10.0);
  EXPECT_EQ(combined.impulse_count(), 10u);
}

TEST(RewardVariable, KindsAccumulateInOneSimulatorAsWhenAlone) {
  // Rate-only, impulse-only and mixed rewards share one simulator, which
  // hands dwell intervals only to rate rewards and completions only to
  // impulse rewards: each must accumulate exactly what it does alone.
  struct Rewards {
    RewardVariable rate;
    RewardVariable impulse;
    RewardVariable mixed;
  };
  const auto run = [](int which) {
    ComposedModel cm("M");
    auto& sub = cm.add_submodel("S");
    auto tokens = sub.add_place<std::int64_t>("tokens", 0);
    auto& clock =
        sub.add_timed_activity("clock", stats::make_exponential(1.5));
    clock.add_output_gate(
        {"inc", [tokens](GateContext&) { tokens->mut() += 1; },
         access({}, {tokens})});
    auto& drain = sub.add_timed_activity("drain", stats::make_exponential(1.0));
    drain.add_input_gate({"g", [tokens]() { return tokens->get() > 0; },
                          nullptr, access({tokens})});
    drain.add_output_gate(
        {"dec", [tokens](GateContext&) { tokens->mut() -= 1; },
         access({}, {tokens})});
    const auto level = [tokens]() {
      return static_cast<double>(tokens->get());
    };
    Rewards r{RewardVariable("rate", level, 2.0),
              RewardVariable::impulse_only("impulse", 2.0),
              RewardVariable("mixed", level, 1.0)};
    r.impulse.add_impulse(&drain, level);
    r.mixed.add_impulse(&clock, []() { return 0.5; });
    SimulatorConfig c;
    c.end_time = 50.0;
    c.seed = 17;
    Simulator sim(c);
    sim.set_model(cm);
    if (which < 0 || which == 0) sim.add_reward(r.rate);
    if (which < 0 || which == 1) sim.add_reward(r.impulse);
    if (which < 0 || which == 2) sim.add_reward(r.mixed);
    sim.run();
    return std::vector<double>{
        r.rate.accumulated(), r.impulse.accumulated(), r.mixed.accumulated(),
        static_cast<double>(r.impulse.impulse_count()),
        static_cast<double>(r.mixed.impulse_count())};
  };
  const std::vector<double> together = run(-1);
  const std::vector<double> rate = run(0);
  const std::vector<double> impulse = run(1);
  const std::vector<double> mixed = run(2);
  EXPECT_GT(together[0], 0.0);
  EXPECT_GT(together[3], 0.0);
  EXPECT_EQ(together[0], rate[0]);
  EXPECT_EQ(together[1], impulse[1]);
  EXPECT_EQ(together[3], impulse[3]);
  EXPECT_EQ(together[2], mixed[2]);
  EXPECT_EQ(together[4], mixed[4]);
}

TEST(RewardVariable, ImpulseAddedAfterRegistrationCountsFromNextReset) {
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate({"noop", [](GateContext&) {}});
  auto r = RewardVariable::impulse_only("r");
  SimulatorConfig c;
  c.end_time = 10.0;
  Simulator sim(c);
  sim.set_model(cm);
  sim.add_reward(r);  // registered before any reset(), no impulse yet
  r.add_impulse(&clock, []() { return 1.0; });
  sim.run();
  EXPECT_EQ(r.impulse_count(), 10u);
}

TEST(RewardVariable, AccruesTailUpToEndTime) {
  // No events after t=1; the reward must still integrate to end_time.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto flag = sub.add_place<std::int64_t>("flag", 0);
  auto armed = sub.add_place<std::int64_t>("armed", 1);
  auto& once = sub.add_timed_activity("once", stats::make_deterministic(1.0));
  once.add_input_gate({"g", [armed]() { return armed->get() == 1; }, nullptr});
  once.add_output_gate({"o", [flag, armed](GateContext&) {
                          flag->set(1);
                          armed->set(0);
                        }});

  RewardVariable r("flag", [flag]() { return static_cast<double>(flag->get()); });
  SimulatorConfig c;
  c.end_time = 10.0;
  Simulator sim(c);
  sim.set_model(cm);
  sim.add_reward(r);
  sim.run();
  EXPECT_DOUBLE_EQ(r.accumulated(), 9.0);  // flag=1 during [1, 10)
  EXPECT_DOUBLE_EQ(r.time_averaged(10.0), 0.9);
}

}  // namespace
}  // namespace vcpusim::san
