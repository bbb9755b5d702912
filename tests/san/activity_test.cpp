#include "san/activity.hpp"

#include <gtest/gtest.h>

#include "stats/distribution.hpp"

namespace vcpusim::san {
namespace {

stats::Rng test_rng(std::uint64_t seed = 1) { return stats::Rng(seed); }

TEST(Activity, TimedRequiresDistribution) {
  EXPECT_THROW(Activity("a", nullptr), std::invalid_argument);
}

TEST(Activity, InstantaneousFlag) {
  auto inst = Activity::make_instantaneous("i");
  EXPECT_TRUE(inst.is_instantaneous());
  Activity timed("t", stats::make_deterministic(1.0));
  EXPECT_FALSE(timed.is_instantaneous());
}

TEST(Activity, EnabledWithoutGates) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_TRUE(a.enabled());
}

TEST(Activity, EnablingIsConjunctionOfGatePredicates) {
  Activity a("a", stats::make_deterministic(1.0));
  bool g1 = true, g2 = true;
  a.add_input_gate({"g1", [&g1]() { return g1; }, nullptr});
  a.add_input_gate({"g2", [&g2]() { return g2; }, nullptr});
  EXPECT_TRUE(a.enabled());
  g1 = false;
  EXPECT_FALSE(a.enabled());
  g1 = true;
  g2 = false;
  EXPECT_FALSE(a.enabled());
}

TEST(Activity, GateWithoutPredicateRejected) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_THROW(a.add_input_gate({"bad", nullptr, nullptr}),
               std::invalid_argument);
}

TEST(Activity, OutputGateWithoutFunctionRejected) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_THROW(a.add_output_gate({"bad", nullptr}), std::invalid_argument);
}

TEST(Activity, FireRunsInputThenOutputFunctions) {
  Activity a("a", stats::make_deterministic(1.0));
  std::vector<std::string> order;
  a.add_input_gate({"in", []() { return true; },
                    [&order](GateContext&) { order.push_back("input"); }});
  a.add_output_gate(
      {"out", [&order](GateContext&) { order.push_back("output"); }});
  auto rng = test_rng();
  GateContext ctx{rng, 0.0};
  a.fire(ctx);
  EXPECT_EQ(order, (std::vector<std::string>{"input", "output"}));
}

TEST(Activity, DefaultSingleCase) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_EQ(a.case_count(), 1u);
  auto rng = test_rng();
  GateContext ctx{rng, 0.0};
  EXPECT_EQ(a.fire(ctx), 0u);
}

TEST(Activity, ExplicitCasesReplaceDefault) {
  Activity a("a", stats::make_deterministic(1.0));
  a.add_case(Case{1.0, {}});
  a.add_case(Case{1.0, {}});
  EXPECT_EQ(a.case_count(), 2u);
}

TEST(Activity, CaseSelectionFollowsWeights) {
  Activity a("a", stats::make_deterministic(1.0));
  int first = 0, second = 0;
  Case c1{3.0, {}};
  c1.output_gates.push_back({"c1", [&first](GateContext&) { ++first; }});
  Case c2{1.0, {}};
  c2.output_gates.push_back({"c2", [&second](GateContext&) { ++second; }});
  a.add_case(std::move(c1));
  a.add_case(std::move(c2));
  auto rng = test_rng(9);
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    GateContext ctx{rng, 0.0};
    a.fire(ctx);
  }
  EXPECT_NEAR(static_cast<double>(first) / kN, 0.75, 0.02);
  EXPECT_NEAR(static_cast<double>(second) / kN, 0.25, 0.02);
}

TEST(Activity, NonPositiveCaseWeightRejected) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_THROW(a.add_case(Case{0.0, {}}), std::invalid_argument);
  EXPECT_THROW(a.add_case(Case{-1.0, {}}), std::invalid_argument);
}

TEST(Activity, SampleDelayUsesDistribution) {
  Activity a("a", stats::make_deterministic(2.5));
  auto rng = test_rng();
  EXPECT_EQ(a.sample_delay(rng), 2.5);
}

TEST(Activity, SampleDelayOnInstantaneousThrows) {
  auto a = Activity::make_instantaneous("i");
  auto rng = test_rng();
  EXPECT_THROW(a.sample_delay(rng), std::logic_error);
}

TEST(Activity, PriorityIsStored) {
  Activity a("a", stats::make_deterministic(1.0), 7);
  EXPECT_EQ(a.priority(), 7);
  auto inst = Activity::make_instantaneous("i", -3);
  EXPECT_EQ(inst.priority(), -3);
}

}  // namespace
}  // namespace vcpusim::san
