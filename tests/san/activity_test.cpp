// Activity's declaration surface: construction, gates, cases. Firing
// semantics are tested through san::Simulator (simulator_test.cpp),
// which executes activities.
#include "san/activity.hpp"

#include <gtest/gtest.h>

#include "stats/distribution.hpp"

namespace vcpusim::san {
namespace {

TEST(Activity, TimedRequiresDistribution) {
  EXPECT_THROW(Activity("a", nullptr), std::invalid_argument);
}

TEST(Activity, InstantaneousFlag) {
  auto inst = Activity::make_instantaneous("i");
  EXPECT_TRUE(inst.is_instantaneous());
  Activity timed("t", stats::make_deterministic(1.0));
  EXPECT_FALSE(timed.is_instantaneous());
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

TEST(Activity, DefaultSingleCase) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_EQ(a.cases().size(), 1u);
  EXPECT_FALSE(a.has_explicit_cases());
  EXPECT_EQ(a.total_case_weight(), 1.0);
}

TEST(Activity, ExplicitCasesReplaceDefault) {
  Activity a("a", stats::make_deterministic(1.0));
  a.add_case(Case{1.0, {}});
  a.add_case(Case{1.0, {}});
  EXPECT_EQ(a.cases().size(), 2u);
  EXPECT_TRUE(a.has_explicit_cases());
  EXPECT_EQ(a.total_case_weight(), 2.0);
}

TEST(Activity, NonPositiveCaseWeightRejected) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_THROW(a.add_case(Case{0.0, {}}), std::invalid_argument);
  EXPECT_THROW(a.add_case(Case{-1.0, {}}), std::invalid_argument);
}

TEST(Activity, PriorityIsStored) {
  Activity a("a", stats::make_deterministic(1.0), 7);
  EXPECT_EQ(a.priority(), 7);
  auto inst = Activity::make_instantaneous("i", -3);
  EXPECT_EQ(inst.priority(), -3);
}

}  // namespace
}  // namespace vcpusim::san
