#include "vm/validation.hpp"

#include <gtest/gtest.h>

#include "sched/registry.hpp"
#include "testing/helpers.hpp"

namespace vcpusim::vm {
namespace {

using testing::run_traced;

TEST(InvariantChecker, EveryBuiltinAlgorithmIsConsistent) {
  for (const auto& name : sched::builtin_algorithms()) {
    auto cfg = make_symmetric_config(3, {2, 3, 1}, 3);
    cfg.vms[1].spinlock.enabled = true;
    cfg.vms[1].spinlock.lock_probability = 0.6;
    cfg.vms[1].spinlock.critical_fraction = 0.4;
    auto system = build_system(cfg, sched::make_factory(name)());
    InvariantChecker checker(*system);
    run_traced(*system, checker, 800.0, 29);
    EXPECT_TRUE(checker.consistent())
        << name << ": " << (checker.violations().empty()
                                ? ""
                                : checker.violations().front());
    EXPECT_GT(checker.checks_performed(), 700u);
  }
}

TEST(InvariantChecker, CleanInitialMarkingPasses) {
  auto system = build_system(make_symmetric_config(2, {2}, 5),
                             testing::make_null_scheduler());
  InvariantChecker checker(*system);
  EXPECT_TRUE(checker.check_now().empty());
}

TEST(InvariantChecker, DetectsReadyCountMismatch) {
  auto system = build_system(make_symmetric_config(2, {2}, 5),
                             testing::make_null_scheduler());
  system->vms[0].places.num_vcpus_ready->set(2);  // corrupt: slots INACTIVE
  InvariantChecker checker(*system);
  const auto found = checker.check_now();
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found.front().find("Num_VCPUs_ready"), std::string::npos);
}

TEST(InvariantChecker, DetectsStatusAssignmentDisagreement) {
  auto system = build_system(make_symmetric_config(2, {2}, 5),
                             testing::make_null_scheduler());
  // Slot claims BUSY but no PCPU is assigned anywhere.
  system->vms[0].places.slots[0]->mut().status = VcpuStatus::kBusy;
  system->vms[0].places.slots[0]->mut().remaining_load = 3;
  InvariantChecker checker(*system);
  const auto found = checker.check_now();
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found.front().find("without PCPU"), std::string::npos);
}

TEST(InvariantChecker, DetectsPcpuDoubleBooking) {
  auto system = build_system(make_symmetric_config(2, {2}, 5),
                             testing::make_null_scheduler());
  auto& pcpus = system->scheduler_places.pcpus->mut();
  pcpus[0].assigned_vcpu = 0;
  pcpus[1].assigned_vcpu = 0;  // same VCPU on two PCPUs
  InvariantChecker checker(*system);
  const auto found = checker.check_now();
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found.front().find("two PCPUs"), std::string::npos);
}

TEST(InvariantChecker, DetectsBlockedWithoutOutstanding) {
  auto system = build_system(make_symmetric_config(2, {2}, 5),
                             testing::make_null_scheduler());
  system->vms[0].places.blocked->set(1);
  InvariantChecker checker(*system);
  const auto found = checker.check_now();
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found.front().find("no outstanding"), std::string::npos);
}

TEST(InvariantChecker, DetectsLockPlaceDisagreement) {
  auto cfg = make_symmetric_config(2, {2}, 0);
  cfg.vms[0].spinlock.enabled = true;
  auto system = build_system(cfg, testing::make_null_scheduler());
  system->vms[0].places.lock->set(1);  // place says held; no slot agrees
  InvariantChecker checker(*system);
  const auto found = checker.check_now();
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found.front().find("Lock place disagrees"), std::string::npos);
}

TEST(InvariantChecker, StaticAnalysisDerivesInvariants) {
  auto system = build_system(make_symmetric_config(2, {2}, 5),
                             testing::make_null_scheduler());
  InvariantChecker checker(*system);
  // The structural engine proved conservation laws over the same model
  // the semantic checks patrol, and the initial marking satisfies them.
  EXPECT_FALSE(checker.static_analysis().invariants.empty());
  EXPECT_FALSE(checker.static_analysis().bounds.empty());
  EXPECT_TRUE(checker.check_now().empty());
}

TEST(InvariantChecker, DetectsStaticInvariantViolation) {
  auto system = build_system(make_symmetric_config(2, {2}, 5),
                             testing::make_null_scheduler());
  InvariantChecker checker(*system);  // snapshots the healthy marking
  system->vms[0].places.num_vcpus_ready->set(7);
  const auto found = checker.check_now();
  ASSERT_FALSE(found.empty());
  bool structural = false;
  for (const auto& v : found) {
    if (v.find("static invariant violated") != std::string::npos ||
        v.find("static bound violated") != std::string::npos) {
      structural = true;
    }
  }
  EXPECT_TRUE(structural)
      << "expected a symbolic conservation-law diagnostic, got: "
      << found.front();
}

TEST(InvariantChecker, ThrowModeAborts) {
  auto system = build_system(make_symmetric_config(2, {2}, 5),
                             testing::make_null_scheduler());
  system->vms[0].places.num_vcpus_ready->set(7);
  InvariantChecker checker(*system, /*throw_on_violation=*/true);
  EXPECT_THROW(checker.check_now(), std::logic_error);
}

TEST(InvariantChecker, ViolationListIsBounded) {
  auto system = build_system(make_symmetric_config(2, {2}, 5),
                             testing::make_null_scheduler());
  system->vms[0].places.num_vcpus_ready->set(5);
  InvariantChecker checker(*system);
  for (int i = 0; i < 300; ++i) checker.check_now();
  EXPECT_LE(checker.violations().size(), 100u);
  EXPECT_FALSE(checker.consistent());
}

}  // namespace
}  // namespace vcpusim::vm
