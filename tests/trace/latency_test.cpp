#include "trace/latency.hpp"

#include <gtest/gtest.h>

#include "sched/registry.hpp"
#include "testing/helpers.hpp"

namespace vcpusim::trace {
namespace {

using testing::run_traced;

TEST(BarrierLatency, NoSyncMeansNoEpisodes) {
  auto system = vm::build_system(vm::make_symmetric_config(2, {2}, 0),
                                 sched::make_factory("rrs")());
  BarrierLatencyAnalyzer analyzer(*system);
  run_traced(*system, analyzer, 500.0);
  EXPECT_TRUE(analyzer.episodes(0).empty());
  EXPECT_EQ(analyzer.overall().count(), 0u);
}

TEST(BarrierLatency, ObservesBarriersUnderContention) {
  // 2-VCPU VM on 1 PCPU, tight sync: barriers stall visibly.
  auto system = vm::build_system(vm::make_symmetric_config(1, {2}, 2),
                                 sched::make_factory("rrs")());
  BarrierLatencyAnalyzer analyzer(*system);
  run_traced(*system, analyzer, 2000.0, 7);
  EXPECT_GT(analyzer.episodes(0).size(), 20u);
  EXPECT_GT(analyzer.summary(0).mean(), 1.0);
  for (const double d : analyzer.episodes(0)) EXPECT_GE(d, 0.0);
}

TEST(BarrierLatency, CoSchedulingShortensEpisodes) {
  // The core claim of the paper, at the episode level: under contention
  // that splits siblings ({2,3} VCPUs on 3 PCPUs — with {2,2} on 2 PCPUs
  // round-robin degenerates into gang alternation and the algorithms
  // tie), co-scheduling drains barriers faster than round-robin.
  const auto cfg = vm::make_symmetric_config(3, {2, 3}, 3);

  auto rr = vm::build_system(cfg, sched::make_factory("rrs")());
  BarrierLatencyAnalyzer rr_latency(*rr);
  run_traced(*rr, rr_latency, 4000.0, 11);

  auto scs = vm::build_system(cfg, sched::make_factory("scs")());
  BarrierLatencyAnalyzer scs_latency(*scs);
  run_traced(*scs, scs_latency, 4000.0, 11);

  auto rcs = vm::build_system(cfg, sched::make_factory("rcs")());
  BarrierLatencyAnalyzer rcs_latency(*rcs);
  run_traced(*rcs, rcs_latency, 4000.0, 11);

  ASSERT_GT(rr_latency.overall().count(), 50u);
  ASSERT_GT(scs_latency.overall().count(), 50u);
  ASSERT_GT(rcs_latency.overall().count(), 50u);
  EXPECT_LT(scs_latency.overall().mean(), rr_latency.overall().mean());
  EXPECT_LT(rcs_latency.overall().mean(), rr_latency.overall().mean());
}

TEST(BarrierLatency, PerVmSeparation) {
  // Only VM1 has sync points; VM2 must never block.
  auto cfg = vm::make_symmetric_config(2, {2, 2}, 3);
  cfg.vms[1].sync_ratio_k = 0;
  auto system = vm::build_system(cfg, sched::make_factory("rrs")());
  BarrierLatencyAnalyzer analyzer(*system);
  run_traced(*system, analyzer, 2000.0, 13);
  EXPECT_GT(analyzer.episodes(0).size(), 10u);
  EXPECT_TRUE(analyzer.episodes(1).empty());
}

TEST(BarrierLatency, ReportMentionsVmNames) {
  auto system = vm::build_system(vm::make_symmetric_config(2, {2}, 3),
                                 sched::make_factory("rrs")());
  BarrierLatencyAnalyzer analyzer(*system);
  run_traced(*system, analyzer, 500.0);
  const auto report = analyzer.report();
  EXPECT_NE(report.find("VM_1:"), std::string::npos);
  EXPECT_NE(report.find("barriers"), std::string::npos);
}

}  // namespace
}  // namespace vcpusim::trace
