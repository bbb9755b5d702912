// Paired algorithm comparison under common random numbers — the honest
// way to answer "is co-scheduling better than round-robin on this
// host?". Every algorithm runs the same replication seeds, so the CI of
// the per-replication differences is far tighter than what two
// independent runs would give at the same cost; the table prints both
// so the variance reduction is visible. See docs/STATISTICS.md.
//
//   $ ./paired_comparison [vms] [sync_k]
#include <cstdlib>
#include <exception>
#include <iostream>

#include "exp/compare.hpp"
#include "exp/quality.hpp"
#include "exp/runner.hpp"
#include "exp/table.hpp"
#include "sched/registry.hpp"

int main(int argc, char** argv) try {
  using namespace vcpusim;

  const int vms = argc > 1 ? std::atoi(argv[1]) : 4;
  const int sync_k = argc > 2 ? std::atoi(argv[2]) : 5;
  constexpr int kPcpus = 4;

  exp::RunSpec spec;
  spec.system = vm::make_symmetric_config(
      kPcpus, std::vector<int>(static_cast<std::size_t>(vms), 2), sync_k);
  spec.scheduler = sched::make_factory("rrs");  // ignored by compare_points
  exp::apply(exp::quality_from_env(), spec);
  // Antithetic pairing composes with CRN: mirrored pairs inside each
  // algorithm, common seeds across algorithms.
  spec.controller = stats::ControllerKind::kAntithetic;

  const std::vector<std::string> algorithms = {"rrs", "scs", "rcs", "credit"};
  const auto result = exp::compare_points(
      spec, algorithms,
      {{exp::MetricKind::kMeanVcpuUtilization, -1, "vcpu_util"},
       {exp::MetricKind::kMeanVcpuAvailability, -1, "availability"},
       {exp::MetricKind::kThroughput, -1, "throughput"}});

  std::cout << "paired_comparison: " << vms << " 2-VCPU VMs on " << kPcpus
            << " PCPUs (sync 1:" << sync_k << "), " << result.replications
            << " common-seed replications per algorithm, "
            << result.controller << " controller\n\n"
            << result.estimates_table().render() << "\n"
            << "paired-difference CIs vs " << result.baseline
            << " (independent-runs half-width in parentheses):\n"
            << result.deltas_table().render() << "\n";

  // The variance-reduction payoff, summarized: how much narrower the
  // paired intervals are than differencing independent runs.
  for (std::size_t a = 1; a < result.algorithms.size(); ++a) {
    for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
      const auto& d = result.delta(a, m);
      if (d.unpaired_half_width <= 0) continue;
      std::cout << "  " << result.algorithms[a] << " vs " << result.baseline
                << " on " << result.metric_names[m] << ": paired CI "
                << exp::format_fixed(
                       100.0 * d.paired.half_width / d.unpaired_half_width, 1)
                << "% of the independent width (correlation "
                << exp::format_fixed(d.correlation, 3) << ")\n";
    }
  }
  return 0;
} catch (const std::exception& e) {
  // A bad VCPUSIM_QUALITY or a failed run: one line and exit 1.
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
