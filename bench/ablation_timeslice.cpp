// Ablation: scheduler timeslice length vs synchronization latency.
//
// The paper fixes the timeslice; this sweep shows the trade-off it
// hides: short timeslices interleave VMs finely (fast barrier drains,
// more fairness churn), long timeslices amplify the VCPU-stacking stall
// of RRS while co-scheduling is largely insensitive.
#include "bench_util.hpp"

int main() try {
  using namespace vcpusim;

  bench::print_header(
      "Ablation — timeslice sweep",
      "4 PCPUs; VMs {2,4} VCPUs; sync ratio 1:3; timeslice swept 2..20; "
      "metric: VCPU Utilization (busy/active)");

  exp::Table table({"timeslice", "RRS", "SCS", "RCS"});
  for (const double timeslice : {2.0, 5.0, 10.0, 20.0}) {
    std::vector<std::string> row = {exp::format_fixed(timeslice, 0)};
    for (const auto& algorithm : bench::paper_algorithms()) {
      auto system = vm::make_symmetric_config(4, {2, 4}, 3);
      system.default_timeslice = timeslice;
      const auto estimate = bench::run_metric(
          algorithm, system, {exp::MetricKind::kMeanVcpuUtilization, -1, "u"});
      row.push_back(exp::format_ci_percent(estimate.ci));
    }
    table.add_row(std::move(row));
  }
  std::cout << "\n" << table.render();
  return 0;
} catch (const std::exception& e) {
  return vcpusim::bench::report_failure(e);
}
