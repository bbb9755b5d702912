// Ablation: workload (load-duration) distribution. The paper notes the
// generator is "configurable to any distribution and rate"; this sweep
// shows how distribution shape (variance at equal mean 5.5) moves the
// three algorithms' synchronization latency.
#include "bench_util.hpp"

int main() try {
  using namespace vcpusim;

  bench::print_header(
      "Ablation — load-duration distribution (equal mean ~5.5)",
      "4 PCPUs; VMs {2,3}; sync 1:3; metric: VCPU Utilization");

  const std::vector<std::pair<std::string, stats::DistributionPtr>> dists = {
      {"deterministic(5.5)", stats::make_deterministic(5.5)},
      {"uniformint(1,10)", stats::make_uniform_int(1, 10)},
      {"exponential(0.182)", stats::make_exponential(1.0 / 5.5)},
      {"erlang(4,0.727)", stats::make_erlang(4, 4.0 / 5.5)},
      {"geometric(0.182)", stats::make_geometric(1.0 / 5.5)},
  };

  exp::Table table({"distribution", "RRS", "SCS", "RCS"});
  for (const auto& [label, dist] : dists) {
    std::vector<std::string> row = {label};
    for (const auto& algorithm : bench::paper_algorithms()) {
      auto system = vm::make_symmetric_config(4, {2, 3}, 3);
      for (auto& vm_cfg : system.vms) vm_cfg.load_distribution = dist;
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
