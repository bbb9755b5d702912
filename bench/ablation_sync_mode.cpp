// Ablation: deterministic every-k-th vs random Bernoulli(1/k) placement
// of synchronization points — does barrier regularity matter?
#include "bench_util.hpp"

int main() try {
  using namespace vcpusim;

  bench::print_header(
      "Ablation — synchronization-point placement (every-kth vs random)",
      "4 PCPUs; VMs {2,3}; sync ratio 1:3; metric: VCPU Utilization");

  exp::Table table({"sync mode", "RRS", "SCS", "RCS"});
  for (const auto mode : {vm::SyncMode::kEveryKth, vm::SyncMode::kRandom}) {
    std::vector<std::string> row = {
        mode == vm::SyncMode::kEveryKth ? "every 3rd workload"
                                        : "random p=1/3"};
    for (const auto& algorithm : bench::paper_algorithms()) {
      auto system = vm::make_symmetric_config(4, {2, 3}, 3);
      for (auto& vm_cfg : system.vms) vm_cfg.sync_mode = mode;
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
