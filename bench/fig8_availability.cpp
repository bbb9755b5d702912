// Reproduces paper Figure 8: "The availability of four VCPUs in three
// VMs (2 VCPUs + 1 VCPU + 1 VCPU)" under RRS, SCS and RCS, with the
// number of PCPUs varied from 1 to 4 and synchronization ratio 1:5.
#include "bench_util.hpp"

int main() try {
  using namespace vcpusim;

  bench::print_header(
      "Figure 8 — VCPU Availability (fairness)",
      "three VMs: VM1 = 2 VCPUs (VCPU1.1, VCPU1.2), VM2 = 1 VCPU (VCPU2.1), "
      "VM3 = 1 VCPU (VCPU3.1); sync ratio 1:5; PCPUs swept 1..4");

  const std::vector<std::string> vcpu_labels = {"VCPU1.1", "VCPU1.2",
                                                "VCPU2.1", "VCPU3.1"};
  for (const auto& algorithm : bench::paper_algorithms()) {
    exp::Table table({"PCPUs", "VCPU1.1", "VCPU1.2", "VCPU2.1", "VCPU3.1"});
    for (int pcpus = 1; pcpus <= 4; ++pcpus) {
      const auto system = vm::make_symmetric_config(pcpus, {2, 1, 1}, 5);
      std::vector<exp::MetricRequest> metrics;
      for (int v = 0; v < 4; ++v) {
        metrics.push_back({exp::MetricKind::kVcpuAvailability, v,
                           vcpu_labels[static_cast<std::size_t>(v)]});
      }
      const auto result = bench::run_metrics(algorithm, system, metrics);
      std::vector<std::string> row = {std::to_string(pcpus)};
      for (const auto& label : vcpu_labels) {
        row.push_back(exp::format_ci_percent(result.metric(label).ci));
      }
      table.add_row(std::move(row));
    }
    std::cout << "\n[" << algorithm << "] VCPU Availability (95% CI)\n"
              << table.render();
  }
  std::cout << "\nExpected shape (paper IV.A): RRS fair at every PCPU count; "
               "SCS starves the 2-VCPU VM at 1 PCPU; RCS schedules it but "
               "below the 1-VCPU VMs; co-scheduling fairness improves with "
               "more PCPUs.\n";
  return 0;
} catch (const std::exception& e) {
  return vcpusim::bench::report_failure(e);
}
