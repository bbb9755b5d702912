// Quickstart: build the paper's Figure 7 system — two VMs with two VCPUs
// each on a small host — run it under each of the paper's three
// scheduling algorithms, and print the three evaluation metrics.
//
//   $ ./quickstart [pcpus] [sync_k]
#include <cstdlib>
#include <iostream>

#include "exp/quality.hpp"
#include "exp/runner.hpp"
#include "exp/table.hpp"
#include "sched/registry.hpp"
#include "vm/config.hpp"

int main(int argc, char** argv) {
  using namespace vcpusim;

  const int pcpus = argc > 1 ? std::atoi(argv[1]) : 2;
  const int sync_k = argc > 2 ? std::atoi(argv[2]) : 5;
  if (pcpus < 1 || sync_k < 0) {
    std::cerr << "usage: quickstart [pcpus>=1] [sync_k>=0]\n";
    return 1;
  }

  // A system with two 2-VCPU VMs, default workloads, sync ratio 1:k.
  const vm::SystemConfig system = vm::make_symmetric_config(pcpus, {2, 2}, sync_k);

  std::cout << "vcpusim quickstart: 2 VMs x 2 VCPUs, " << pcpus
            << " PCPUs, sync ratio 1:" << sync_k << "\n\n";

  exp::Table table({"algorithm", "VCPU availability", "PCPU utilization",
                    "VCPU utilization", "replications"});
  for (const char* algorithm : {"rrs", "scs", "rcs"}) {
    exp::RunSpec spec;
    spec.system = system;
    spec.scheduler = sched::make_factory(algorithm);
    exp::apply(exp::quality_preset("fast"), spec);

    const auto result = exp::run_point(
        spec, {{exp::MetricKind::kMeanVcpuAvailability, -1, ""},
               {exp::MetricKind::kPcpuUtilization, -1, ""},
               {exp::MetricKind::kMeanVcpuUtilization, -1, ""}});

    table.add_row({algorithm,
                   exp::format_ci_percent(result.metric("mean_vcpu_availability").ci),
                   exp::format_ci_percent(result.metric("pcpu_utilization").ci),
                   exp::format_ci_percent(result.metric("mean_vcpu_utilization").ci),
                   std::to_string(result.replications)});
  }
  std::cout << table.render();
  std::cout << "\n(95% confidence intervals; see bench/ for the paper's "
               "full figure reproductions)\n";
  return 0;
}
