// Workload-consolidation what-if — the Cloud use case the paper's
// introduction motivates ("resource sharing and workload consolidation"):
// how many 2-VCPU VMs can a 4-PCPU host absorb before per-VM service
// quality (VCPU utilization while scheduled, and per-VM throughput)
// degrades past a target, and which scheduler sustains the most VMs?
//
//   $ ./consolidation_study [max_vms] [sync_k]
#include <cstdlib>
#include <exception>
#include <iostream>

#include "exp/quality.hpp"
#include "exp/runner.hpp"
#include "exp/table.hpp"
#include "sched/registry.hpp"

int main(int argc, char** argv) try {
  using namespace vcpusim;

  const int max_vms = argc > 1 ? std::atoi(argv[1]) : 6;
  const int sync_k = argc > 2 ? std::atoi(argv[2]) : 4;
  constexpr int kPcpus = 4;
  constexpr double kUtilTarget = 0.70;

  std::cout << "consolidation_study: packing 2-VCPU VMs onto a " << kPcpus
            << "-PCPU host (sync ratio 1:" << sync_k << ")\n"
            << "service target: VCPU utilization while scheduled >= "
            << exp::format_percent(kUtilTarget) << "\n\n";

  for (const char* algorithm : {"rrs", "rcs", "credit"}) {
    exp::Table table({"VMs", "total VCPUs", "VCPU util", "PCPU util",
                      "jobs/tick/VM", "meets target"});
    int sustained = 0;
    for (int vms = 1; vms <= max_vms; ++vms) {
      exp::RunSpec spec;
      spec.system = vm::make_symmetric_config(
          kPcpus, std::vector<int>(static_cast<std::size_t>(vms), 2), sync_k);
      spec.scheduler = sched::make_factory(algorithm);
      exp::apply(exp::quality_from_env(), spec);
      const auto result = exp::run_point(
          spec, {{exp::MetricKind::kMeanVcpuUtilization, -1, "util"},
                 {exp::MetricKind::kPcpuUtilization, -1, "pcpu"},
                 {exp::MetricKind::kThroughput, -1, "thr"}});
      const double util = result.metric("util").ci.mean;
      const bool ok = util >= kUtilTarget;
      if (ok) sustained = vms;
      table.add_row({std::to_string(vms), std::to_string(2 * vms),
                     exp::format_ci_percent(result.metric("util").ci),
                     exp::format_ci_percent(result.metric("pcpu").ci),
                     exp::format_fixed(result.metric("thr").ci.mean / vms, 3),
                     ok ? "yes" : "no"});
    }
    std::cout << "[" << algorithm << "]\n"
              << table.render() << "-> sustains " << sustained
              << " VM(s) at the service target\n\n";
  }
  return 0;
} catch (const std::exception& e) {
  // A bad VCPUSIM_QUALITY or a failed run: one line and exit 1.
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
