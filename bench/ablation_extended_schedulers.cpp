// Ablation: the extension algorithms beyond the paper's three — balance
// scheduling vs stacking-prone per-PCPU round-robin (Sukwong & Kim, the
// paper's reference [1]), the Xen-style credit scheduler, FIFO
// run-to-completion and strict priority — on the paper's Figure 9/10
// over-committed setup.
#include "bench_util.hpp"

int main() try {
  using namespace vcpusim;

  bench::print_header(
      "Ablation — extension schedulers on the over-committed setup",
      "4 PCPUs; VMs {2,4} VCPUs; sync 1:3; all registered algorithms");

  exp::Table table({"algorithm", "PCPU util", "VCPU util (busy/active)",
                    "mean availability", "throughput (jobs/tick)"});
  for (const auto& algorithm : sched::builtin_algorithms()) {
    const auto system = vm::make_symmetric_config(4, {2, 4}, 3);
    const auto result = bench::run_metrics(
        algorithm, system,
        {{exp::MetricKind::kPcpuUtilization, -1, "pcpu"},
         {exp::MetricKind::kMeanVcpuUtilization, -1, "util"},
         {exp::MetricKind::kMeanVcpuAvailability, -1, "avail"},
         {exp::MetricKind::kThroughput, -1, "thr"}});
    table.add_row({algorithm,
                   exp::format_ci_percent(result.metric("pcpu").ci),
                   exp::format_ci_percent(result.metric("util").ci),
                   exp::format_ci_percent(result.metric("avail").ci),
                   exp::format_fixed(result.metric("thr").ci.mean, 3)});
  }
  std::cout << "\n" << table.render();
  std::cout << "\nNotes: 'rrs-stacked' pins sibling VCPUs onto hashed "
               "per-PCPU run queues (the VCPU-stacking pathology); "
               "'balance' places siblings on distinct queues; 'priority' "
               "deliberately starves the lower-priority VM.\n";
  return 0;
} catch (const std::exception& e) {
  return vcpusim::bench::report_failure(e);
}
