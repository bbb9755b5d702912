// Ablation: spinlock critical sections and lock-holder preemption — the
// paper's Section V discussion ("long synchronization latencies caused
// by VCPU scheduling could violate the assumptions of some locking
// mechanisms, e.g. spinlocks assuming that the critical sections are
// short").
//
// A 4-VCPU VM with lock-guarded job tails shares 2 PCPUs with a 2-VCPU
// VM. When the hypervisor preempts a lock holder, siblings spin — burning
// PCPU time without progress. Co-scheduling avoids the pathology by
// construction; stacking-prone per-PCPU round-robin maximizes it.
#include "bench_util.hpp"

int main() try {
  using namespace vcpusim;

  bench::print_header(
      "Ablation — spinlock critical sections (lock-holder preemption)",
      "4 PCPUs; VM1 = 4 VCPUs with spinlock jobs (p_lock = 0.8), VM2 = 2 "
      "VCPUs plain; sync disabled; critical fraction swept");

  for (const double critical : {0.2, 0.5, 0.8}) {
    exp::Table table({"algorithm", "spin fraction", "effective util",
                      "raw VCPU util", "throughput"});
    for (const std::string algorithm :
         {"rrs", "rrs-stacked", "balance", "scs", "rcs", "fifo"}) {
      auto system = vm::make_symmetric_config(4, {4, 2}, 0);
      system.vms[0].spinlock.enabled = true;
      system.vms[0].spinlock.lock_probability = 0.8;
      system.vms[0].spinlock.critical_fraction = critical;
      const auto result = bench::run_metrics(
          algorithm, system,
          {{exp::MetricKind::kMeanSpinFraction, -1, "spin"},
           {exp::MetricKind::kMeanEffectiveUtilization, -1, "eff"},
           {exp::MetricKind::kMeanVcpuUtilization, -1, "util"},
           {exp::MetricKind::kThroughput, -1, "thr"}});
      table.add_row({algorithm,
                     exp::format_ci_percent(result.metric("spin").ci),
                     exp::format_ci_percent(result.metric("eff").ci),
                     exp::format_ci_percent(result.metric("util").ci),
                     exp::format_fixed(result.metric("thr").ci.mean, 3)});
    }
    std::cout << "\ncritical fraction = " << critical << "\n" << table.render();
  }
  std::cout << "\nReading: 'spin fraction' is wall-clock time burned "
               "spin-waiting; 'effective util' discounts it from the "
               "busy/active ratio. Lock-holder preemption shows up as the "
               "gap between raw and effective utilization.\n";
  return 0;
} catch (const std::exception& e) {
  return vcpusim::bench::report_failure(e);
}
