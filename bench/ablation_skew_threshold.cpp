// Ablation: the RCS skew threshold — the fairness/utilization trade-off
// the paper attributes to relaxed co-scheduling. Small thresholds act
// like strict co-scheduling (tight sibling coupling), large thresholds
// degenerate toward plain round-robin.
#include "bench_util.hpp"
#include "sched/relaxed_co.hpp"

int main() try {
  using namespace vcpusim;

  bench::print_header(
      "Ablation — RCS skew-threshold sweep",
      "1 and 4 PCPUs; VMs {2,1,1}; sync 1:5; threshold swept 2..40; "
      "metrics: wide-VM VCPU availability and PCPU utilization");

  exp::Table table({"threshold", "PCPUs", "VCPU1.1 availability",
                    "VCPU2.1 availability", "PCPU utilization"});
  for (const double threshold : {2.0, 5.0, 10.0, 20.0, 40.0}) {
    for (const int pcpus : {1, 4}) {
      exp::RunSpec spec;
      spec.system = vm::make_symmetric_config(pcpus, {2, 1, 1}, 5);
      spec.scheduler = [threshold] {
        sched::RcsOptions options;
        options.skew_threshold = threshold;
        return sched::make_relaxed_co(options);
      };
      exp::apply(exp::quality_from_env(), spec);
      const auto result = exp::run_point(
          spec, {{exp::MetricKind::kVcpuAvailability, 0, "wide"},
                 {exp::MetricKind::kVcpuAvailability, 2, "narrow"},
                 {exp::MetricKind::kPcpuUtilization, -1, "pcpu"}});
      table.add_row({exp::format_fixed(threshold, 0), std::to_string(pcpus),
                     exp::format_ci_percent(result.metric("wide").ci),
                     exp::format_ci_percent(result.metric("narrow").ci),
                     exp::format_ci_percent(result.metric("pcpu").ci)});
    }
  }
  std::cout << "\n" << table.render();
  return 0;
} catch (const std::exception& e) {
  return vcpusim::bench::report_failure(e);
}
