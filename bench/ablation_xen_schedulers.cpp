// Ablation: the three Xen CPU schedulers — BVT, SEDF, Credit — compared
// qualitatively after Cherkasova, Gupta & Vahdat, "Comparison of the
// three CPU schedulers in Xen" (the paper's reference [8]).
//
// Two studies:
//  1. Weighted fairness: three 1-VCPU VMs sharing 1 PCPU at weight
//     (reservation) ratio 4:2:1 — how close does each scheduler come to
//     the 4:2:1 split, and how does it spend leftover capacity?
//  2. The paper's own over-committed barrier workload under all three.
#include "bench_util.hpp"
#include "sched/bvt.hpp"
#include "sched/credit.hpp"
#include "sched/sedf.hpp"

int main() try {
  using namespace vcpusim;

  bench::print_header(
      "Ablation — the three Xen schedulers (BVT / SEDF / Credit)",
      "study 1: weight ratio 4:2:1 on 1 PCPU; study 2: paper workload "
      "{2,3} VCPUs on 4 PCPUs, sync 1:3");

  const auto factories =
      std::vector<std::pair<std::string, vm::SchedulerFactory>>{
          {"bvt", [] {
             sched::BvtOptions options;
             options.vm_weights = {4.0, 2.0, 1.0};
             return sched::make_bvt(options);
           }},
          {"sedf", [] {
             sched::SedfOptions options;
             // Reservations proportional to 4:2:1 over a 14-tick period.
             options.reservations = {{8.0, 14.0}, {4.0, 14.0}, {2.0, 14.0}};
             return sched::make_sedf(options);
           }},
          {"credit", [] {
             sched::CreditOptions options;
             options.vm_weights = {4.0, 2.0, 1.0};
             return sched::make_credit(options);
           }},
      };

  {
    exp::Table table({"scheduler", "VM1 (w=4)", "VM2 (w=2)", "VM3 (w=1)",
                      "PCPU util"});
    for (const auto& [label, factory] : factories) {
      exp::RunSpec spec;
      spec.system = vm::make_symmetric_config(1, {1, 1, 1}, 0);
      spec.scheduler = factory;
      exp::apply(exp::quality_from_env(), spec);
      const auto result = exp::run_point(
          spec, {{exp::MetricKind::kVcpuAvailability, 0, "v1"},
                 {exp::MetricKind::kVcpuAvailability, 1, "v2"},
                 {exp::MetricKind::kVcpuAvailability, 2, "v3"},
                 {exp::MetricKind::kPcpuUtilization, -1, "pcpu"}});
      table.add_row({label, exp::format_ci_percent(result.metric("v1").ci),
                     exp::format_ci_percent(result.metric("v2").ci),
                     exp::format_ci_percent(result.metric("v3").ci),
                     exp::format_ci_percent(result.metric("pcpu").ci)});
    }
    std::cout << "\nstudy 1 — weighted fairness (target split 57/29/14%)\n"
              << table.render();
  }

  {
    exp::Table table({"scheduler", "VCPU util", "PCPU util", "throughput"});
    for (const std::string name : {"bvt", "sedf", "credit", "rrs"}) {
      const auto system = vm::make_symmetric_config(4, {2, 3}, 3);
      const auto result = bench::run_metrics(
          name, system,
          {{exp::MetricKind::kMeanVcpuUtilization, -1, "util"},
           {exp::MetricKind::kPcpuUtilization, -1, "pcpu"},
           {exp::MetricKind::kThroughput, -1, "thr"}});
      table.add_row({name, exp::format_ci_percent(result.metric("util").ci),
                     exp::format_ci_percent(result.metric("pcpu").ci),
                     exp::format_fixed(result.metric("thr").ci.mean, 3)});
    }
    std::cout << "\nstudy 2 — paper workload under the Xen schedulers\n"
              << table.render();
  }
  return 0;
} catch (const std::exception& e) {
  return vcpusim::bench::report_failure(e);
}
