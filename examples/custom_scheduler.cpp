// The paper's headline use case: plug a *user-defined VCPU scheduling
// algorithm*, written as a plain C function against the published
// interface
//
//   bool schedule(VCPU_host_external* vcpus, int num_vcpu,
//                 PCPU_external* pcpus, int num_pcpu, long timestamp);
//
// into the framework and evaluate it against the built-ins.
//
// The demo algorithm is "longest-remaining-load-first with sync-point
// pinning": PCPUs go to the VCPUs with the most pending work, and a
// VCPU holding a synchronization point (a lock holder, in the paper's
// motivation) is never preempted by this policy while work remains.
//
// The plug-in also uses the C attach hook (the C analogue of
// Scheduler::on_attach, see docs/SCHEDULING.md): the framework calls it
// once at build time with the static topology, so the function can
// pre-size its scratch buffers instead of allocating on every tick and
// never needs lazily-initialized "first call" paths. Note the
// replication-safety line this walks: the scratch statics are fine
// because attach re-sizes them identically for every replication and
// schedule() recomputes their contents from the snapshot alone; a
// static that *accumulated* state across ticks would leak between
// replications and be rejected by the contract checker.
//
// Before evaluating, the scheduler-contract checker vets the function
// statically (replication safety, snapshot read-only discipline) — the
// same check `vcpusim lint` runs; see docs/ANALYZER.md.
#include <algorithm>
#include <exception>
#include <iostream>
#include <vector>

#include "exp/quality.hpp"
#include "exp/runner.hpp"
#include "exp/table.hpp"
#include "sched/contract.hpp"
#include "sched/registry.hpp"
#include "vm/sched_interface.hpp"

namespace {

using vcpusim::vm::PCPU_external;
using vcpusim::vm::VCPU_host_external;
using vcpusim::vm::VCPU_topology_external;

// Scratch buffers reused across ticks. Sized once by llf_attach;
// cleared and refilled from the snapshot on every call, so they carry
// no state between ticks or replications.
std::vector<int> g_free_pcpus;
std::vector<int> g_waiting;

// Called once per replication at build_system time, before the first
// schedule() call — reserve to topology capacity so the per-tick path
// below never allocates.
void llf_attach(const VCPU_topology_external* /*vcpus*/, int num_vcpu,
                int num_pcpu) {
  g_free_pcpus.clear();
  g_free_pcpus.reserve(static_cast<std::size_t>(num_pcpu));
  g_waiting.clear();
  g_waiting.reserve(static_cast<std::size_t>(num_vcpu));
}

// Plain C-style function — exactly what a user of the paper's framework
// would hand to the Scheduling_Func output gate.
bool llf_schedule(VCPU_host_external* vcpus, int num_vcpu,
                  PCPU_external* pcpus, int num_pcpu, long /*timestamp*/) {
  // 1. Preempt active VCPUs that have no work (yield idle), unless they
  //    hold a sync point.
  g_free_pcpus.clear();
  for (int p = 0; p < num_pcpu; ++p) {
    if (pcpus[p].state == 0) g_free_pcpus.push_back(p);
  }
  for (int i = 0; i < num_vcpu; ++i) {
    if (vcpus[i].assigned_pcpu >= 0 && vcpus[i].remaining_load <= 0 &&
        vcpus[i].sync_point == 0) {
      vcpus[i].schedule_out = 1;
      g_free_pcpus.push_back(vcpus[i].assigned_pcpu);
    }
  }
  // 2. Rank waiting VCPUs by remaining load, longest first.
  g_waiting.clear();
  for (int i = 0; i < num_vcpu; ++i) {
    if (vcpus[i].assigned_pcpu < 0) g_waiting.push_back(i);
  }
  std::sort(g_waiting.begin(), g_waiting.end(), [&](int a, int b) {
    if (vcpus[a].remaining_load != vcpus[b].remaining_load) {
      return vcpus[a].remaining_load > vcpus[b].remaining_load;
    }
    return a < b;
  });
  // 3. Hand out the free PCPUs; sync-point holders get a longer slice.
  std::size_t next = 0;
  for (const int v : g_waiting) {
    if (next >= g_free_pcpus.size()) break;
    vcpus[v].schedule_in = g_free_pcpus[next++];
    if (vcpus[v].sync_point != 0) vcpus[v].new_timeslice = 50.0;
  }
  return true;
}

}  // namespace

int main() try {
  using namespace vcpusim;

  std::cout << "custom_scheduler: evaluating a user C scheduling function\n"
            << "('longest-load-first + sync pinning') against the paper's "
               "three algorithms\n\n";

  const auto system = vm::make_symmetric_config(4, {2, 4}, 3);
  exp::Table table(
      {"algorithm", "VCPU util (busy/active)", "PCPU util", "throughput"});

  const auto evaluate = [&](const std::string& label,
                            vm::SchedulerFactory factory) {
    exp::RunSpec spec;
    spec.system = system;
    spec.scheduler = std::move(factory);
    exp::apply(exp::quality_from_env(), spec);
    const auto result =
        exp::run_point(spec, {{exp::MetricKind::kMeanVcpuUtilization, -1, "u"},
                              {exp::MetricKind::kPcpuUtilization, -1, "p"},
                              {exp::MetricKind::kThroughput, -1, "t"}});
    table.add_row({label, exp::format_ci_percent(result.metric("u").ci),
                   exp::format_ci_percent(result.metric("p").ci),
                   exp::format_fixed(result.metric("t").ci.mean, 3)});
  };

  // Vet the user function statically before spending simulation time
  // (the same check `vcpusim lint` runs; see docs/ANALYZER.md).
  const vm::SchedulerFactory llf_factory = [] {
    return vm::wrap_c_function(&llf_schedule, "llf", &llf_attach);
  };
  if (const auto diags = sched::check_scheduler_contract("llf", llf_factory);
      !diags.empty()) {
    for (const auto& d : diags) std::cerr << d.to_text() << "\n";
    return 1;
  }
  std::cout << "scheduler contract: llf passes\n\n";

  for (const char* name : {"rrs", "scs", "rcs"}) {
    evaluate(name, sched::make_factory(name));
  }
  evaluate("llf (user C fn)", llf_factory);

  std::cout << table.render()
            << "\n(4 PCPUs, VMs {2,4} VCPUs, sync ratio 1:3, 95% CIs)\n";
  return 0;
} catch (const std::exception& e) {
  // A bad VCPUSIM_QUALITY or a failed run: one line and exit 1.
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
