// The hypervisor's VCPU Scheduler sub-model (paper III.B.5, Figure 6):
// a Clock firing every time unit, per-VCPU places holding Schedule_In /
// Schedule_Out links plus Last_Scheduled_In and Timeslice, the PCPUs
// array, and the Scheduling_Func output gate that bridges to the
// user-defined scheduling function.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "san/model.hpp"
#include "vm/config.hpp"
#include "vm/sched_interface.hpp"
#include "vm/types.hpp"

namespace vcpusim::vm {

/// Always-on counters of the scheduler bridge (plain increments, cheap
/// enough for the zero-allocation hot path). Folded into the metrics
/// registry as "sched.*" by exp::run_point. Zeroed by the system's
/// reset path, so every replication starts from zero whether the
/// system was built fresh or checked out of a pool.
struct BridgeStats {
  std::uint64_t ticks = 0;          ///< Clock firings (schedule() calls)
  std::uint64_t schedules_in = 0;   ///< PCPU assignments applied
  std::uint64_t schedules_out = 0;  ///< voluntary releases applied
  std::uint64_t preemptions = 0;    ///< forced descheduled (timeslice expiry)
  std::uint64_t freq_changes = 0;   ///< DVFS level switches applied
};

/// Identity and join places of one VCPU, as seen by the hypervisor.
struct VcpuBinding {
  int vcpu_id = 0;        ///< global index
  int vm_id = 0;
  int vcpu_index_in_vm = 0;
  int num_siblings = 1;
  std::shared_ptr<SlotPlace> slot;
  std::shared_ptr<san::TokenPlace> schedule_in;
  std::shared_ptr<san::TokenPlace> schedule_out;
  /// The VCPU's Service_Scale place (f_cur / f_max of its current PCPU),
  /// written by the bridge on assignment and on frequency switches.
  /// Null when DVFS is disabled.
  std::shared_ptr<san::Place<double>> service_scale;
};

/// Places owned by the scheduler sub-model.
struct SchedulerPlaces {
  std::shared_ptr<san::TokenPlace> num_pcpus;
  std::shared_ptr<PcpuArrayPlace> pcpus;
  std::vector<std::shared_ptr<HostPlace>> hosts;  ///< one per VCPU
  /// DVFS extension: current level index per PCPU (Freq_Levels place) and
  /// a copy of the declared level table, for the energy reward. Null /
  /// empty when the system has no DVFS dimension.
  std::shared_ptr<san::Place<std::vector<int>>> freq_levels;
  std::vector<DvfsLevel> dvfs_levels;
  /// The scheduler's Clock activity (fires once per tick, after all
  /// guest processing); trace observers hook it to sample per-tick state.
  san::Activity* clock = nullptr;
  /// Live bridge counters, owned by the gate context (read anytime).
  std::shared_ptr<const BridgeStats> bridge_stats;
  /// Reset the bridge for another replication on the same built system:
  /// zeroes the bridge counters and drives Scheduler::on_reset with the
  /// stored topology. The marking-side state (hosts, PCPUs array, join
  /// places) is restored by ComposedModel::reset_marking(), not here.
  std::function<void()> reset;
  /// Point the bridge at a different scheduler instance (same topology;
  /// receives on_attach). Used by the system pool when a checkout's
  /// scheduler factory differs from the one the slot was built with.
  std::function<void(Scheduler&)> rebind;
};

/// Derive the immutable SystemTopology (handed to Scheduler::on_attach)
/// from the global VCPU bindings. Bindings must be in global-id order.
SystemTopology make_topology(const std::vector<VcpuBinding>& bindings,
                             int num_pcpus);

/// Build the VCPU Scheduler sub-model into `model` (submodel name
/// "VCPU_Scheduler"). `scheduler` must outlive the model; it receives
/// on_attach(topology) once here, then is invoked once per Clock tick
/// under the contract documented in sched_interface.hpp. Throws
/// std::invalid_argument on empty bindings.
SchedulerPlaces build_vcpu_scheduler(san::ComposedModel& model,
                                     const SystemConfig& cfg,
                                     std::vector<VcpuBinding> bindings,
                                     Scheduler& scheduler);

}  // namespace vcpusim::vm
