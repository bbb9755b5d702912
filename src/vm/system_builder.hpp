// Assembling a complete Virtual System (paper III.B.6, Figure 7): several
// Virtual Machine composed models joined to one VCPU Scheduler through
// the Schedule_In / Schedule_Out places of Table 2. This is the
// programmatic equivalent of the Mobius drag-and-drop assembly the paper
// describes in its introduction.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "san/model.hpp"
#include "vm/config.hpp"
#include "vm/sched_interface.hpp"
#include "vm/vcpu_scheduler.hpp"
#include "vm/virtual_machine.hpp"

namespace vcpusim::vm {

/// Identity and places of one VM inside a built system.
struct VmHandle {
  std::string name;
  int vm_id = 0;
  VmPlaces places;
  std::vector<int> vcpu_ids;  ///< global ids of this VM's VCPUs
};

/// A fully wired virtualization system, ready for simulation. Owns the
/// composed SAN model and the scheduler instance; exposes the places the
/// metrics layer and tests observe.
struct VirtualSystem {
  SystemConfig config;
  std::unique_ptr<san::ComposedModel> model;
  SchedulerPtr scheduler;
  std::vector<VmHandle> vms;
  std::vector<VcpuBinding> vcpus;  ///< indexed by global vcpu id
  SchedulerPlaces scheduler_places;
  SystemTopology topology;  ///< as handed to scheduler->on_attach

  int num_vcpus() const noexcept { return static_cast<int>(vcpus.size()); }
  int num_pcpus() const noexcept { return config.num_pcpus; }

  /// The VM a global VCPU id belongs to.
  const VmHandle& vm_of(int vcpu_id) const {
    return vms.at(static_cast<std::size_t>(
        vcpus.at(static_cast<std::size_t>(vcpu_id)).vm_id));
  }

  /// Reset the non-marking side of the system for another replication:
  /// bridge counters and the scheduler's internal state
  /// (Scheduler::on_reset). Pair with Simulator::reset(seed), which
  /// restores the marking side via ComposedModel::reset_marking().
  void reset() { scheduler_places.reset(); }

  /// Replace the scheduler instance (must target the same topology; it
  /// receives on_attach here). The previous instance is destroyed.
  void rebind_scheduler(SchedulerPtr next) {
    if (!next) {
      throw std::invalid_argument("rebind_scheduler: null scheduler");
    }
    scheduler_places.rebind(*next);
    scheduler = std::move(next);
  }
};

/// Build the system described by `cfg`, plugging in `scheduler` as the
/// VCPU scheduling algorithm. Validates `cfg` first. The returned system
/// is self-contained; run it with san::Simulator on `*system->model`.
std::unique_ptr<VirtualSystem> build_system(SystemConfig cfg,
                                            SchedulerPtr scheduler);

}  // namespace vcpusim::vm
