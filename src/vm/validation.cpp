#include "vm/validation.hpp"

#include <sstream>
#include <stdexcept>

namespace vcpusim::vm {

InvariantChecker::InvariantChecker(const VirtualSystem& system,
                                   bool throw_on_violation)
    : san::TraceSink(san::kLiveRecorderCategories),
      system_(&system),
      clock_(system.scheduler_places.clock),
      static_analysis_(san::analyze::analyze_invariants(*system.model)),
      throw_on_violation_(throw_on_violation) {
  if (clock_ == nullptr) {
    throw std::invalid_argument("InvariantChecker: system has no scheduler clock");
  }
}

void InvariantChecker::check_static(std::vector<std::string>& found,
                                    san::Time now) {
  for (std::size_t i = 0; i < static_analysis_.invariants.size(); ++i) {
    const auto& inv = static_analysis_.invariants[i];
    const std::int64_t value = static_analysis_.evaluate(i);
    if (value != inv.initial_value) {
      record(found, now,
             "static invariant violated: " + inv.symbolic +
                 " (marking sums to " + std::to_string(value) + ")");
    }
  }
  for (const auto& bound : static_analysis_.bounds) {
    const auto& token = static_analysis_.incidence.tokens[bound.token];
    const std::int64_t value = token.eval();
    if (value > bound.bound) {
      record(found, now,
             "static bound violated: " + token.name + " = " +
                 std::to_string(value) + " exceeds proven bound " +
                 std::to_string(bound.bound) + " [from: " +
                 static_analysis_.invariants[bound.invariant].symbolic + "]");
    }
  }
}

void InvariantChecker::record(std::vector<std::string>& found, san::Time now,
                              const std::string& message) {
  std::ostringstream os;
  if (now >= 0) os << "t=" << now << ": ";
  os << message;
  found.push_back(os.str());
  if (violations_.size() < kMaxRecorded) violations_.push_back(os.str());
  if (throw_on_violation_) throw std::logic_error(os.str());
}

std::vector<std::string> InvariantChecker::check_now(san::Time now) {
  ++checks_;
  std::vector<std::string> found;
  const auto& system = *system_;
  const auto& pcpus = system.scheduler_places.pcpus->get();

  // --- PCPU <-> VCPU assignment is a partial bijection ---------------
  std::vector<int> pcpu_of_vcpu(static_cast<std::size_t>(system.num_vcpus()),
                                -1);
  for (std::size_t p = 0; p < pcpus.size(); ++p) {
    const int v = pcpus[p].assigned_vcpu;
    if (v < 0) continue;
    if (v >= system.num_vcpus()) {
      record(found, now,
             "PCPU " + std::to_string(p) + " names nonexistent VCPU " +
                 std::to_string(v));
      continue;
    }
    if (pcpu_of_vcpu[static_cast<std::size_t>(v)] != -1) {
      record(found, now,
             "VCPU " + std::to_string(v) + " assigned to two PCPUs");
    }
    pcpu_of_vcpu[static_cast<std::size_t>(v)] = static_cast<int>(p);
  }
  for (int v = 0; v < system.num_vcpus(); ++v) {
    const auto& host =
        system.scheduler_places.hosts[static_cast<std::size_t>(v)]->get();
    if (host.assigned_pcpu != pcpu_of_vcpu[static_cast<std::size_t>(v)]) {
      record(found, now,
             "VCPU " + std::to_string(v) + " host place says PCPU " +
                 std::to_string(host.assigned_pcpu) +
                 " but PCPU array says " +
                 std::to_string(pcpu_of_vcpu[static_cast<std::size_t>(v)]));
    }
  }

  // --- Per-VM state consistency ---------------------------------------
  for (const auto& vm : system.vms) {
    std::int64_t ready = 0;
    int lock_holders = 0;
    for (std::size_t k = 0; k < vm.places.slots.size(); ++k) {
      const auto& slot = vm.places.slots[k]->get();
      const int global = vm.vcpu_ids[k];
      const bool assigned = pcpu_of_vcpu[static_cast<std::size_t>(global)] >= 0;

      // A pending Schedule_In/Out token means the status transition is
      // legitimately in flight (the checker may run between the
      // scheduler's decision and the VCPU model's acknowledgement).
      const auto& binding = system.vcpus[static_cast<std::size_t>(global)];
      const bool transition_pending = binding.schedule_in->get() > 0 ||
                                      binding.schedule_out->get() > 0;
      if (!transition_pending && is_active(slot.status) != assigned) {
        record(found, now,
               vm.name + " VCPU" + std::to_string(k + 1) + " status " +
                   to_string(slot.status) +
                   (assigned ? " despite" : " without") + " PCPU assignment");
      }
      if (slot.status == VcpuStatus::kReady) ++ready;
      if (slot.remaining_load < 0) {
        record(found, now, vm.name + ": negative remaining_load");
      }
      if (slot.status == VcpuStatus::kReady && slot.remaining_load > 0) {
        record(found, now,
               vm.name + " VCPU" + std::to_string(k + 1) +
                   " READY with remaining load");
      }
      // Outside the critical section the boundary has not been crossed
      // by more than one processing tick (fractional loads overshoot the
      // boundary by up to a tick before acquisition triggers); once the
      // lock is held the remaining load legitimately drops below it.
      if (!slot.holds_lock &&
          slot.critical_remaining > slot.remaining_load + 1.0 + 1e-9) {
        record(found, now,
               vm.name + ": remaining_load fell more than a tick below "
                         "critical_remaining outside the critical section");
      }
      if (slot.holds_lock) ++lock_holders;
      if (slot.spinning && slot.status != VcpuStatus::kBusy) {
        record(found, now, vm.name + ": spinning while not BUSY");
      }
    }
    if (vm.places.num_vcpus_ready->get() != ready) {
      record(found, now,
             vm.name + ": Num_VCPUs_ready=" +
                 std::to_string(vm.places.num_vcpus_ready->get()) +
                 " but " + std::to_string(ready) + " slots are READY");
    }
    if (vm.places.outstanding_jobs->get() < 0) {
      record(found, now, vm.name + ": negative Outstanding_Jobs");
    }
    if (vm.places.blocked->get() != 0 &&
        vm.places.outstanding_jobs->get() == 0) {
      record(found, now, vm.name + ": Blocked with no outstanding jobs");
    }
    if (vm.places.lock != nullptr) {
      const auto holder = vm.places.lock->get();
      if (lock_holders > 1) {
        record(found, now, vm.name + ": multiple lock holders");
      }
      if ((holder != 0) != (lock_holders == 1)) {
        record(found, now, vm.name + ": Lock place disagrees with slots");
      }
    }
  }

  // --- Statically proven conservation laws and bounds -----------------
  check_static(found, now);
  return found;
}

void InvariantChecker::on_event(const san::TraceEvent& event) {
  if (event.category == san::TraceCategory::kMarker) {
    san::throw_replayed_stream("InvariantChecker");
  }
  if (event.name != clock_->name()) return;
  check_now(event.time);
}

}  // namespace vcpusim::vm
