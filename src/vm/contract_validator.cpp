#include "vm/contract_validator.hpp"

#include <cassert>

namespace vcpusim::vm {

std::string ScheduleViolation::message() const {
  switch (kind) {
    case Kind::kOutNotAssigned:
      return "schedule_out: VCPU " + std::to_string(vcpu) +
             " is not assigned a PCPU";
    case Kind::kInOutOfRange:
      return "schedule_in: VCPU " + std::to_string(vcpu) +
             " given out-of-range PCPU " + std::to_string(pcpu);
    case Kind::kInAlreadyAssigned:
      return "schedule_in: VCPU " + std::to_string(vcpu) +
             " is already assigned PCPU " + std::to_string(other);
    case Kind::kInPcpuTaken:
      return "schedule_in: PCPU " + std::to_string(pcpu) +
             " is already assigned to VCPU " + std::to_string(other);
    case Kind::kFreqLevelInvalid:
      if (other == 0) {
        return "set_freq_level: PCPU " + std::to_string(pcpu) +
               " given level " + std::to_string(vcpu) +
               " but the system declares no DVFS levels";
      }
      return "set_freq_level: PCPU " + std::to_string(pcpu) +
             " given undeclared level " + std::to_string(vcpu) +
             " (declared levels: 0.." + std::to_string(other - 1) + ")";
  }
  return "schedule: unknown contract violation";
}

void ContractValidator::attach(std::size_t num_vcpus, std::size_t num_pcpus,
                               std::size_t num_dvfs_levels) {
  scratch_vcpu_.assign(num_vcpus, -1);
  scratch_pcpu_.assign(num_pcpus, -1);
  num_dvfs_levels_ = num_dvfs_levels;
}

std::optional<ScheduleViolation> ContractValidator::validate_freq(
    std::span<const PCPU_external> pcpus) const {
  for (const auto& p : pcpus) {
    const int target = p.set_freq_level;
    if (target < 0) continue;
    if (target >= static_cast<int>(num_dvfs_levels_)) {
      return ScheduleViolation{ScheduleViolation::Kind::kFreqLevelInvalid,
                               target, p.pcpu_id,
                               static_cast<int>(num_dvfs_levels_)};
    }
  }
  return std::nullopt;
}

std::optional<ScheduleViolation> ContractValidator::validate(
    std::span<const VCPU_host_external> vcpus, std::span<const int> vcpu_pcpu,
    std::span<const int> pcpu_vcpu) {
  assert(vcpus.size() == scratch_vcpu_.size());
  assert(vcpu_pcpu.size() == scratch_vcpu_.size());
  assert(pcpu_vcpu.size() == scratch_pcpu_.size());
  scratch_vcpu_.assign(vcpu_pcpu.begin(), vcpu_pcpu.end());
  scratch_pcpu_.assign(pcpu_vcpu.begin(), pcpu_vcpu.end());
  return replay(vcpus, scratch_vcpu_, scratch_pcpu_);
}

std::optional<ScheduleViolation> ContractValidator::replay(
    std::span<const VCPU_host_external> vcpus, std::span<int> vcpu_pcpu,
    std::span<int> pcpu_vcpu) {
  assert(vcpus.size() == vcpu_pcpu.size());
  const int num_pcpus = static_cast<int>(pcpu_vcpu.size());

  // Phase 1: relinquishments, ascending VCPU order.
  for (std::size_t i = 0; i < vcpus.size(); ++i) {
    if (vcpus[i].schedule_out == 0) continue;
    const int held = vcpu_pcpu[i];
    if (held < 0) {
      return ScheduleViolation{ScheduleViolation::Kind::kOutNotAssigned,
                               static_cast<int>(i), -1, -1};
    }
    pcpu_vcpu[static_cast<std::size_t>(held)] = -1;
    vcpu_pcpu[i] = -1;
  }

  // Phase 2: assignments, ascending VCPU order.
  for (std::size_t i = 0; i < vcpus.size(); ++i) {
    const int target = vcpus[i].schedule_in;
    if (target < 0) continue;
    if (target >= num_pcpus) {
      return ScheduleViolation{ScheduleViolation::Kind::kInOutOfRange,
                               static_cast<int>(i), target, -1};
    }
    if (vcpu_pcpu[i] >= 0) {
      return ScheduleViolation{ScheduleViolation::Kind::kInAlreadyAssigned,
                               static_cast<int>(i), target, vcpu_pcpu[i]};
    }
    const int owner = pcpu_vcpu[static_cast<std::size_t>(target)];
    if (owner >= 0) {
      return ScheduleViolation{ScheduleViolation::Kind::kInPcpuTaken,
                               static_cast<int>(i), target, owner};
    }
    pcpu_vcpu[static_cast<std::size_t>(target)] = static_cast<int>(i);
    vcpu_pcpu[i] = target;
  }
  return std::nullopt;
}

}  // namespace vcpusim::vm
