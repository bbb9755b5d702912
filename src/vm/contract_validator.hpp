// Apply-phase contract validation of the scheduling interface, shared by
// the per-tick bridge (vm/vcpu_scheduler.cpp) and the static contract
// checker (sched::check_scheduler_contract) so the two can never drift.
//
// The framework applies a scheduling function's decisions in a fixed
// order — every schedule_out release first, then every schedule_in
// assignment, both in ascending VCPU order — and a decision set is valid
// iff, replayed in that order:
//   * a VCPU only relinquishes a PCPU it currently holds,
//   * an assignment names an in-range PCPU,
//   * the assigned VCPU holds no PCPU at assignment time,
//   * the named PCPU is idle at assignment time.
// ContractValidator replays the decisions against assignment maps (the
// bridge's own pre-apply record, or scratch copies of the caller's) and
// reports the first violation, leaving the authoritative marking
// untouched; the caller then applies the (now known-valid) decisions
// without re-checking.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "vm/sched_interface.hpp"

namespace vcpusim::vm {

/// First contract violation found in a decision set.
struct ScheduleViolation {
  enum class Kind {
    kOutNotAssigned,     ///< schedule_out from a VCPU holding no PCPU
    kInOutOfRange,       ///< schedule_in names a PCPU outside [0, num_pcpus)
    kInAlreadyAssigned,  ///< schedule_in while still holding a PCPU
    kInPcpuTaken,        ///< schedule_in names an occupied PCPU
    kFreqLevelInvalid,   ///< set_freq_level not a declared DVFS level
  };
  Kind kind{};
  int vcpu = -1;   ///< deciding VCPU; the offending level for kFreqLevelInvalid
  int pcpu = -1;   ///< the PCPU named by the decision (kIn*/kFreq* kinds)
  int other = -1;  ///< held PCPU (kInAlreadyAssigned) / owner (kInPcpuTaken)
                   ///< / declared level count (kFreqLevelInvalid; 0 = no DVFS)

  /// The ScheduleError text the framework raises for this violation.
  std::string message() const;
};

/// Validates decision sets against the apply-order contract above.
/// attach() sizes the scratch state once; validate() and replay() are
/// then allocation-free on the success path (replay() is hot: once per
/// Clock tick).
class ContractValidator {
 public:
  /// Size (and reset) the scratch assignment maps. `num_dvfs_levels` is
  /// the declared DVFS level-table size (0 = no DVFS: every
  /// set_freq_level >= 0 is then a violation).
  void attach(std::size_t num_vcpus, std::size_t num_pcpus,
              std::size_t num_dvfs_levels = 0);

  /// Replay the decision fields of `vcpus` against the pre-apply
  /// assignment (vcpu_pcpu[i] = PCPU held by VCPU i or -1; pcpu_vcpu[p] =
  /// VCPU on PCPU p or -1) in the framework's apply order. Returns the
  /// first violation, or nullopt when the decision set is contract-clean.
  /// Replays on scratch copies, so the caller's maps are left as given.
  std::optional<ScheduleViolation> validate(
      std::span<const VCPU_host_external> vcpus,
      std::span<const int> vcpu_pcpu, std::span<const int> pcpu_vcpu);

  /// The replay validate() runs, on the caller's own maps, which it
  /// consumes: on return they hold the assignment after the decisions
  /// replayed (up to the first violation, if one is returned). The
  /// per-tick bridge replays on the assignment it recorded this tick,
  /// so it copies nothing.
  static std::optional<ScheduleViolation> replay(
      std::span<const VCPU_host_external> vcpus, std::span<int> vcpu_pcpu,
      std::span<int> pcpu_vcpu);

  /// Check the PCPU-side frequency decisions: every set_freq_level must
  /// be -1 (keep) or a declared level index. Returns the first violation
  /// or nullopt. Separate from validate() so non-DVFS callers pay
  /// nothing.
  std::optional<ScheduleViolation> validate_freq(
      std::span<const PCPU_external> pcpus) const;

 private:
  std::vector<int> scratch_vcpu_;  ///< validate()'s vcpu -> held pcpu
  std::vector<int> scratch_pcpu_;  ///< validate()'s pcpu -> owning vcpu
  std::size_t num_dvfs_levels_ = 0;
};

}  // namespace vcpusim::vm
