// Per-tick VCPU state timelines and their ASCII (Gantt-style) rendering:
// at every scheduler Clock tick, sample each VCPU's state and assigned
// PCPU. Makes scheduling behaviour — gang starts, stacking, lock-holder
// preemption, barrier stalls — directly visible.
#pragma once

#include <string>
#include <vector>

#include "san/trace.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::trace {

/// Sampled state of one VCPU at one tick.
enum class TickState : char {
  kInactive = ' ',  ///< no PCPU
  kReady = '.',     ///< PCPU but no work (idle / barrier-blocked)
  kBusy = '#',      ///< processing
  kSpinning = '~',  ///< spinlock extension: burning the PCPU on a spin
};

class TimelineRecorder final : public san::TraceSink {
 public:
  /// Samples at each firing of `system`'s scheduler Clock; attach with
  /// Simulator::set_trace (a replayed stream throws std::logic_error).
  /// The recorder must not outlive the system. `max_ticks` bounds memory
  /// (0 = all).
  explicit TimelineRecorder(const vm::VirtualSystem& system,
                            std::size_t max_ticks = 0);

  void on_event(const san::TraceEvent& event) override;

  std::size_t ticks() const noexcept { return states_.size(); }
  int num_vcpus() const noexcept { return num_vcpus_; }

  /// State of `vcpu` at sampled tick index `tick`.
  TickState state(std::size_t tick, int vcpu) const;
  /// PCPU assigned to `vcpu` at `tick`, -1 if none.
  int pcpu(std::size_t tick, int vcpu) const;

  /// Fraction of sampled ticks `vcpu` spent in `s`.
  double fraction(int vcpu, TickState s) const;

  /// ASCII Gantt chart: one row per VCPU ("VM2.1 |##..# ~~##|"),
  /// `width` columns covering the most recent ticks.
  std::string render(std::size_t width = 80) const;

 private:
  const vm::VirtualSystem* system_;
  const san::Activity* clock_;
  std::size_t max_ticks_;
  int num_vcpus_;
  std::vector<std::string> labels_;
  std::vector<std::vector<char>> states_;  ///< [tick][vcpu] as TickState char
  std::vector<std::vector<int>> pcpus_;    ///< [tick][vcpu]
};

}  // namespace vcpusim::trace
