// Synchronization-latency analysis: measure each barrier episode — the
// interval a VM spends Blocked waiting for its outstanding jobs — and
// summarize the distribution. Quantifies the effect the paper's VCPU
// Utilization metric only shows indirectly.
#pragma once

#include <string>
#include <vector>

#include "san/trace.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/welford.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::trace {

class BarrierLatencyAnalyzer final : public san::TraceSink {
 public:
  /// Observes `system`'s per-VM Blocked places at every scheduler Clock
  /// tick; attach with Simulator::set_trace (a replayed stream throws
  /// std::logic_error). Must not outlive the system.
  explicit BarrierLatencyAnalyzer(const vm::VirtualSystem& system);

  void on_event(const san::TraceEvent& event) override;

  /// Completed barrier episodes of `vm_id` (ticks spent blocked each).
  const std::vector<double>& episodes(int vm_id) const;

  /// Episode-duration statistics for one VM.
  const stats::Welford& summary(int vm_id) const;

  /// Aggregate over all VMs.
  stats::Welford overall() const;

  /// Streaming P2 estimate of the 95th-percentile episode duration.
  double p95(int vm_id) const;

  /// "VM1: 42 barriers, mean 3.1 ticks, max 11" style report.
  std::string report() const;

 private:
  const vm::VirtualSystem* system_;
  const san::Activity* clock_;
  struct PerVm {
    bool blocked = false;
    san::Time blocked_since = 0;
    std::vector<double> episodes;
    stats::Welford summary;
    stats::P2Quantile p95{0.95};
  };
  std::vector<PerVm> vms_;
};

}  // namespace vcpusim::trace
