#include "trace/latency.hpp"

#include <sstream>
#include <stdexcept>

namespace vcpusim::trace {

BarrierLatencyAnalyzer::BarrierLatencyAnalyzer(const vm::VirtualSystem& system)
    : san::TraceSink(san::kLiveRecorderCategories),
      system_(&system),
      clock_(system.scheduler_places.clock) {
  if (clock_ == nullptr) {
    throw std::invalid_argument(
        "BarrierLatencyAnalyzer: system has no scheduler clock");
  }
  vms_.resize(system.vms.size());
}

void BarrierLatencyAnalyzer::on_event(const san::TraceEvent& event) {
  if (event.category == san::TraceCategory::kMarker) {
    san::throw_replayed_stream("BarrierLatencyAnalyzer");
  }
  if (event.name != clock_->name()) return;
  const san::Time now = event.time;
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    const bool blocked_now = system_->vms[v].places.blocked->get() != 0;
    auto& state = vms_[v];
    if (blocked_now && !state.blocked) {
      state.blocked = true;
      state.blocked_since = now;
    } else if (!blocked_now && state.blocked) {
      state.blocked = false;
      const double duration = now - state.blocked_since;
      state.episodes.push_back(duration);
      state.summary.add(duration);
      state.p95.add(duration);
    }
  }
}

const std::vector<double>& BarrierLatencyAnalyzer::episodes(int vm_id) const {
  return vms_.at(static_cast<std::size_t>(vm_id)).episodes;
}

const stats::Welford& BarrierLatencyAnalyzer::summary(int vm_id) const {
  return vms_.at(static_cast<std::size_t>(vm_id)).summary;
}

double BarrierLatencyAnalyzer::p95(int vm_id) const {
  return vms_.at(static_cast<std::size_t>(vm_id)).p95.value();
}

stats::Welford BarrierLatencyAnalyzer::overall() const {
  stats::Welford all;
  for (const auto& vm : vms_) all.merge(vm.summary);
  return all;
}

std::string BarrierLatencyAnalyzer::report() const {
  std::ostringstream os;
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    const auto& s = vms_[v].summary;
    os << system_->vms[v].name << ": " << s.count() << " barriers";
    if (s.count() > 0) {
      os << ", mean " << s.mean() << " ticks, p95 " << vms_[v].p95.value()
         << ", max " << s.max();
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace vcpusim::trace
