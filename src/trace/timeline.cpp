#include "trace/timeline.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace vcpusim::trace {

TimelineRecorder::TimelineRecorder(const vm::VirtualSystem& system,
                                   std::size_t max_ticks)
    : san::TraceSink(san::kLiveRecorderCategories),
      system_(&system),
      clock_(system.scheduler_places.clock),
      max_ticks_(max_ticks),
      num_vcpus_(system.num_vcpus()) {
  if (clock_ == nullptr) {
    throw std::invalid_argument(
        "TimelineRecorder: system has no scheduler clock");
  }
  for (const auto& binding : system.vcpus) {
    labels_.push_back("VM" + std::to_string(binding.vm_id + 1) + "." +
                      std::to_string(binding.vcpu_index_in_vm + 1));
  }
}

void TimelineRecorder::on_event(const san::TraceEvent& event) {
  if (event.category == san::TraceCategory::kMarker) {
    san::throw_replayed_stream("TimelineRecorder");
  }
  if (event.name != clock_->name()) return;
  std::vector<char> row(static_cast<std::size_t>(num_vcpus_));
  std::vector<int> pcpu_row(static_cast<std::size_t>(num_vcpus_));
  for (int v = 0; v < num_vcpus_; ++v) {
    const auto& binding = system_->vcpus[static_cast<std::size_t>(v)];
    const auto& slot = binding.slot->get();
    const auto& host =
        system_->scheduler_places.hosts[static_cast<std::size_t>(v)]->get();
    TickState s = TickState::kInactive;
    if (host.assigned_pcpu >= 0) {
      if (slot.status == vm::VcpuStatus::kBusy) {
        s = slot.spinning ? TickState::kSpinning : TickState::kBusy;
      } else {
        s = TickState::kReady;
      }
    }
    row[static_cast<std::size_t>(v)] = static_cast<char>(s);
    pcpu_row[static_cast<std::size_t>(v)] = host.assigned_pcpu;
  }
  if (max_ticks_ != 0 && states_.size() == max_ticks_) {
    states_.erase(states_.begin());
    pcpus_.erase(pcpus_.begin());
  }
  states_.push_back(std::move(row));
  pcpus_.push_back(std::move(pcpu_row));
}

TickState TimelineRecorder::state(std::size_t tick, int vcpu) const {
  return static_cast<TickState>(
      states_.at(tick).at(static_cast<std::size_t>(vcpu)));
}

int TimelineRecorder::pcpu(std::size_t tick, int vcpu) const {
  return pcpus_.at(tick).at(static_cast<std::size_t>(vcpu));
}

double TimelineRecorder::fraction(int vcpu, TickState s) const {
  if (states_.empty()) return 0.0;
  std::size_t hits = 0;
  for (const auto& row : states_) {
    if (row[static_cast<std::size_t>(vcpu)] == static_cast<char>(s)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(states_.size());
}

std::string TimelineRecorder::render(std::size_t width) const {
  std::ostringstream os;
  const std::size_t shown = std::min(width, states_.size());
  const std::size_t start = states_.size() - shown;
  std::size_t label_width = 0;
  for (const auto& l : labels_) label_width = std::max(label_width, l.size());
  for (int v = 0; v < num_vcpus_; ++v) {
    const auto& label = labels_[static_cast<std::size_t>(v)];
    os << label << std::string(label_width - label.size(), ' ') << " |";
    for (std::size_t t = start; t < states_.size(); ++t) {
      os << states_[t][static_cast<std::size_t>(v)];
    }
    os << "|\n";
  }
  os << std::string(label_width, ' ') << "  ('#' busy, '~' spinning, "
     << "'.' ready-idle, ' ' inactive; last " << shown << " ticks)\n";
  return os.str();
}

}  // namespace vcpusim::trace
