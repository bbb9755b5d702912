// Idle-PCPU cursor (policy layer): the ids handed out by an assignment
// pass, in a fixed order — the PCPUs idle at snapshot time in ascending
// id order, followed by any PCPUs the algorithm itself freed this tick
// (co-stops, yields, preemptions), in the order they were freed. This is
// exactly the `idle_pcpus() + push_back(freed)` consumption order of the
// seed algorithms, without the per-tick vector allocation.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "vm/sched_interface.hpp"

namespace vcpusim::sched::core {

class IdlePcpus {
 public:
  /// Size the cursor for `num_pcpus` physical CPUs.
  void attach(std::size_t num_pcpus) {
    ids_.assign(num_pcpus, -1);
    size_ = 0;
    next_ = 0;
  }

  /// Collect the currently idle PCPUs (ascending id) and rewind. Every
  /// id is written and the count advances by the predicate, so the loop
  /// has no branch on a PCPU's state to mispredict.
  void reset(std::span<const vm::PCPU_external> pcpus) {
    assert(pcpus.size() <= ids_.size());
    std::size_t n = 0;
    for (const auto& p : pcpus) {
      ids_[n] = p.pcpu_id;
      n += static_cast<std::size_t>(p.state == 0);
    }
    size_ = n;
    next_ = 0;
  }

  /// Append a PCPU the algorithm freed this tick (consumable this tick).
  void push(int pcpu) {
    assert(size_ < ids_.size());
    ids_[size_++] = pcpu;
  }

  bool available() const noexcept { return next_ < size_; }
  std::size_t remaining() const noexcept { return size_ - next_; }

  /// Consume and return the next PCPU id.
  int take() {
    assert(available());
    return ids_[next_++];
  }

 private:
  std::vector<int> ids_;  ///< one slot per PCPU; the first size_ are live
  std::size_t size_ = 0;
  std::size_t next_ = 0;
};

}  // namespace vcpusim::sched::core
