// Ordered set of currently running entities (policy layer).
//
// Kept in schedule-in order: re-queuing released entities in this order
// — not in id order — is what keeps round-robin rotation fair when
// several timeslices expire at the same tick (simultaneous expiry is the
// common case, since a batch scheduled together expires together).
//
// Generalizes the old sched::detail::RunSet with a fixed capacity and an
// allocation-free extract_if (the scratch vector is pre-sized at
// attach() and swapped, never grown). Members are ids in [0, capacity);
// a flag per id, sized at attach(), makes contains() O(1) and lets
// remove() skip the scan for a non-member.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace vcpusim::sched::core {

class RunSet {
 public:
  /// Reserve room for at most `capacity` distinct members and clear.
  void attach(std::size_t capacity) {
    order_.clear();
    order_.reserve(capacity);
    keep_.clear();
    keep_.reserve(capacity);
    member_.assign(capacity, 0);
  }

  void add(int id) {
    assert(order_.size() < order_.capacity());
    assert(!contains(id));
    order_.push_back(id);
    member_[static_cast<std::size_t>(id)] = 1;
  }

  bool contains(int id) const {
    assert(static_cast<std::size_t>(id) < member_.size());
    return member_[static_cast<std::size_t>(id)] != 0;
  }

  void remove(int id) {
    if (!contains(id)) return;
    member_[static_cast<std::size_t>(id)] = 0;
    order_.erase(std::find(order_.begin(), order_.end(), id));
  }

  /// Remove every member for which `released` holds, invoking
  /// `out(member)` for each in schedule-in order.
  template <class Pred, class Sink>
  void extract_if(Pred released, Sink out) {
    keep_.clear();
    for (const int v : order_) {
      if (released(v)) {
        member_[static_cast<std::size_t>(v)] = 0;
        out(v);
      } else {
        keep_.push_back(v);
      }
    }
    std::swap(order_, keep_);
  }

  std::span<const int> order() const noexcept { return order_; }
  bool empty() const noexcept { return order_.empty(); }

 private:
  std::vector<int> order_;
  std::vector<int> keep_;
  std::vector<char> member_;  ///< member_[id] != 0 iff id is in order_
};

}  // namespace vcpusim::sched::core
