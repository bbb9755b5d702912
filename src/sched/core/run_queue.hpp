// Allocation-free FIFO run queue (policy layer of the scheduling stack).
//
// A fixed-capacity ring of entity ids (VCPUs or VMs), sized once in
// Scheduler::on_attach. Every operation the shipped algorithms perform
// on their queues — rotate, first-fit scan, remove-from-middle — runs
// without touching the heap, which is what keeps the per-tick hot path
// allocation-free (docs/SCHEDULING.md).
//
// The rotation idiom replaces the seed's "build a still_waiting deque
// and swap" pattern: pop exactly size() entries off the front, granting
// some and pushing the rest back. Relative order of the kept entries is
// preserved, and a full rotation with no grants is the identity.
// rotate() does the push-back half for a run of entries in one call.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace vcpusim::sched::core {

class RunQueue {
 public:
  /// Size the ring for at most `capacity` distinct entities and clear it.
  void attach(std::size_t capacity) {
    data_.assign(capacity, -1);
    head_ = 0;
    size_ = 0;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  int front() const {
    assert(size_ > 0);
    return data_[head_];
  }

  /// The k-th entry from the front (0 = front).
  int at(std::size_t k) const {
    assert(k < size_);
    return data_[wrap(head_ + k)];
  }

  void push_back(int id) {
    assert(size_ < data_.size());
    data_[wrap(head_ + size_)] = id;
    ++size_;
  }

  int pop_front() {
    assert(size_ > 0);
    const int id = data_[head_];
    head_ = wrap(head_ + 1);
    --size_;
    return id;
  }

  /// Remove the first occurrence of `id`, preserving the order of the
  /// remaining entries. No-op if absent.
  void remove(int id) {
    for (std::size_t k = 0; k < size_; ++k) {
      if (data_[wrap(head_ + k)] != id) continue;
      for (std::size_t j = k; j + 1 < size_; ++j) {
        data_[wrap(head_ + j)] = data_[wrap(head_ + j + 1)];
      }
      --size_;
      return;
    }
  }

  /// Move the first `k` entries to the back in order, dropping those for
  /// which `drop(id)` is true: what popping `k` entries and pushing the
  /// kept ones back does, in one pass without per-entry bookkeeping.
  /// Each write lands on a slot already read or outside the queue, so
  /// the copy runs in place.
  template <class Drop>
  void rotate(std::size_t k, Drop drop) {
    assert(k <= size_);
    std::size_t from = head_;
    std::size_t to = wrap(head_ + size_);
    std::size_t kept = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const int id = data_[from];
      if (++from == data_.size()) from = 0;
      data_[to] = id;
      const bool keep = !drop(id);
      kept += static_cast<std::size_t>(keep);
      to += static_cast<std::size_t>(keep);
      if (to == data_.size()) to = 0;
    }
    head_ = from;
    size_ -= k - kept;
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Map a position in [0, 2 * capacity) into the ring: every caller
  /// adds to head_ (< capacity) an offset of at most size_ (<= capacity).
  std::size_t wrap(std::size_t k) const noexcept {
    return k >= data_.size() ? k - data_.size() : k;
  }

  std::vector<int> data_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vcpusim::sched::core
