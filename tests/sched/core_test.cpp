// sched::core primitives: RunSet membership and schedule-in order, and
// RunQueue rotation and removal across the ring's wrap point.
#include "sched/core/core.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace vcpusim::sched::core {
namespace {

std::vector<int> order_of(const RunSet& set) {
  return {set.order().begin(), set.order().end()};
}

std::vector<int> contents(const RunQueue& queue) {
  std::vector<int> out;
  for (std::size_t k = 0; k < queue.size(); ++k) out.push_back(queue.at(k));
  return out;
}

TEST(CoreRunSet, AddKeepsScheduleInOrderAndMembership) {
  RunSet set;
  set.attach(6);
  EXPECT_TRUE(set.empty());
  for (const int v : {4, 1, 5}) set.add(v);
  EXPECT_EQ(order_of(set), (std::vector<int>{4, 1, 5}));
  for (int v = 0; v < 6; ++v) {
    EXPECT_EQ(set.contains(v), v == 1 || v == 4 || v == 5) << v;
  }
}

TEST(CoreRunSet, RemoveDropsOnlyThatMember) {
  RunSet set;
  set.attach(6);
  for (const int v : {3, 0, 2, 5}) set.add(v);
  set.remove(0);
  EXPECT_EQ(order_of(set), (std::vector<int>{3, 2, 5}));
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.contains(2));
  set.remove(1);  // not a member: no-op
  EXPECT_EQ(order_of(set), (std::vector<int>{3, 2, 5}));
  set.remove(5);
  set.remove(3);
  EXPECT_EQ(order_of(set), (std::vector<int>{2}));
  set.add(0);  // re-added members go to the back
  EXPECT_EQ(order_of(set), (std::vector<int>{2, 0}));
  EXPECT_TRUE(set.contains(0));
}

TEST(CoreRunSet, ExtractIfReleasesInScheduleInOrder) {
  RunSet set;
  set.attach(8);
  for (const int v : {6, 1, 7, 2, 4}) set.add(v);
  std::vector<int> released;
  set.extract_if([](int v) { return v % 2 == 0; },
                 [&released](int v) { released.push_back(v); });
  EXPECT_EQ(released, (std::vector<int>{6, 2, 4}));
  EXPECT_EQ(order_of(set), (std::vector<int>{1, 7}));
  for (const int v : {6, 2, 4}) EXPECT_FALSE(set.contains(v)) << v;
  for (const int v : {1, 7}) EXPECT_TRUE(set.contains(v)) << v;
  set.add(2);
  EXPECT_EQ(order_of(set), (std::vector<int>{1, 7, 2}));
  EXPECT_TRUE(set.contains(2));
}

TEST(CoreRunSet, AttachClearsAndResizes) {
  RunSet set;
  set.attach(3);
  for (const int v : {0, 1, 2}) set.add(v);
  set.attach(5);
  EXPECT_TRUE(set.empty());
  for (int v = 0; v < 5; ++v) EXPECT_FALSE(set.contains(v)) << v;
  set.add(4);
  EXPECT_EQ(order_of(set), (std::vector<int>{4}));
  EXPECT_TRUE(set.contains(4));
}

/// Rotate `head` entries from the front to the back, so the next pushes
/// and removals straddle the end of the ring's storage.
void advance_head(RunQueue& queue, std::size_t head) {
  for (std::size_t k = 0; k < head; ++k) {
    queue.push_back(-2);
    EXPECT_EQ(queue.pop_front(), -2);
  }
}

TEST(CoreRunQueue, FullRotationIsIdentityAtEveryOffset) {
  for (const std::size_t capacity : {1u, 2u, 5u}) {
    for (std::size_t head = 0; head < capacity; ++head) {
      for (std::size_t fill = 1; fill <= capacity; ++fill) {
        SCOPED_TRACE("capacity=" + std::to_string(capacity) + " head=" +
                     std::to_string(head) + " fill=" + std::to_string(fill));
        RunQueue queue;
        queue.attach(capacity);
        advance_head(queue, head);
        std::vector<int> expected;
        for (std::size_t k = 0; k < fill; ++k) {
          queue.push_back(static_cast<int>(k));
          expected.push_back(static_cast<int>(k));
        }
        EXPECT_EQ(queue.front(), 0);
        for (std::size_t k = queue.size(); k > 0; --k) {
          queue.push_back(queue.pop_front());
        }
        EXPECT_EQ(contents(queue), expected);
      }
    }
  }
}

TEST(CoreRunQueue, RemoveAcrossWrapPreservesOrder) {
  for (const std::size_t capacity : {1u, 2u, 5u}) {
    for (std::size_t head = 0; head < capacity; ++head) {
      for (std::size_t victim = 0; victim < capacity; ++victim) {
        SCOPED_TRACE("capacity=" + std::to_string(capacity) + " head=" +
                     std::to_string(head) + " victim=" +
                     std::to_string(victim));
        RunQueue queue;
        queue.attach(capacity);
        advance_head(queue, head);
        std::vector<int> expected;
        for (std::size_t k = 0; k < capacity; ++k) {  // a full ring
          queue.push_back(static_cast<int>(10 + k));
          if (k != victim) expected.push_back(static_cast<int>(10 + k));
        }
        ASSERT_EQ(queue.size(), capacity);
        queue.remove(static_cast<int>(10 + victim));
        EXPECT_EQ(contents(queue), expected);
        queue.remove(99);  // absent: no-op
        EXPECT_EQ(contents(queue), expected);
        // The freed slot is reusable and the order still holds.
        queue.push_back(42);
        expected.push_back(42);
        EXPECT_EQ(contents(queue), expected);
        std::vector<int> popped;
        while (!queue.empty()) popped.push_back(queue.pop_front());
        EXPECT_EQ(popped, expected);
      }
    }
  }
}

TEST(CoreRunQueue, RotationWithGrantsKeepsWaitersInOrder) {
  RunQueue queue;
  queue.attach(5);
  advance_head(queue, 3);
  for (const int v : {0, 1, 2, 3, 4}) queue.push_back(v);
  // One rotation that grants the odd ids and pushes the rest back.
  std::vector<int> granted;
  for (std::size_t k = queue.size(); k > 0; --k) {
    const int v = queue.pop_front();
    if (v % 2 != 0) {
      granted.push_back(v);
    } else {
      queue.push_back(v);
    }
  }
  EXPECT_EQ(granted, (std::vector<int>{1, 3}));
  EXPECT_EQ(contents(queue), (std::vector<int>{0, 2, 4}));
  queue.clear();
  EXPECT_TRUE(queue.empty());
}

TEST(CoreRunQueue, RotateMatchesPopAndPushBackAcrossTheWrap) {
  for (const std::size_t capacity : {1u, 2u, 5u}) {
    for (std::size_t head = 0; head < capacity; ++head) {
      for (std::size_t fill = 0; fill <= capacity; ++fill) {
        for (std::size_t k = 0; k <= fill; ++k) {
          // Every subset of the k rotated entries as the dropped set.
          for (unsigned drops = 0; drops < (1U << k); ++drops) {
            SCOPED_TRACE("capacity=" + std::to_string(capacity) + " head=" +
                         std::to_string(head) + " fill=" +
                         std::to_string(fill) + " k=" + std::to_string(k) +
                         " drops=" + std::to_string(drops));
            const auto dropped = [drops](int id) {
              return id < 10 && ((drops >> static_cast<unsigned>(id)) & 1U);
            };
            RunQueue queue;
            RunQueue reference;
            queue.attach(capacity);
            reference.attach(capacity);
            advance_head(queue, head);
            advance_head(reference, head);
            for (std::size_t j = 0; j < fill; ++j) {
              // The first k entries are 0..k-1, the rest 10 and up.
              const int id = static_cast<int>(j < k ? j : 10 + j);
              queue.push_back(id);
              reference.push_back(id);
            }
            for (std::size_t j = 0; j < k; ++j) {
              const int id = reference.pop_front();
              if (!dropped(id)) reference.push_back(id);
            }
            queue.rotate(k, dropped);
            ASSERT_EQ(contents(queue), contents(reference));
            // The ring stays consistent: it fills to capacity in order.
            std::vector<int> expected = contents(reference);
            for (int id = 100; queue.size() < capacity; ++id) {
              queue.push_back(id);
              expected.push_back(id);
            }
            std::vector<int> popped;
            while (!queue.empty()) popped.push_back(queue.pop_front());
            EXPECT_EQ(popped, expected);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace vcpusim::sched::core
