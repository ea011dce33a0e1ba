#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "sim/component.hpp"
#include "sim/elastic_buffer.hpp"
#include "sim/engine.hpp"
#include "sim/packet.hpp"

namespace mempool {
namespace {

// Regression (would compile before the fix): ElasticBuffer used to default
// its move constructor/assignment while the engine's commit list, BufferSink
// adapters, and the wake plumbing hold raw pointers to registered buffers —
// a post-registration move (e.g. a vector reallocation) left the engine
// committing a moved-from shell. The buffer is now pinned; owners use deque
// or reserve-before-emplace containers.
static_assert(!std::is_move_constructible_v<ElasticBuffer<int>>,
              "ElasticBuffer must be pinned: raw pointers are registered");
static_assert(!std::is_move_assignable_v<ElasticBuffer<int>>,
              "ElasticBuffer must be pinned: raw pointers are registered");
static_assert(!std::is_copy_constructible_v<ElasticBuffer<Packet>>);
static_assert(!std::is_copy_assignable_v<ElasticBuffer<Packet>>);

TEST(ElasticBuffer, CombinationalPushIsVisibleSameCycle) {
  ElasticBuffer<int> b(BufferMode::kCombinational, 2);
  EXPECT_TRUE(b.empty());
  b.push(42);
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.front(), 42);
  EXPECT_EQ(b.pop(), 42);
  EXPECT_TRUE(b.empty());
}

TEST(ElasticBuffer, RegisteredPushVisibleOnlyAfterCommit) {
  ElasticBuffer<int> b(BufferMode::kRegistered, 2);
  b.push(7);
  EXPECT_TRUE(b.empty()) << "staged item must not be visible pre-commit";
  EXPECT_EQ(b.size(), 1u) << "but it occupies capacity";
  b.commit();
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.pop(), 7);
}

TEST(ElasticBuffer, CapacityBackpressure) {
  ElasticBuffer<int> b(BufferMode::kCombinational, 2);
  EXPECT_TRUE(b.can_accept());
  b.push(1);
  EXPECT_TRUE(b.can_accept());
  b.push(2);
  EXPECT_FALSE(b.can_accept());
  EXPECT_THROW(b.push(3), CheckError);
  b.pop();
  EXPECT_TRUE(b.can_accept());
}

TEST(ElasticBuffer, RegisteredCountsStagedTowardCapacity) {
  ElasticBuffer<int> b(BufferMode::kRegistered, 2);
  b.push(1);
  b.commit();
  b.push(2);                      // staged
  EXPECT_FALSE(b.can_accept());   // 1 committed + 1 staged = full
  b.commit();
  EXPECT_FALSE(b.can_accept());
  b.pop();
  EXPECT_TRUE(b.can_accept());
}

TEST(ElasticBuffer, RegisteredSecondPushSameCycleIsError) {
  ElasticBuffer<int> b(BufferMode::kRegistered, 4);
  b.push(1);
  EXPECT_THROW(b.push(2), CheckError);
}

TEST(ElasticBuffer, FifoOrder) {
  ElasticBuffer<int> b(BufferMode::kCombinational, 8);
  for (int i = 0; i < 5; ++i) b.push(i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(b.pop(), i);
}

TEST(ElasticBuffer, UnboundedCapacityZero) {
  ElasticBuffer<int> b(BufferMode::kCombinational, 0);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(b.can_accept());
    b.push(i);
  }
  EXPECT_EQ(b.size(), 10000u);
}

TEST(ElasticBuffer, UnboundedGrowthIsAmortizedDoubling) {
  // The unbounded fallback must not touch the allocator per push burst: the
  // contiguous ring doubles, so N pushes cost O(log N) growth events — and a
  // drain-and-refill burst of the same depth costs zero.
  ElasticBuffer<int> b(BufferMode::kCombinational, 0);
  EXPECT_EQ(b.storage_reallocs(), 0u);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) b.push(i);
  uint64_t expected = 0;
  for (uint32_t cap = ElasticBuffer<int>::kOverflowInitial; cap < kN; cap <<= 1)
    ++expected;
  EXPECT_EQ(b.storage_reallocs(), expected);  // exactly log2(N/initial) grows
  for (int i = 0; i < kN; ++i) ASSERT_EQ(b.pop(), i);
  // Capacity is retained across a full drain: the next burst is free.
  for (int i = 0; i < kN; ++i) b.push(i);
  EXPECT_EQ(b.storage_reallocs(), expected);
  for (int i = 0; i < kN; ++i) ASSERT_EQ(b.pop(), i);
}

TEST(ElasticBuffer, BoundedDeepBufferNeverReallocates) {
  // Deeper-than-inline but bounded: the ring is sized once at construction.
  ElasticBuffer<int> b(BufferMode::kCombinational, 37);
  for (int round = 0; round < 50; ++round) {
    int pushed = 0;
    while (b.can_accept()) b.push(pushed++);
    EXPECT_EQ(pushed, 37);
    for (int i = 0; i < pushed; ++i) ASSERT_EQ(b.pop(), i);
  }
  EXPECT_EQ(b.storage_reallocs(), 0u);
}

TEST(ElasticBuffer, CombinationalPushWakesConsumer) {
  ElasticBuffer<int> b(BufferMode::kCombinational, 2);
  Wakeable consumer;
  consumer.sleep();
  b.set_consumer(&consumer);
  b.push(1);
  EXPECT_TRUE(consumer.awake()) << "visible item must wake the consumer";
}

TEST(ElasticBuffer, RegisteredPushWakesConsumerOnlyAtCommit) {
  ElasticBuffer<int> b(BufferMode::kRegistered, 2);
  Wakeable consumer;
  consumer.sleep();
  b.set_consumer(&consumer);
  ShardLane lane;
  lane.outboxes.resize(1);
  lane.outboxes[0].reserve(1);
  b.bind_commit_lane(&lane);
  b.push(7);
  EXPECT_FALSE(consumer.awake()) << "staged item is not visible yet";
  EXPECT_EQ(lane.outboxes[0], std::vector<Clocked*>{&b})
      << "staged push lands in its home lane's own outbox exactly once";
  b.commit();
  EXPECT_TRUE(consumer.awake()) << "commit makes the item visible";
  EXPECT_EQ(b.pop(), 7);
}

TEST(ElasticBuffer, SustainedFullThroughputAcrossRegisterBoundary) {
  // Capacity-2 registered buffer must sustain one item/cycle: producer pushes
  // before the consumer pops within a cycle (the simulator's request-path
  // evaluation order), like an RTL skid buffer.
  ElasticBuffer<int> b(BufferMode::kRegistered, 2);
  int produced = 0, consumed = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    if (b.can_accept()) {
      b.push(produced++);
    }
    if (!b.empty()) {
      EXPECT_EQ(b.pop(), consumed++);
    }
    b.commit();
  }
  // After warmup, exactly one item per cycle.
  EXPECT_GE(consumed, 98);
}

}  // namespace
}  // namespace mempool
