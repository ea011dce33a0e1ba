#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/bitutil.hpp"
#include "noc/butterfly.hpp"
#include "sim/engine.hpp"

namespace mempool {
namespace {

class CollectSink final : public PacketSink {
 public:
  bool can_accept() const override { return true; }
  void push(const Packet& p) override { got.push_back(p); }
  std::vector<Packet> got;
};

Packet to_tile(uint16_t dst, uint16_t src = 0) {
  Packet p;
  p.dst_tile = dst;
  p.src = src;
  return p;
}

RouteFn by_dst() {
  return [](const Packet& p) { return static_cast<unsigned>(p.dst_tile); };
}

std::vector<BufferMode> comb(unsigned layers) {
  return std::vector<BufferMode>(layers, BufferMode::kCombinational);
}

class ButterflyAllPairs : public ::testing::TestWithParam<unsigned> {};

TEST_P(ButterflyAllPairs, EveryPairDelivered) {
  const unsigned n = GetParam();
  const unsigned layers = log2_exact(n) / 2;
  for (unsigned src = 0; src < n; ++src) {
    ButterflyNet net("bf", n, comb(layers), by_dst());
    std::vector<CollectSink> sinks(n);
    for (unsigned i = 0; i < n; ++i) net.connect_output(i, &sinks[i]);
    for (unsigned dst = 0; dst < n; ++dst) {
      net.input(src)->push(to_tile(static_cast<uint16_t>(dst)));
      net.evaluate(0);  // fully combinational: single-cycle traversal
      ASSERT_EQ(sinks[dst].got.size(), 1u)
          << "src " << src << " -> dst " << dst;
      for (unsigned o = 0; o < n; ++o) {
        if (o != dst) {
          ASSERT_TRUE(sinks[o].got.empty());
        }
      }
      sinks[dst].got.clear();
    }
    EXPECT_TRUE(net.idle());
  }
}

// 256 endpoints covers the multi-word occupancy/arbitration masks (the
// largest butterfly ClusterConfig::validate() admits).
INSTANTIATE_TEST_SUITE_P(Sizes, ButterflyAllPairs,
                         ::testing::Values(4u, 16u, 64u, 256u));

TEST(Butterfly, PermutationTrafficAllDeliveredConcurrently) {
  // The identity permutation is conflict-free in an omega network.
  const unsigned n = 16;
  ButterflyNet net("bf", n, comb(2), by_dst());
  std::vector<CollectSink> sinks(n);
  for (unsigned i = 0; i < n; ++i) net.connect_output(i, &sinks[i]);
  for (unsigned i = 0; i < n; ++i) {
    net.input(i)->push(to_tile(static_cast<uint16_t>(i), static_cast<uint16_t>(i)));
  }
  net.evaluate(0);
  for (unsigned i = 0; i < n; ++i) {
    ASSERT_EQ(sinks[i].got.size(), 1u);
    EXPECT_EQ(sinks[i].got[0].src, i);
  }
}

TEST(Butterfly, RegisteredLayersAddCycles) {
  const unsigned n = 16;
  Engine engine;
  ButterflyNet net("bf", n, {BufferMode::kRegistered, BufferMode::kRegistered},
                   by_dst());
  net.register_clocked(engine);
  CollectSink sink;
  for (unsigned i = 0; i < n; ++i) net.connect_output(i, &sink);
  net.input(3)->push(to_tile(9));
  net.evaluate(0);
  EXPECT_TRUE(sink.got.empty());
  engine.step();  // commit
  net.evaluate(1);
  EXPECT_TRUE(sink.got.empty()) << "second registered layer holds it";
  engine.step();
  net.evaluate(2);
  EXPECT_EQ(sink.got.size(), 1u) << "delivered after two register stages";
}

TEST(Butterfly, HotspotSerializesOnePerCycle) {
  const unsigned n = 16;
  ButterflyNet net("bf", n, comb(2), by_dst());
  std::vector<CollectSink> sinks(n);
  for (unsigned i = 0; i < n; ++i) net.connect_output(i, &sinks[i]);
  // All 16 inputs target endpoint 5: the final switch output serializes.
  for (unsigned i = 0; i < n; ++i) {
    net.input(i)->push(to_tile(5, static_cast<uint16_t>(i)));
  }
  std::size_t prev = 0;
  for (int cycle = 0; cycle < 32 && sinks[5].got.size() < n; ++cycle) {
    net.evaluate(cycle);
    ASSERT_LE(sinks[5].got.size() - prev, 1u) << "at most one per cycle";
    prev = sinks[5].got.size();
  }
  EXPECT_EQ(sinks[5].got.size(), n);
  EXPECT_EQ(net.blocked() > 0, true);
}

TEST(Butterfly, RoundRobinWithinOneSwitch) {
  // The shuffle wires lines 0, 4, 8 and 12 of a 16-endpoint butterfly to
  // inputs 0..3 of layer-0 switch 0. All of them target endpoint 5, so they
  // contend for one output of that switch. Lines 4, 8 and 12 stay backlogged;
  // line 0 sends a single packet that arrives at cycle 2. The output grants
  // the first requesting input at or after the one it granted last: the late
  // arrival waits its turn, and the pointer wraps past the empty input.
  const unsigned n = 16;
  ButterflyNet net("bf", n, comb(2), by_dst());
  std::vector<CollectSink> sinks(n);
  for (unsigned i = 0; i < n; ++i) net.connect_output(i, &sinks[i]);
  const std::vector<uint16_t> winners = {4, 8, 12, 0, 4, 8, 12, 4};
  for (std::size_t cycle = 0; cycle < winners.size(); ++cycle) {
    for (const unsigned line : {4u, 8u, 12u}) {
      if (net.input(line)->can_accept()) {
        net.input(line)->push(to_tile(5, static_cast<uint16_t>(line)));
      }
    }
    if (cycle == 2) net.input(0)->push(to_tile(5, 0));
    net.evaluate(cycle);
    ASSERT_EQ(sinks[5].got.size(), cycle + 1) << "one grant per cycle";
    EXPECT_EQ(sinks[5].got.back().src, winners[cycle]) << "cycle " << cycle;
  }
  // Every loser waits: two per cycle with three contenders, three with four.
  EXPECT_EQ(net.blocked(), 18u);
}

TEST(Butterfly, TraversalCountersPerLayer) {
  const unsigned n = 16;
  ButterflyNet net("bf", n, comb(2), by_dst());
  std::vector<CollectSink> sinks(n);
  for (unsigned i = 0; i < n; ++i) net.connect_output(i, &sinks[i]);
  net.input(0)->push(to_tile(15));
  net.evaluate(0);
  EXPECT_EQ(net.layer_traversals(0), 1u);
  EXPECT_EQ(net.layer_traversals(1), 1u);
  EXPECT_EQ(net.traversals(), 2u);
}

TEST(Butterfly, InvalidConstructionThrows) {
  // 8 endpoints is not a power of radix 4.
  EXPECT_THROW(ButterflyNet("bf", 8, comb(1), by_dst()), CheckError);
  // Wrong layer-mode count.
  EXPECT_THROW(ButterflyNet("bf", 16, comb(3), by_dst()), CheckError);
}

TEST(Butterfly, SinglePathOblivousRouting) {
  // Deterministic path: the same (src, dst) pair must always use the same
  // switches — verified indirectly: repeated sends keep per-layer traversal
  // deltas identical.
  const unsigned n = 64;
  ButterflyNet net("bf", n, comb(3), by_dst());
  std::vector<CollectSink> sinks(n);
  for (unsigned i = 0; i < n; ++i) net.connect_output(i, &sinks[i]);
  net.input(17)->push(to_tile(42));
  net.evaluate(0);
  net.input(17)->push(to_tile(42));
  net.evaluate(1);
  EXPECT_EQ(sinks[42].got.size(), 2u);
  EXPECT_EQ(net.layer_traversals(0), 2u);
  EXPECT_EQ(net.layer_traversals(1), 2u);
  EXPECT_EQ(net.layer_traversals(2), 2u);
}

}  // namespace
}  // namespace mempool
