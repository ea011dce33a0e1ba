// Fabric-level contract properties that the whole reproduction rests on:
// conservation (no packet lost or duplicated), point-to-point ordering, and
// throughput bounds — swept across topologies and loads with probe clients.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "helpers.hpp"
#include "mem/imem.hpp"
#include "noc/butterfly.hpp"
#include "noc/monitor.hpp"
#include "traffic/generator.hpp"

namespace mempool {
namespace {

struct GenRig {
  GenRig(const ClusterConfig& cfg, double lambda, uint64_t seed)
      : imem(4096), cluster(cfg, &imem), monitor(0) {
    TrafficConfig tcfg;
    tcfg.lambda = lambda;
    tcfg.seed = seed;
    tcfg.stop_generation_at = 2000;
    for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
      gens.push_back(std::make_unique<TrafficGenerator>(
          "gen" + std::to_string(c), static_cast<uint16_t>(c),
          static_cast<uint16_t>(c / cfg.cores_per_tile), cfg,
          &cluster.layout(), &engine, tcfg, &monitor));
    }
    std::vector<Client*> clients;
    for (auto& g : gens) clients.push_back(g.get());
    cluster.attach_clients(clients);
    cluster.build(engine);
  }

  uint64_t total_generated() const {
    uint64_t g = 0;
    for (const auto& gen : gens) g += gen->generated();
    return g;
  }
  uint64_t total_completed() const {
    uint64_t c = 0;
    for (const auto& gen : gens) c += gen->completed();
    return c;
  }
  uint64_t total_queued() const {
    uint64_t q = 0;
    for (const auto& gen : gens) q += gen->queue_depth();
    return q;
  }

  InstrMem imem;
  Engine engine;
  Cluster cluster;
  LatencyMonitor monitor;
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
};

class FabricConservation
    : public ::testing::TestWithParam<test::PaperFabric> {};

TEST_P(FabricConservation, EveryRequestGetsExactlyOneResponse) {
  const ClusterConfig cfg = ClusterConfig::mini(GetParam().name(), false);
  GenRig rig(cfg, 0.2, 7);
  rig.engine.run(2000);  // generation stops at cycle 2000
  // Drain: run until queues empty, fabric idle, and counts balance.
  for (int i = 0; i < 20000; ++i) {
    if (rig.total_queued() == 0 && rig.cluster.fabric_idle() &&
        rig.total_completed() == rig.total_generated()) {
      break;
    }
    rig.engine.step();
  }
  EXPECT_EQ(rig.total_completed(), rig.total_generated())
      << "lost or duplicated packets";
  EXPECT_TRUE(rig.cluster.fabric_idle());
}

INSTANTIATE_TEST_SUITE_P(Topologies, FabricConservation,
                         ::testing::Values(test::paper_fabric("Top1"),
                                           test::paper_fabric("Top4"),
                                           test::paper_fabric("TopH"),
                                           test::paper_fabric("TopX")),
                         [](const auto& tpinfo) {
                           return std::string(tpinfo.param.name());
                         });

// Point-to-point ordering: a probe that issues N loads to the SAME bank must
// see the responses in issue order (single path + FIFO queues).
class OrderProbe final : public Client {
 public:
  OrderProbe(uint16_t id, uint16_t tile, const MemoryLayout* layout)
      : Client("probe", id, tile), layout_(layout) {}

  void queue_load(uint32_t addr, uint16_t seq) { pending_.push_back({addr, seq}); }

  void deliver(const Packet& p) override { order_seen.push_back(p.tag); }

  void evaluate(uint64_t cycle) override {
    if (next_ < pending_.size()) {
      Packet p;
      p.op = MemOp::kLoad;
      p.src = id_;
      p.src_tile = tile_;
      p.tag = pending_[next_].second;
      p.birth = cycle;
      layout_->route(p, pending_[next_].first);
      if (port_->try_issue(p)) ++next_;
    }
  }

  std::vector<uint16_t> order_seen;

 private:
  const MemoryLayout* layout_;
  std::vector<std::pair<uint32_t, uint16_t>> pending_;
  std::size_t next_ = 0;
};

class FabricOrdering : public ::testing::TestWithParam<test::PaperFabric> {};

TEST_P(FabricOrdering, SameBankResponsesArriveInIssueOrder) {
  const ClusterConfig cfg = ClusterConfig::mini(GetParam().name(), true);
  InstrMem imem(4096);
  Engine engine;
  Cluster cluster(cfg, &imem);
  std::vector<std::unique_ptr<OrderProbe>> probes;
  for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
    probes.push_back(std::make_unique<OrderProbe>(
        static_cast<uint16_t>(c), static_cast<uint16_t>(c / cfg.cores_per_tile),
        &cluster.layout()));
  }
  std::vector<Client*> clients;
  for (auto& p : probes) clients.push_back(p.get());
  cluster.attach_clients(clients);
  cluster.build(engine);

  // Every core fires 16 loads at the same remote word (max contention) plus
  // interleaved loads to its own tile; per-bank order must still hold.
  const uint32_t hot = 9 * cfg.seq_region_bytes;  // tile 9, bank 0
  for (auto& p : probes) {
    for (uint16_t i = 0; i < 16; ++i) p->queue_load(hot, i);
  }
  engine.run(4000);
  for (auto& p : probes) {
    ASSERT_EQ(p->order_seen.size(), 16u);
    for (uint16_t i = 0; i < 16; ++i) {
      ASSERT_EQ(p->order_seen[i], i) << "reordered response";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, FabricOrdering,
                         ::testing::Values(test::paper_fabric("Top1"),
                                           test::paper_fabric("Top4"),
                                           test::paper_fabric("TopH"),
                                           test::paper_fabric("TopX")),
                         [](const auto& tpinfo) {
                           return std::string(tpinfo.param.name());
                         });

TEST(FabricFairness, SaturatedButterflyNeverStarvesAnInput) {
  // All 16 inputs continuously target endpoint 0: the output serializes at
  // one grant per cycle and the per-switch round-robin arbiters must share
  // those grants evenly across every source — no input may starve. (Pins the
  // grant path taking the round-robin winner's own destination; a grant that
  // borrowed another candidate's routing state would skew or strand inputs.)
  const unsigned n = 16;
  ButterflyNet net(
      "bf", n, {BufferMode::kCombinational, BufferMode::kCombinational},
      [](const Packet& p) { return static_cast<unsigned>(p.dst_tile); });
  std::vector<uint64_t> per_src(n, 0);
  class CountSink final : public PacketSink {
   public:
    explicit CountSink(std::vector<uint64_t>* counts) : counts_(counts) {}
    bool can_accept() const override { return true; }
    void push(const Packet& p) override { ++(*counts_)[p.src]; }

   private:
    std::vector<uint64_t>* counts_;
  } hot(&per_src);
  class RejectSink final : public PacketSink {
   public:
    bool can_accept() const override { return false; }
    void push(const Packet&) override { FAIL() << "unexpected delivery"; }
  } cold;
  net.connect_output(0, &hot);
  for (unsigned i = 1; i < n; ++i) net.connect_output(i, &cold);

  const int kCycles = 1600;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (unsigned i = 0; i < n; ++i) {
      if (net.input(i)->can_accept()) {
        Packet p;
        p.dst_tile = 0;
        p.src = static_cast<uint16_t>(i);
        net.input(i)->push(p);
      }
    }
    net.evaluate(cycle);
  }
  const uint64_t total = std::accumulate(per_src.begin(), per_src.end(),
                                         uint64_t{0});
  EXPECT_GE(total, static_cast<uint64_t>(kCycles) - 2)
      << "saturated output must grant ~1/cycle";
  const uint64_t fair_share = total / n;
  const auto [lo, hi] = std::minmax_element(per_src.begin(), per_src.end());
  EXPECT_GT(*lo, 0u) << "an input port starved";
  // Round-robin fairness bound: two-level RR tree keeps every source within
  // a small constant of the fair share.
  EXPECT_GE(*lo + 8, fair_share);
  EXPECT_LE(*hi, fair_share + 8);
}

TEST(FabricThroughput, SingleBankSerializesAtOnePerCycle) {
  // 64 generators all target one bank: accepted throughput is bounded by the
  // bank's single port regardless of topology.
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  InstrMem imem(4096);
  Engine engine;
  Cluster cluster(cfg, &imem);
  std::vector<std::unique_ptr<OrderProbe>> probes;
  for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
    probes.push_back(std::make_unique<OrderProbe>(
        static_cast<uint16_t>(c), static_cast<uint16_t>(c / cfg.cores_per_tile),
        &cluster.layout()));
    for (uint16_t i = 0; i < 8; ++i) {
      probes.back()->queue_load(5 * cfg.seq_region_bytes, i);
    }
  }
  std::vector<Client*> clients;
  for (auto& p : probes) clients.push_back(p.get());
  cluster.attach_clients(clients);
  cluster.build(engine);

  const uint32_t total = cfg.num_cores() * 8;
  uint64_t cycles = 0;
  auto done = [&] {
    for (auto& p : probes) {
      if (p->order_seen.size() < 8) return false;
    }
    return true;
  };
  while (!done() && cycles < 10000) {
    engine.step();
    ++cycles;
  }
  ASSERT_TRUE(done());
  // 512 same-bank loads cannot finish faster than 512 cycles...
  EXPECT_GE(cycles, static_cast<uint64_t>(total));
  // ...and the pipeline should keep the bank nearly always busy.
  EXPECT_LE(cycles, static_cast<uint64_t>(total) + 100);
}

TEST(FabricThroughput, DisjointTrafficScalesLinearly) {
  // Each core loads only from its own tile: no shared resource, so the whole
  // cluster sustains ~1 load/core/cycle.
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  InstrMem imem(4096);
  Engine engine;
  Cluster cluster(cfg, &imem);
  std::vector<std::unique_ptr<OrderProbe>> probes;
  for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
    const uint32_t t = c / cfg.cores_per_tile;
    probes.push_back(std::make_unique<OrderProbe>(
        static_cast<uint16_t>(c), static_cast<uint16_t>(t),
        &cluster.layout()));
    for (uint16_t i = 0; i < 32; ++i) {
      // Distinct bank per core within the tile: bank = 4*(c%4) + i%4.
      const uint32_t addr = t * cfg.seq_region_bytes +
                            4 * (4 * (c % 4) + i % 4) + 64 * (i / 4);
      probes.back()->queue_load(addr, i);
    }
  }
  std::vector<Client*> clients;
  for (auto& p : probes) clients.push_back(p.get());
  cluster.attach_clients(clients);
  cluster.build(engine);

  uint64_t cycles = 0;
  auto done = [&] {
    for (auto& p : probes) {
      if (p->order_seen.size() < 32) return false;
    }
    return true;
  };
  while (!done() && cycles < 1000) {
    engine.step();
    ++cycles;
  }
  ASSERT_TRUE(done());
  EXPECT_LE(cycles, 64u) << "local loads should pipeline at ~1/cycle";
}

}  // namespace
}  // namespace mempool
