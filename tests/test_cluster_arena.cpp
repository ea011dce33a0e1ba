// Shard-contiguous arena layout (common/arena.hpp + Cluster construction):
// every component a shard evaluates — tiles with their crossbars and banks,
// the networks the fabric plugin adds, bridges, memory engines — and all
// their ElasticBuffer ring storage is carved out of that shard's arena.
// These tests pin the structural properties: one arena per fabric shard,
// every arena non-trivially populated, steady-state simulation free of
// per-cycle heap traffic, and the layout invisible to simulated behavior.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/system.hpp"
#include "mem/imem.hpp"
#include "noc/fabric.hpp"
#include "noc/monitor.hpp"
#include "sim/engine.hpp"
#include "traffic/experiment.hpp"
#include "traffic/generator.hpp"

namespace mempool {
namespace {

/// A generator-driven cluster, built and ready to step.
struct ArenaTraffic {
  InstrMem imem{4096};
  Engine engine;
  std::unique_ptr<Cluster> cluster;
  LatencyMonitor monitor{100};
  std::vector<std::unique_ptr<TrafficGenerator>> gens;

  explicit ArenaTraffic(const ClusterConfig& cfg, double lambda = 0.15) {
    cluster = std::make_unique<Cluster>(cfg, &imem);
    monitor.set_measure_end(500);
    TrafficConfig tcfg;
    tcfg.lambda = lambda;
    tcfg.seed = 3;
    std::vector<Client*> clients;
    for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
      gens.push_back(std::make_unique<TrafficGenerator>(
          "gen" + std::to_string(c), static_cast<uint16_t>(c),
          static_cast<uint16_t>(c / cfg.cores_per_tile), cfg,
          &cluster->layout(), &engine, tcfg, &monitor));
      clients.push_back(gens.back().get());
    }
    cluster->attach_clients(clients);
    cluster->build(engine);
  }
};

// Every registered topology builds one arena per fabric shard, and every
// shard's arena actually holds that shard's components (a shard whose tiles
// were accidentally heap-allocated would show an empty arena).
class ClusterArenaLayout : public ::testing::TestWithParam<std::string> {};

TEST_P(ClusterArenaLayout, OneNonEmptyArenaPerShard) {
  const ClusterConfig cfg =
      ClusterConfig::mini(TopologySpec{GetParam()}, true);
  ArenaTraffic t(cfg);
  const uint32_t shards = t.cluster->num_shards();
  ASSERT_GE(shards, 1u);
  for (uint32_t s = 0; s < shards; ++s) {
    const Arena& a = t.cluster->shard_arena(s);
    // Each shard holds at least its tiles (crossbars, banks, ring storage).
    EXPECT_GT(a.allocation_count(), 0u) << GetParam() << " shard " << s;
    EXPECT_GT(a.bytes_used(), 0u) << GetParam() << " shard " << s;
    EXPECT_GE(a.bytes_reserved(), a.bytes_used())
        << GetParam() << " shard " << s;
  }
  // The layout is an implementation detail: the cluster must still simulate.
  t.engine.run(200);
  EXPECT_EQ(t.engine.cycle(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, ClusterArenaLayout,
                         ::testing::ValuesIn(FabricRegistry::names()),
                         [](const auto& tpinfo) { return tpinfo.param; });

// The tcdm+l2 memory system allocates its DMA engines (and their unbounded
// command/completion rings' initial storage) from the group's shard arena,
// growing each arena beyond what the plain tcdm build uses.
TEST(ClusterArenaLayout, MemoryEnginesLandInShardArenas) {
  ClusterConfig plain = ClusterConfig::mini("TopH", true);
  ClusterConfig l2 = plain;
  l2.memory = MemorySpec{"tcdm+l2"};
  l2.validate();

  ArenaTraffic a(plain), b(l2);
  ASSERT_EQ(a.cluster->num_shards(), b.cluster->num_shards());
  for (uint32_t s = 0; s < a.cluster->num_shards(); ++s) {
    EXPECT_GT(b.cluster->shard_arena(s).bytes_used(),
              a.cluster->shard_arena(s).bytes_used())
        << "shard " << s << ": DMA engines not arena-resident";
  }
}

// Steady-state stepping must not grow the arenas: construction carves out
// everything up front, and a bounded-traffic run stays inside it.
TEST(ClusterArenaLayout, SteadyStateAllocatesNothingFromArenas) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  ArenaTraffic t(cfg);
  std::vector<std::size_t> before;
  for (uint32_t s = 0; s < t.cluster->num_shards(); ++s) {
    before.push_back(t.cluster->shard_arena(s).allocation_count());
  }
  t.engine.run(500);
  for (uint32_t s = 0; s < t.cluster->num_shards(); ++s) {
    EXPECT_EQ(t.cluster->shard_arena(s).allocation_count(), before[s])
        << "shard " << s << " arena grew while stepping";
  }
}

}  // namespace
}  // namespace mempool
