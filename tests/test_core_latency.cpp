// Zero-load latency contract (paper Sections III-B/C): these
// tests pin the cycle-exact latencies the whole reproduction rests on.

#include <gtest/gtest.h>

#include <memory>

#include "helpers.hpp"
#include "mem/imem.hpp"

namespace mempool {
namespace {

struct ProbeRig {
  explicit ProbeRig(const ClusterConfig& cfg)
      : imem(4096), cluster(cfg, &imem) {
    for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
      probes.push_back(std::make_unique<test::ProbeClient>(
          static_cast<uint16_t>(c),
          static_cast<uint16_t>(c / cfg.cores_per_tile), &cluster.layout()));
    }
    std::vector<Client*> clients;
    for (auto& p : probes) clients.push_back(p.get());
    cluster.attach_clients(clients);
    cluster.build(engine);
  }

  /// Issue one load from @p core to @p cpu_addr on an idle fabric and return
  /// the round-trip latency in cycles.
  uint64_t probe(uint32_t core, uint32_t cpu_addr) {
    probes[core]->arm(cpu_addr);
    const uint32_t before = probes[core]->responses();
    for (int i = 0; i < 64; ++i) {
      engine.step();
      if (probes[core]->responses() > before) {
        return probes[core]->latency();
      }
    }
    ADD_FAILURE() << "no response within 64 cycles";
    return 0;
  }

  InstrMem imem;
  Engine engine;
  Cluster cluster;
  std::vector<std::unique_ptr<test::ProbeClient>> probes;
};

// Addresses: with scrambling on, tile T's sequential region starts at
// T * seq_region_bytes, so this targets a bank in tile T.
uint32_t addr_in_tile(const ClusterConfig& cfg, uint32_t tile) {
  return tile * cfg.seq_region_bytes;
}

TEST(ZeroLoadLatency, TopX_AllBanksOneCycle) {
  const ClusterConfig cfg = ClusterConfig::mini("TopX", true);
  ProbeRig rig(cfg);
  for (uint32_t t = 0; t < cfg.num_tiles; ++t) {
    EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, t)), 1u) << "tile " << t;
  }
}

TEST(ZeroLoadLatency, LocalBankOneCycle_AllTopologies) {
  for (const char* topo : {"Top1", "Top4", "TopH"}) {
    const ClusterConfig cfg = ClusterConfig::mini(topo, true);
    ProbeRig rig(cfg);
    EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, 0)), 1u) << topo;
    // A core in another tile to its own tile, too.
    const uint32_t c = 5 * cfg.cores_per_tile;  // core in tile 5
    EXPECT_EQ(rig.probe(c, addr_in_tile(cfg, 5)), 1u) << topo;
  }
}

TEST(ZeroLoadLatency, Top1_RemoteFiveCycles) {
  const ClusterConfig cfg = ClusterConfig::mini("Top1", true);
  ProbeRig rig(cfg);
  for (uint32_t t : {1u, 7u, 15u}) {
    EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, t)), 5u) << "tile " << t;
  }
}

TEST(ZeroLoadLatency, Top4_RemoteFiveCycles) {
  const ClusterConfig cfg = ClusterConfig::mini("Top4", true);
  ProbeRig rig(cfg);
  for (uint32_t core : {0u, 1u, 2u, 3u}) {  // every core has its own port
    EXPECT_EQ(rig.probe(core, addr_in_tile(cfg, 9)), 5u) << "core " << core;
  }
}

TEST(ZeroLoadLatency, TopH_SameGroupThreeCycles) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  ProbeRig rig(cfg);
  // Mini: 4 tiles per group; tiles 1..3 share group 0 with tile 0.
  for (uint32_t t : {1u, 2u, 3u}) {
    EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, t)), 3u) << "tile " << t;
  }
}

TEST(ZeroLoadLatency, TopH_RemoteGroupFiveCycles) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  ProbeRig rig(cfg);
  for (uint32_t t : {4u, 8u, 12u, 15u}) {
    EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, t)), 5u) << "tile " << t;
  }
}

TEST(ZeroLoadLatency, PaperScaleContractHolds) {
  // The full 256-core configuration: "all the SPM banks are accessible
  // within 5 cycles" (TopH), 3 inside the local group, 1 in the own tile.
  const ClusterConfig cfg = ClusterConfig::paper("TopH", true);
  ProbeRig rig(cfg);
  EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, 0)), 1u);
  EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, 3)), 3u);
  EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, 15)), 3u);   // same group (0-15)
  EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, 16)), 5u);   // group 1
  EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, 63)), 5u);   // group 3
  // Exhaustive: no tile is ever farther than 5 cycles.
  for (uint32_t t = 0; t < cfg.num_tiles; ++t) {
    const uint64_t lat = rig.probe(0, addr_in_tile(cfg, t));
    EXPECT_LE(lat, 5u) << "tile " << t;
  }
}

TEST(ZeroLoadLatency, Top1PaperScaleRemoteFiveCycles) {
  const ClusterConfig cfg = ClusterConfig::paper("Top1", true);
  ProbeRig rig(cfg);
  for (uint32_t t : {1u, 31u, 63u}) {
    EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, t)), 5u) << "tile " << t;
  }
}

TEST(ZeroLoadLatency, ResponsePayloadIsCorrect) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  ProbeRig rig(cfg);
  rig.cluster.write_word(addr_in_tile(cfg, 9), 0xABCD1234u);
  rig.probe(0, addr_in_tile(cfg, 9));
  EXPECT_EQ(rig.probes[0]->data(), 0xABCD1234u);
}

}  // namespace
}  // namespace mempool
