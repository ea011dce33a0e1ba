// The fabric-topology plugin contract: every topology in the FabricRegistry
// — including ones the legacy enum could never express (TopH2) — must pass
// the mini-cluster smoke battery: measured zero-load probe latencies match
// the plugin's self-reported model for every (src, dst) tile pair, and the
// config surface (TopologySpec params, num_groups) fails loudly on invalid
// input. Engine equivalence (dense vs activity-driven bit-identical) for
// every registered topology lives in test_sim_equivalence.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/cluster.hpp"
#include "helpers.hpp"
#include "mem/imem.hpp"
#include "noc/fabric.hpp"
#include "power/energy_model.hpp"

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

uint32_t addr_in_tile(const ClusterConfig& cfg, uint32_t tile) {
  return tile * cfg.seq_region_bytes;
}

TEST(FabricRegistry, ListsBuiltinsInRegistrationOrder) {
  const auto names = FabricRegistry::names();
  ASSERT_GE(names.size(), 5u);
  EXPECT_EQ(names[0], "Top1");
  EXPECT_EQ(names[1], "Top4");
  EXPECT_EQ(names[2], "TopH");
  EXPECT_EQ(names[3], "TopX");
  EXPECT_EQ(names[4], "TopH2");
  for (const auto& n : names) {
    const FabricTopology* t = FabricRegistry::find(n);
    ASSERT_NE(t, nullptr) << n;
    EXPECT_EQ(t->name(), n);
    EXPECT_FALSE(t->description().empty()) << n;
  }
}

TEST(FabricRegistry, UnknownNameThrowsListingAvailable) {
  EXPECT_EQ(FabricRegistry::find("TopZ"), nullptr);
  try {
    FabricRegistry::get("TopZ");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("TopZ"), std::string::npos);
    EXPECT_NE(msg.find("Top1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("TopH2"), std::string::npos) << msg;
  }
}

TEST(FabricRegistry, ValidateRejectsUnknownTopologyName) {
  ClusterConfig cfg;
  cfg.topology = TopologySpec{"TopZ"};
  EXPECT_THROW(cfg.validate(), CheckError);
}

// --- registry-wide zero-load contract ----------------------------------------

class FabricContract : public ::testing::TestWithParam<std::string> {};

TEST_P(FabricContract, MiniClusterProbesMatchSelfReportedModel) {
  const FabricTopology& topo = FabricRegistry::get(GetParam());
  const ClusterConfig cfg = ClusterConfig::mini(TopologySpec{GetParam()});
  ProbeRig rig(cfg);
  // Probe from a core in the first and in the last tile to *every* tile:
  // every latency tier of the fabric must match the plugin's model exactly.
  for (uint32_t src_tile : {0u, cfg.num_tiles - 1}) {
    const uint32_t core = src_tile * cfg.cores_per_tile;
    for (uint32_t dst = 0; dst < cfg.num_tiles; ++dst) {
      EXPECT_EQ(rig.probe(core, addr_in_tile(cfg, dst)),
                topo.zero_load_latency(cfg, src_tile, dst))
          << GetParam() << ": tile " << src_tile << " -> " << dst;
    }
  }
}

TEST_P(FabricContract, CanonicalConfigsValidateAndDescribeThemselves) {
  const FabricTopology& topo = FabricRegistry::get(GetParam());
  const ClusterConfig paper = ClusterConfig::paper(TopologySpec{GetParam()},
                                                   /*scrambling=*/true);
  const ClusterConfig mini = ClusterConfig::mini(TopologySpec{GetParam()});
  EXPECT_GE(paper.num_cores(), mini.num_cores());
  EXPECT_EQ(paper.topology.name, GetParam());
  EXPECT_EQ(paper.display_name(), GetParam() + "S");
  EXPECT_FALSE(topo.latency_summary(paper).empty());
  // The zero-load model must at least distinguish the own tile.
  EXPECT_EQ(topo.zero_load_latency(paper, 0, 0), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, FabricContract,
                         ::testing::ValuesIn(FabricRegistry::names()),
                         [](const auto& tpinfo) { return tpinfo.param; });

// --- TopH2 specifics ----------------------------------------------------------

TEST(TopH2, PaperScaleIs1024Cores) {
  const ClusterConfig cfg = ClusterConfig::paper(TopologySpec{"TopH2"}, true);
  EXPECT_EQ(cfg.num_cores(), 1024u);
  EXPECT_EQ(cfg.num_tiles, 256u);
  EXPECT_EQ(cfg.num_groups, 16u);
  const FabricTopology& topo = FabricRegistry::get("TopH2");
  // Four latency tiers: own tile / group / super-group / cross-super-group.
  EXPECT_EQ(topo.zero_load_latency(cfg, 0, 0), 1u);
  EXPECT_EQ(topo.zero_load_latency(cfg, 0, 15), 3u);    // same group
  EXPECT_EQ(topo.zero_load_latency(cfg, 0, 16), 5u);    // same super-group
  EXPECT_EQ(topo.zero_load_latency(cfg, 0, 63), 5u);
  EXPECT_EQ(topo.zero_load_latency(cfg, 0, 64), 7u);    // cross super-group
  EXPECT_EQ(topo.zero_load_latency(cfg, 0, 255), 7u);
  EXPECT_EQ(topo.latency_summary(cfg), "1 / 3 / 5 / 7");
}

TEST(TopH2, PaperScaleProbesMatchModel) {
  // The full 1024-core cluster: spot-check one destination per tier plus the
  // worst case from both ends (the exhaustive per-tile sweep runs on the
  // mini config in FabricContract).
  const ClusterConfig cfg = ClusterConfig::paper(TopologySpec{"TopH2"}, true);
  const FabricTopology& topo = FabricRegistry::get("TopH2");
  ProbeRig rig(cfg);
  for (uint32_t dst : {0u, 3u, 15u, 16u, 63u, 64u, 128u, 255u}) {
    EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, dst)),
              topo.zero_load_latency(cfg, 0, dst))
        << "tile 0 -> " << dst;
  }
  const uint32_t last_core = (cfg.num_tiles - 1) * cfg.cores_per_tile;
  EXPECT_EQ(rig.probe(last_core, addr_in_tile(cfg, 0)),
            topo.zero_load_latency(cfg, cfg.num_tiles - 1, 0));
}

TEST(TopH2, SupergroupsParamIsHonored) {
  // A non-default hierarchy: 2 super-groups × 4 groups × 4 tiles = 32 tiles
  // (tiles per super-group = 16 = 4^2, so the shape validates).
  ClusterConfig cfg;
  cfg.topology = TopologySpec{"TopH2", {{"supergroups", Json(2)}}};
  cfg.num_tiles = 32;
  cfg.num_groups = 8;
  cfg.validate();
  EXPECT_EQ(cfg.topology.param_uint("supergroups", 4), 2u);
  const FabricTopology& topo = FabricRegistry::get("TopH2");
  // Groups 0..3 share super-group 0: tile 4 (group 1) is cross-group inside
  // the super-group; tile 16 (group 4) crosses super-groups over a 2-layer
  // all-registered butterfly (also 5 cycles at this scale).
  EXPECT_EQ(topo.zero_load_latency(cfg, 0, 3), 3u);
  EXPECT_EQ(topo.zero_load_latency(cfg, 0, 4), 5u);
  EXPECT_EQ(topo.zero_load_latency(cfg, 0, 16), 5u);
  // And the built cluster agrees with the model end to end.
  ProbeRig rig(cfg);
  for (uint32_t dst : {0u, 1u, 4u, 15u, 16u, 31u}) {
    EXPECT_EQ(rig.probe(0, addr_in_tile(cfg, dst)),
              topo.zero_load_latency(cfg, 0, dst))
        << "tile 0 -> " << dst;
  }
}

// --- validate() death tests over the new spec surface -------------------------

TEST(ClusterValidate, ZeroGroupsRejected) {
  ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  cfg.num_groups = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(ClusterValidate, NonDividingGroupsRejected) {
  ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  cfg.num_groups = 3;  // 16 % 3 != 0
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(ClusterValidate, UnknownSpecParamRejected) {
  ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  cfg.topology.params["bogus"] = Json(1);
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(ClusterValidate, IllTypedSpecParamRejected) {
  ClusterConfig cfg;
  cfg.topology = TopologySpec{"TopH2", {{"supergroups", Json("four")}}};
  cfg.num_tiles = 256;
  cfg.num_groups = 16;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(ClusterValidate, TopH2NonDividingSupergroupsRejected) {
  ClusterConfig cfg;
  cfg.topology = TopologySpec{"TopH2", {{"supergroups", Json(3)}}};
  cfg.num_tiles = 256;
  cfg.num_groups = 16;  // 16 % 3 != 0
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(ClusterValidate, TopH2OverRangeSupergroupsRejected) {
  // 2^32 + 4 would narrow to 4, which divides 16 groups.
  ClusterConfig cfg;
  cfg.topology =
      TopologySpec{"TopH2", {{"supergroups", Json(uint64_t{4294967300})}}};
  cfg.num_tiles = 256;
  cfg.num_groups = 16;
  try {
    cfg.validate();
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("supergroups"), std::string::npos)
        << e.what();
  }
}

// --- energy hook ---------------------------------------------------------------

TEST(FabricEnergy, TopHRowsMatchTheCalibratedModel) {
  // The TopH plugin's analytic rows restate the EnergyModel identities the
  // whole Figure-10 calibration rests on (16.9 / 8.4 pJ).
  const EnergyModel model;
  const ClusterConfig cfg = ClusterConfig::paper("TopH", true);
  const auto rows =
      FabricRegistry::get("TopH").energy_rows(cfg, model.params());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].energy.total(),
                   model.remote_load_cross_group().total());
  EXPECT_DOUBLE_EQ(rows[1].energy.total(),
                   model.remote_load_same_group().total());
  EXPECT_DOUBLE_EQ(rows[2].energy.total(), model.local_load().total());
  EXPECT_NEAR(rows[0].energy.total(), 16.9, 1e-9);
  EXPECT_NEAR(rows[2].energy.total(), 8.4, 1e-9);
}

TEST(FabricEnergy, TopH2CrossSuperCostsMoreThanCrossGroup) {
  const EnergyModel model;
  const ClusterConfig cfg = ClusterConfig::paper(TopologySpec{"TopH2"}, true);
  const auto rows =
      FabricRegistry::get("TopH2").energy_rows(cfg, model.params());
  ASSERT_EQ(rows.size(), 4u);
  // One extra die-spanning butterfly layer each way.
  EXPECT_GT(rows[0].energy.total(), rows[1].energy.total());
  EXPECT_GT(rows[1].energy.total(), rows[3].energy.total());
}

}  // namespace
}  // namespace mempool
