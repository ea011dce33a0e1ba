// TopH2: a two-level hierarchical fabric scaling the TopH recipe to 1024
// cores (the direction of Riedel et al., "MemPool: A Scalable Manycore
// Architecture with a Low-Latency Shared L1 Memory", 2023, and MemPool-3D).
//
// Canonical shape: 256 tiles × 4 cores = 1024 cores, organized as 16 groups
// of 16 tiles, the groups collected into 4 super-groups of 4 groups each.
// Three latency tiers above the own tile:
//
//   * intra-group   — per-group fully-connected crossbar      (3 cycles)
//   * intra-super   — one radix-4 butterfly per ordered group
//                     pair inside a super-group, exactly the
//                     TopH inter-group tier                   (5 cycles)
//   * cross-super   — one die-spanning radix-4 butterfly per
//                     ordered super-group pair over all tiles
//                     of the super-group, every layer
//                     registered (long-wire retiming)         (7 cycles)
//
// Per tile: master/slave ports 0 = local crossbar, 1..gps-1 = intra-super
// directions, gps..gps+sg-2 = cross-super directions.
//
// The enum-era Cluster could not express this: it is registered purely
// through the FabricTopology interface with zero edits inside Cluster — the
// proof that the plugin API is real, and the worked example of the README's
// "how to add a topology" recipe.

#include <string>

#include "common/check.hpp"
#include "core/tile.hpp"
#include "noc/builtin_topologies.hpp"
#include "noc/fabric.hpp"
#include "noc/fabric_util.hpp"

namespace mempool::fabric {

namespace {

/// The "supergroups" param, range-checked before narrowing so an over-range
/// value fails instead of wrapping to a small, valid-looking count.
uint32_t supergroups(const ClusterConfig& cfg) {
  const uint64_t v = cfg.topology.param_uint("supergroups", 4);
  MEMPOOL_CHECK_MSG(v <= cfg.num_groups,
                    "TopH2 param 'supergroups' (" << v << ") exceeds "
                                                  << "num_groups ("
                                                  << cfg.num_groups << ")");
  return static_cast<uint32_t>(v);
}

/// Hierarchy arithmetic for one configuration.
struct Shape {
  uint32_t tpg;   ///< tiles per group
  uint32_t sg;    ///< super-groups
  uint32_t gps;   ///< groups per super-group
  uint32_t tps;   ///< tiles per super-group

  explicit Shape(const ClusterConfig& cfg)
      : tpg(cfg.tiles_per_group()),
        sg(supergroups(cfg)),
        gps(sg != 0 ? cfg.num_groups / sg : 0),
        tps(tpg * gps) {}

  uint32_t group_of(uint32_t tile) const { return tile / tpg; }
  uint32_t super_of(uint32_t tile) const { return tile / tps; }
  uint32_t group_in_super(uint32_t tile) const {
    return (tile / tpg) % gps;
  }
};

class TopH2 final : public FabricTopology {
 public:
  const std::string& name() const override {
    static const std::string n = "TopH2";
    return n;
  }
  std::string description() const override {
    return "two-level hierarchy: groups of tiles inside super-groups of "
           "groups (1024 cores; zero-load 1 / 3 / 5 / 7 cycles)";
  }
  bool hierarchical() const override { return true; }

  // Sharded execution: one shard per super-group. The die-spanning tier-3
  // butterflies feed every tile of the destination super-group
  // combinationally (their slave ports are combinational; retiming happens
  // inside the all-registered layers), so the finest partition whose
  // combinational paths stay inside a shard is the super-group; tier-1/2
  // networks are then intra-shard and only the tier-3 butterflies'
  // registered layer-0 inputs cross the boundary.
  uint32_t num_shards(const ClusterConfig& cfg) const override {
    return Shape(cfg).sg;
  }
  uint32_t tile_shard(const ClusterConfig& cfg, uint32_t tile) const override {
    return Shape(cfg).super_of(tile);
  }

  std::vector<std::string> param_keys() const override {
    return {"supergroups"};
  }

  void validate(const ClusterConfig& cfg) const override {
    const Shape s(cfg);
    MEMPOOL_CHECK_MSG(s.sg >= 2, "TopH2 needs >= 2 super-groups");
    MEMPOOL_CHECK_MSG(cfg.num_groups % s.sg == 0,
                      "supergroups (" << s.sg << ") does not divide "
                                      << "num_groups (" << cfg.num_groups
                                      << ")");
    MEMPOOL_CHECK_MSG(s.gps >= 2, "TopH2 needs >= 2 groups per super-group");
    MEMPOOL_CHECK_MSG(s.tpg >= 4 && log2_exact(s.tpg) % 2 == 0,
                      "TopH2 needs tiles_per_group = 4^k >= 4");
    MEMPOOL_CHECK_MSG(log2_exact(s.tps) % 2 == 0,
                      "TopH2 needs tiles per super-group = 4^k "
                      "(groups_per_supergroup a power of four)");
  }

  ClusterConfig paper_config(const TopologySpec& spec,
                             bool scrambling) const override {
    // 16 tiles × 16 groups × 4 cores = 1024 cores, 4 MiB of shared L1.
    ClusterConfig cfg;
    cfg.topology = spec;
    cfg.scrambling = scrambling;
    cfg.num_tiles = 256;
    cfg.num_groups = 16;
    cfg.validate();
    return cfg;
  }

  ClusterConfig mini_config(const TopologySpec& spec,
                            bool scrambling) const override {
    // Smallest valid shape: 4 tiles × 16 groups = 64 tiles / 256 cores.
    ClusterConfig cfg;
    cfg.topology = spec;
    cfg.scrambling = scrambling;
    cfg.num_tiles = 64;
    cfg.num_groups = 16;
    cfg.validate();
    return cfg;
  }

  TileShape tile_shape(const ClusterConfig& cfg) const override {
    const Shape s(cfg);
    const uint32_t dirs = 1 + (s.gps - 1) + (s.sg - 1);
    return {true, dirs, dirs, 2};
  }

  TilePorts tile_ports(const ClusterConfig& cfg, uint32_t t) const override {
    const Shape s(cfg);
    // Port 0 (local crossbar) is combinational at the slave; the intra-super
    // butterflies place their second register boundary on the slave port when
    // they have a single layer (the TopH rule); the cross-super butterflies
    // register every layer internally, so their slave ports stay
    // combinational.
    const BufferMode mid = bfly_layers(s.tpg) < 2 ? BufferMode::kRegistered
                                                  : BufferMode::kCombinational;
    TilePorts ports;
    ports.slave_req_modes.assign(1, BufferMode::kCombinational);
    ports.slave_req_modes.insert(ports.slave_req_modes.end(), s.gps - 1, mid);
    ports.slave_req_modes.insert(ports.slave_req_modes.end(), s.sg - 1,
                                 BufferMode::kCombinational);
    ports.slave_resp_modes = ports.slave_req_modes;

    const uint32_t cpt = cfg.cores_per_tile;
    const uint32_t gl = s.group_in_super(t);
    const uint32_t sp = s.super_of(t);
    const Shape sh = s;
    auto direction = [sh, gl, sp](uint32_t other_tile) -> unsigned {
      const uint32_t os = sh.super_of(other_tile);
      if (os == sp) {
        // 0 = own group (local crossbar), 1..gps-1 = sibling groups.
        return (sh.group_in_super(other_tile) - gl + sh.gps) % sh.gps;
      }
      return sh.gps - 1 + (os - sp + sh.sg) % sh.sg;
    };
    ports.dir_route = [direction](const Packet& p) {
      return direction(p.dst_tile);
    };
    ports.resp_route = [direction, t, cpt](const Packet& p) {
      if (p.src_tile == t) return static_cast<unsigned>(p.src % cpt);
      return static_cast<unsigned>(cpt + direction(p.src_tile));
    };
    return ports;
  }

  void build_networks(FabricBuilder& b) const override {
    const ClusterConfig& cfg = b.config();
    const Shape s(cfg);

    // Tier 1: intra-group fully-connected crossbars, one per group (shard =
    // the group's super-group).
    for (uint32_t g = 0; g < cfg.num_groups; ++g) {
      const uint32_t gshard = g / s.gps;
      XbarSwitch* lreq = b.add_req_group_xbar(
          std::make_unique<XbarSwitch>(
              "g" + std::to_string(g) + ".req_lxbar", s.tpg,
              BufferMode::kRegistered, s.tpg,
              [s](const Packet& p) {
                return static_cast<unsigned>(p.dst_tile % s.tpg);
              }),
          gshard);
      XbarSwitch* lresp = b.add_resp_group_xbar(
          std::make_unique<XbarSwitch>(
              "g" + std::to_string(g) + ".resp_lxbar", s.tpg,
              BufferMode::kRegistered, s.tpg,
              [s](const Packet& p) {
                return static_cast<unsigned>(p.src_tile % s.tpg);
              }),
          gshard);
      for (uint32_t j = 0; j < s.tpg; ++j) {
        Tile& tl = b.tile(g * s.tpg + j);
        tl.connect_dir_output(0, lreq->input(j));
        lreq->connect_output(j, tl.slave_req(0));
        tl.connect_resp_remote_output(0, lresp->input(j));
        lresp->connect_output(j, tl.resp_slave(0));
      }
    }

    // Tier 2: intra-super-group butterflies — one per super-group and
    // ordered group pair, exactly the TopH inter-group construction applied
    // inside each super-group.
    const unsigned mid_layers = bfly_layers(s.tpg);
    for (uint32_t sp = 0; sp < s.sg; ++sp) {
      for (uint32_t gl = 0; gl < s.gps; ++gl) {
        for (uint32_t i = 1; i < s.gps; ++i) {
          const uint32_t g = sp * s.gps + gl;
          const uint32_t h = sp * s.gps + (gl + i) % s.gps;
          const std::string suffix =
              "_g" + std::to_string(g) + "_d" + std::to_string(i);
          // Intra-super-group: producer and consumer groups share the
          // super-group shard, so no boundary marking is needed.
          ButterflyNet* req = b.add_req_butterfly(
              std::make_unique<ButterflyNet>(
                  "req_bfly" + suffix, s.tpg, bfly_layer_modes(mid_layers),
                  [s](const Packet& p) {
                    return static_cast<unsigned>(p.dst_tile % s.tpg);
                  }),
              sp);
          ButterflyNet* resp = b.add_resp_butterfly(
              std::make_unique<ButterflyNet>(
                  "resp_bfly" + suffix, s.tpg, bfly_layer_modes(mid_layers),
                  [s](const Packet& p) {
                    return static_cast<unsigned>(p.src_tile % s.tpg);
                  }),
              sp);
          for (uint32_t j = 0; j < s.tpg; ++j) {
            Tile& src = b.tile(g * s.tpg + j);
            Tile& dst = b.tile(h * s.tpg + j);
            src.connect_dir_output(i, req->input(j));
            req->connect_output(j, dst.slave_req(i));
            src.connect_resp_remote_output(i, resp->input(j));
            resp->connect_output(j, dst.resp_slave(i));
          }
        }
      }
    }

    // Tier 3: cross-super-group butterflies — one per ordered super-group
    // pair over every tile of the super-group, all layers registered.
    const unsigned top_layers = bfly_layers(s.tps);
    for (uint32_t sp = 0; sp < s.sg; ++sp) {
      for (uint32_t d = 1; d < s.sg; ++d) {
        const uint32_t sq = (sp + d) % s.sg;
        const std::string suffix =
            "_s" + std::to_string(sp) + "_d" + std::to_string(d);
        // Cross-super-group: the butterfly lives in the destination
        // super-group's shard (it feeds those tiles combinationally); its
        // all-registered layer-0 inputs, fed from super-group sp, are the
        // shard boundary.
        ButterflyNet* req = b.add_req_butterfly(
            std::make_unique<ButterflyNet>(
                "req_tbfly" + suffix, s.tps, bfly_all_registered(top_layers),
                [s](const Packet& p) {
                  return static_cast<unsigned>(p.dst_tile % s.tps);
                }),
            sq);
        ButterflyNet* resp = b.add_resp_butterfly(
            std::make_unique<ButterflyNet>(
                "resp_tbfly" + suffix, s.tps, bfly_all_registered(top_layers),
                [s](const Packet& p) {
                  return static_cast<unsigned>(p.src_tile % s.tps);
                }),
            sq);
        const uint32_t dir = s.gps - 1 + d;
        for (uint32_t j = 0; j < s.tps; ++j) {
          Tile& src = b.tile(sp * s.tps + j);
          Tile& dst = b.tile(sq * s.tps + j);
          src.connect_dir_output(dir,
                                 b.shard_boundary(sp, sq, req->input(j)));
          req->connect_output(j, dst.slave_req(dir));
          src.connect_resp_remote_output(
              dir, b.shard_boundary(sp, sq, resp->input(j)));
          resp->connect_output(j, dst.resp_slave(dir));
        }
      }
    }
  }

  void wire_core(FabricBuilder& b, uint32_t core) const override {
    const uint32_t cpt = b.config().cores_per_tile;
    Tile& tile = b.tile(core / cpt);
    b.wire_core_ports(core, tile.core_local_req(core % cpt),
                      tile.dir_input(core % cpt));
  }

  uint64_t zero_load_latency(const ClusterConfig& cfg, uint32_t src_tile,
                             uint32_t dst_tile) const override {
    const Shape s(cfg);
    if (src_tile == dst_tile) return 1;
    if (s.group_of(src_tile) == s.group_of(dst_tile)) return 3;
    if (s.super_of(src_tile) == s.super_of(dst_tile)) {
      return 1 + 2 * bfly_reg_boundaries(bfly_layers(s.tpg));
    }
    // Every layer of the top-tier butterfly is a register boundary.
    return 1 + 2 * bfly_layers(s.tps);
  }

  std::string latency_summary(const ClusterConfig& cfg) const override {
    const Shape s(cfg);
    return "1 / 3 / " +
           std::to_string(1 + 2 * bfly_reg_boundaries(bfly_layers(s.tpg))) +
           " / " + std::to_string(1 + 2 * bfly_layers(s.tps));
  }

  bool physically_modeled() const override { return true; }

  physical::FloorplanParams floorplan_params(
      const ClusterConfig& cfg) const override {
    // Keep the paper's tile pitch and scale the die edge with the tile grid:
    // 16×16 tiles land on a double-edge 9.2 mm die (4× area — the scaling
    // direction of the 2023 journal paper), the 16 groups on a 4×4 grid.
    physical::FloorplanParams fp;
    fp.num_tiles = cfg.num_tiles;
    fp.num_groups = cfg.num_groups;
    uint32_t dim = 1u << (log2_exact(cfg.num_tiles) / 2);
    if (dim * dim < cfg.num_tiles) dim *= 2;
    fp.die_mm = fp.die_mm * dim / 8.0;
    return fp;
  }

  std::vector<physical::WireBundle> wires(
      const ClusterConfig& cfg, const physical::Floorplan& fp,
      uint32_t request_bits, uint32_t response_bits) const override {
    std::vector<physical::WireBundle> wires;
    const Shape s(cfg);
    const uint32_t n = fp.params().num_tiles;
    const uint32_t tpg = s.tpg;
    const uint32_t sg = s.sg;
    const uint32_t gps = s.gps;
    const uint32_t tps = s.tps;

    auto both_ways = [&](physical::Point a, physical::Point b,
                         physical::WireKind kind) {
      wires.push_back({a, b, request_bits, kind});
      wires.push_back({b, a, response_bits, kind});
    };
    // Placement: in the canonical 4×4 shape, super-group s occupies die
    // quadrant (s % 2, s / 2) and its 4 groups the quadrant's 2×2 sub-cells
    // — the TopH floorplan one level up. perm(g) maps the linear group index
    // to the row-major grid cell of that placement; tiles are positioned
    // through the permuted cell. Non-canonical hierarchies (a custom
    // "supergroups" param) keep the linear row-major placement.
    const bool quadrants = sg == 4 && gps == 4;
    auto perm = [&](uint32_t g) {
      if (!quadrants) return g;
      const uint32_t sp = g / gps, l = g % gps;
      const uint32_t col = 2 * (sp % 2) + l % 2;
      const uint32_t row = 2 * (sp / 2) + l / 2;
      return row * 4 + col;
    };
    auto tile_pos = [&](uint32_t t) {
      const uint32_t g = t / tpg;
      return fp.tile_center_grouped(perm(g) * tpg + t % tpg);
    };
    auto gcenter = [&](uint32_t g) { return fp.group_center(perm(g)); };
    auto super_center = [&](uint32_t sp) {
      physical::Point c{0, 0};
      for (uint32_t gl = 0; gl < gps; ++gl) {
        const physical::Point g = gcenter(sp * gps + gl);
        c.x += g.x / gps;
        c.y += g.y / gps;
      }
      return c;
    };

    // Tier 1: tile to the group-local crossbar at the group centre.
    for (uint32_t t = 0; t < n; ++t) {
      both_ways(tile_pos(t), gcenter(t / tpg),
                physical::WireKind::kTileToGroup);
    }
    // Tier 2: intra-super-group butterflies at the midpoint of each ordered
    // group pair.
    for (uint32_t sp = 0; sp < sg; ++sp) {
      for (uint32_t gl = 0; gl < gps; ++gl) {
        for (uint32_t i = 1; i < gps; ++i) {
          const uint32_t g = sp * gps + gl;
          const uint32_t h = sp * gps + (gl + i) % gps;
          const physical::Point cg = gcenter(g);
          const physical::Point ch = gcenter(h);
          const physical::Point hub{(cg.x + ch.x) / 2, (cg.y + ch.y) / 2};
          for (uint32_t j = 0; j < tpg; ++j) {
            both_ways(tile_pos(g * tpg + j), hub,
                      physical::WireKind::kGroupToGroup);
            both_ways(hub, tile_pos(h * tpg + j),
                      physical::WireKind::kGroupToGroup);
          }
        }
      }
    }
    // Tier 3: cross-super-group butterflies at the midpoint of each ordered
    // super-group (quadrant) pair.
    for (uint32_t sp = 0; sp < sg; ++sp) {
      for (uint32_t d = 1; d < sg; ++d) {
        const uint32_t sq = (sp + d) % sg;
        const physical::Point cs = super_center(sp);
        const physical::Point cq = super_center(sq);
        const physical::Point hub{(cs.x + cq.x) / 2, (cs.y + cq.y) / 2};
        for (uint32_t j = 0; j < tps; ++j) {
          both_ways(tile_pos(sp * tps + j), hub,
                    physical::WireKind::kGroupToGroup);
          both_ways(hub, tile_pos(sq * tps + j),
                    physical::WireKind::kGroupToGroup);
        }
      }
    }
    return wires;
  }

  std::vector<EnergyRow> energy_rows(const ClusterConfig& cfg,
                                     const EnergyParams& p) const override {
    const Shape s(cfg);
    const double Lm = bfly_layers(s.tpg);
    const double Lt = bfly_layers(s.tps);
    const double cross_super = p.dir_xbar_hop + Lt * p.bfly_layer_hop +
                               2 * p.tile_xbar_hop + Lt * p.bfly_layer_hop +
                               p.dir_xbar_hop;
    const double cross_group = p.dir_xbar_hop + Lm * p.bfly_layer_hop +
                               2 * p.tile_xbar_hop + Lm * p.bfly_layer_hop +
                               p.dir_xbar_hop;
    const double same = p.dir_xbar_hop + p.group_xbar_hop +
                        2 * p.tile_xbar_hop + p.group_xbar_hop +
                        p.dir_xbar_hop;
    return {
        {"remote load (cross-super-group)", {p.core_ls, cross_super, p.bank_access}},
        {"remote load (cross-group)", {p.core_ls, cross_group, p.bank_access}},
        {"remote load (same group)", {p.core_ls, same, p.bank_access}},
        {"local load", local_load_energy(p)},
    };
  }
};

}  // namespace

std::unique_ptr<FabricTopology> make_toph2() {
  return std::make_unique<TopH2>();
}

}  // namespace mempool::fabric
