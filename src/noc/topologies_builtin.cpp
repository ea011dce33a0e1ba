// The four paper topologies (Sections III-C / V-C) as fabric-topology
// plugins. Construction order, component names, buffer modes, and routing
// functions replicate the original hard-wired Cluster builders exactly: the
// engine registers components in the same sequence, so all four produce
// bit-identical TrafficPoint/TrafficCounters results through the plugin API.

#include <string>

#include "common/check.hpp"
#include "core/tile.hpp"
#include "noc/builtin_topologies.hpp"
#include "noc/fabric.hpp"
#include "noc/fabric_util.hpp"

namespace mempool::fabric {

namespace {

// --- Top1: single radix-4 butterfly, one master port per tile ----------------

class Top1 : public FabricTopology {
 public:
  const std::string& name() const override {
    static const std::string n = "Top1";
    return n;
  }
  std::string description() const override {
    return "single radix-4 butterfly, one master port per tile "
           "(zero-load 1 / 5 cycles)";
  }

  void validate(const ClusterConfig& cfg) const override {
    const unsigned tb = log2_exact(cfg.num_tiles);
    MEMPOOL_CHECK_MSG(tb % 2 == 0 && cfg.num_tiles >= 4,
                      "Top1/Top4 need num_tiles = 4^k >= 4");
  }

  TileShape tile_shape(const ClusterConfig&) const override {
    return {true, 1, 1, 2};
  }

  TilePorts tile_ports(const ClusterConfig& cfg, uint32_t t) const override {
    const bool slave_reg = bfly_layers(cfg.num_tiles) < 2;
    const BufferMode m =
        slave_reg ? BufferMode::kRegistered : BufferMode::kCombinational;
    const uint32_t cpt = cfg.cores_per_tile;
    TilePorts ports;
    ports.slave_req_modes = {m};
    ports.slave_resp_modes = {m};
    ports.dir_route = [](const Packet&) { return 0u; };
    ports.resp_route = [t, cpt](const Packet& p) {
      return p.src_tile == t ? static_cast<unsigned>(p.src % cpt)
                             : static_cast<unsigned>(cpt);
    };
    return ports;
  }

  void build_networks(FabricBuilder& b) const override {
    build_parallel_butterflies(b, /*planes=*/1, /*dir_connected=*/true);
  }

  void wire_core(FabricBuilder& b, uint32_t core) const override {
    const uint32_t cpt = b.config().cores_per_tile;
    Tile& tile = b.tile(core / cpt);
    b.wire_core_ports(core, tile.core_local_req(core % cpt),
                      tile.dir_input(core % cpt));
  }

  uint64_t zero_load_latency(const ClusterConfig&, uint32_t src_tile,
                             uint32_t dst_tile) const override {
    return src_tile == dst_tile ? 1 : 5;
  }
  std::string latency_summary(const ClusterConfig&) const override {
    return "1 / - / 5";
  }

  bool physically_modeled() const override { return true; }
  std::vector<physical::WireBundle> wires(
      const ClusterConfig&, const physical::Floorplan& fp,
      uint32_t request_bits, uint32_t response_bits) const override {
    // Every tile connects to the single butterfly at the die centre,
    // "regardless of the physical distance between the tiles" (Sec. VI-C).
    return physical::star_wires(fp, request_bits, response_bits);
  }

  std::vector<EnergyRow> energy_rows(const ClusterConfig& cfg,
                                     const EnergyParams& p) const override {
    // dir xbar + L butterfly layers + dest tile req xbar, mirrored back.
    const double L = bfly_layers(cfg.num_tiles);
    const double ic = p.dir_xbar_hop + L * p.bfly_layer_hop +
                      2 * p.tile_xbar_hop + L * p.bfly_layer_hop +
                      p.dir_xbar_hop;
    return {{"remote load", {p.core_ls, ic, p.bank_access}},
            {"local load", local_load_energy(p)}};
  }

 protected:
  /// Shared with Top4: @p planes parallel butterflies over all tiles; with
  /// @p dir_connected the tiles' single master port feeds plane 0 (Top1),
  /// otherwise the cores push into their plane directly (Top4).
  static void build_parallel_butterflies(FabricBuilder& b, uint32_t planes,
                                         bool dir_connected) {
    const uint32_t n = b.config().num_tiles;
    const unsigned layers = bfly_layers(n);
    for (uint32_t k = 0; k < planes; ++k) {
      ButterflyNet* req = b.add_req_butterfly(std::make_unique<ButterflyNet>(
          "req_bfly" + std::to_string(k), n, bfly_layer_modes(layers),
          [](const Packet& p) { return static_cast<unsigned>(p.dst_tile); }));
      ButterflyNet* resp = b.add_resp_butterfly(std::make_unique<ButterflyNet>(
          "resp_bfly" + std::to_string(k), n, bfly_layer_modes(layers),
          [](const Packet& p) { return static_cast<unsigned>(p.src_tile); }));
      for (uint32_t t = 0; t < n; ++t) {
        req->connect_output(t, b.tile(t).slave_req(k));
        resp->connect_output(t, b.tile(t).resp_slave(k));
        if (dir_connected) {
          b.tile(t).connect_dir_output(0, req->input(t));
        }
        b.tile(t).connect_resp_remote_output(k, resp->input(t));
      }
    }
  }
};

// --- Top4: four parallel butterflies, one dedicated port per core ------------

class Top4 final : public Top1 {
 public:
  const std::string& name() const override {
    static const std::string n = "Top4";
    return n;
  }
  std::string description() const override {
    return "four parallel butterflies, one dedicated port per core "
           "(zero-load 1 / 5 cycles)";
  }

  TileShape tile_shape(const ClusterConfig& cfg) const override {
    return {true, 0, cfg.cores_per_tile, 2};
  }

  TilePorts tile_ports(const ClusterConfig& cfg, uint32_t t) const override {
    const bool slave_reg = bfly_layers(cfg.num_tiles) < 2;
    const BufferMode m =
        slave_reg ? BufferMode::kRegistered : BufferMode::kCombinational;
    const uint32_t cpt = cfg.cores_per_tile;
    TilePorts ports;
    ports.slave_req_modes.assign(cpt, m);
    ports.slave_resp_modes.assign(cpt, m);
    ports.resp_route = [t, cpt](const Packet& p) {
      return p.src_tile == t ? static_cast<unsigned>(p.src % cpt)
                             : static_cast<unsigned>(cpt + p.src % cpt);
    };
    return ports;
  }

  void build_networks(FabricBuilder& b) const override {
    build_parallel_butterflies(b, b.config().cores_per_tile,
                               /*dir_connected=*/false);
  }

  void wire_core(FabricBuilder& b, uint32_t core) const override {
    const uint32_t cpt = b.config().cores_per_tile;
    const uint32_t t = core / cpt;
    const uint32_t ct = core % cpt;
    b.wire_core_ports(core, b.tile(t).core_local_req(ct),
                      b.req_butterfly(ct)->input(t));
  }

  std::vector<physical::WireBundle> wires(
      const ClusterConfig&, const physical::Floorplan& fp,
      uint32_t request_bits, uint32_t response_bits) const override {
    // Four parallel butterflies: four times the Top1 wiring — "Top4 is four
    // times more congested than Top1".
    std::vector<physical::WireBundle> out;
    for (uint32_t k = 0; k < 4; ++k) {
      const auto star = physical::star_wires(fp, request_bits, response_bits);
      out.insert(out.end(), star.begin(), star.end());
    }
    return out;
  }

  std::vector<EnergyRow> energy_rows(const ClusterConfig& cfg,
                                     const EnergyParams& p) const override {
    // No master-port concentrator on the request path; the response still
    // crosses the remote-response crossbar.
    const double L = bfly_layers(cfg.num_tiles);
    const double ic = L * p.bfly_layer_hop + 2 * p.tile_xbar_hop +
                      L * p.bfly_layer_hop + p.dir_xbar_hop;
    return {{"remote load", {p.core_ls, ic, p.bank_access}},
            {"local load", local_load_energy(p)}};
  }
};

// --- TopH: 4 local groups, crossbar + inter-group butterflies ----------------

class TopH final : public FabricTopology {
 public:
  const std::string& name() const override {
    static const std::string n = "TopH";
    return n;
  }
  std::string description() const override {
    return "4 local groups: intra-group crossbar + one butterfly per ordered "
           "group pair (zero-load 1 / 3 / 5 cycles)";
  }
  bool hierarchical() const override { return true; }

  // Sharded execution: one shard per group. All intra-group paths (tile
  // fabric, group crossbar) stay inside the shard; the only group-crossing
  // links are the inter-group butterflies, whose layer-0 input buffers are
  // registered — they are the shard boundary. A butterfly combinationally
  // feeds the *destination* group's tiles, so it lives in that group's shard.
  uint32_t num_shards(const ClusterConfig& cfg) const override {
    return cfg.num_groups;
  }
  uint32_t tile_shard(const ClusterConfig& cfg, uint32_t tile) const override {
    return cfg.group_of_tile(tile);
  }

  void validate(const ClusterConfig& cfg) const override {
    MEMPOOL_CHECK_MSG(cfg.num_groups == 4, "TopH is defined for 4 groups");
    const uint32_t tpg = cfg.tiles_per_group();
    const unsigned gb = log2_exact(tpg);
    MEMPOOL_CHECK_MSG(tpg >= 4 && gb % 2 == 0,
                      "TopH needs tiles_per_group = 4^k >= 4");
  }

  TileShape tile_shape(const ClusterConfig& cfg) const override {
    return {true, cfg.num_groups, cfg.num_groups, 2};
  }

  TilePorts tile_ports(const ClusterConfig& cfg, uint32_t t) const override {
    // Slave port 0: intra-group crossbar (combinational at the slave).
    // Slave ports 1..3: butterflies from the other groups; registered only
    // when the group butterfly has a single layer.
    const bool slave_reg = bfly_layers(cfg.tiles_per_group()) < 2;
    const BufferMode bm =
        slave_reg ? BufferMode::kRegistered : BufferMode::kCombinational;
    const uint32_t g = cfg.group_of_tile(t);
    const uint32_t ng = cfg.num_groups;
    const uint32_t cpt = cfg.cores_per_tile;
    const ClusterConfig cfgc = cfg;
    TilePorts ports;
    ports.slave_req_modes = {BufferMode::kCombinational, bm, bm, bm};
    ports.slave_resp_modes = {BufferMode::kCombinational, bm, bm, bm};
    ports.dir_route = [cfgc, g, ng](const Packet& p) {
      return (cfgc.group_of_tile(p.dst_tile) - g + ng) % ng;  // 0 = local
    };
    ports.resp_route = [cfgc, t, g, ng, cpt](const Packet& p) {
      if (p.src_tile == t) return static_cast<unsigned>(p.src % cpt);
      return static_cast<unsigned>(
          cpt + (cfgc.group_of_tile(p.src_tile) - g + ng) % ng);
    };
    return ports;
  }

  void build_networks(FabricBuilder& b) const override {
    const ClusterConfig& cfg = b.config();
    const uint32_t ng = cfg.num_groups;
    const uint32_t tpg = cfg.tiles_per_group();
    const unsigned layers = bfly_layers(tpg);

    // Intra-group fully-connected crossbars (registered inputs: the tiles'
    // master-port boundary); shard = the group they serve.
    for (uint32_t g = 0; g < ng; ++g) {
      XbarSwitch* lreq = b.add_req_group_xbar(
          std::make_unique<XbarSwitch>(
              "g" + std::to_string(g) + ".req_lxbar", tpg,
              BufferMode::kRegistered, tpg,
              [tpg](const Packet& p) {
                return static_cast<unsigned>(p.dst_tile % tpg);
              }),
          g);
      XbarSwitch* lresp = b.add_resp_group_xbar(
          std::make_unique<XbarSwitch>(
              "g" + std::to_string(g) + ".resp_lxbar", tpg,
              BufferMode::kRegistered, tpg,
              [tpg](const Packet& p) {
                return static_cast<unsigned>(p.src_tile % tpg);
              }),
          g);
      for (uint32_t j = 0; j < tpg; ++j) {
        Tile& tl = b.tile(g * tpg + j);
        tl.connect_dir_output(0, lreq->input(j));
        lreq->connect_output(j, tl.slave_req(0));
        tl.connect_resp_remote_output(0, lresp->input(j));
        lresp->connect_output(j, tl.resp_slave(0));
      }
    }

    // Inter-group butterflies: one per ordered pair (source group g,
    // direction i in 1..3 toward group (g+i) mod 4) and per direction of
    // travel. Each lives in the destination group's shard (its outputs feed
    // those tiles combinationally); the registered inputs fed from group g
    // are the shard boundary.
    for (uint32_t g = 0; g < ng; ++g) {
      for (uint32_t i = 1; i < ng; ++i) {
        const uint32_t h = (g + i) % ng;  // destination group
        ButterflyNet* req = b.add_req_butterfly(
            std::make_unique<ButterflyNet>(
                "req_bfly_g" + std::to_string(g) + "_d" + std::to_string(i),
                tpg, bfly_layer_modes(layers),
                [tpg](const Packet& p) {
                  return static_cast<unsigned>(p.dst_tile % tpg);
                }),
            h);
        ButterflyNet* resp = b.add_resp_butterfly(
            std::make_unique<ButterflyNet>(
                "resp_bfly_g" + std::to_string(g) + "_d" + std::to_string(i),
                tpg, bfly_layer_modes(layers),
                [tpg](const Packet& p) {
                  return static_cast<unsigned>(p.src_tile % tpg);
                }),
            h);
        for (uint32_t j = 0; j < tpg; ++j) {
          Tile& src_tile = b.tile(g * tpg + j);
          Tile& dst_tile = b.tile(h * tpg + j);
          src_tile.connect_dir_output(i, b.shard_boundary(g, h, req->input(j)));
          req->connect_output(j, dst_tile.slave_req(i));
          src_tile.connect_resp_remote_output(
              i, b.shard_boundary(g, h, resp->input(j)));
          resp->connect_output(j, dst_tile.resp_slave(i));
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
    if (src_tile == dst_tile) return 1;
    if (cfg.group_of_tile(src_tile) == cfg.group_of_tile(dst_tile)) return 3;
    return 5;
  }
  std::string latency_summary(const ClusterConfig&) const override {
    return "1 / 3 / 5";
  }

  bool physically_modeled() const override { return true; }
  std::vector<physical::WireBundle> wires(
      const ClusterConfig&, const physical::Floorplan& fp,
      uint32_t request_bits, uint32_t response_bits) const override {
    std::vector<physical::WireBundle> wires;
    const uint32_t n = fp.params().num_tiles;
    const uint32_t ng = fp.params().num_groups;
    const uint32_t tpg = n / ng;
    // L: tile to the group-local crossbar at the quadrant centre.
    for (uint32_t t = 0; t < n; ++t) {
      const uint32_t g = t / tpg;
      wires.push_back({fp.tile_center_grouped(t), fp.group_center(g),
                       request_bits, physical::WireKind::kTileToGroup});
      wires.push_back({fp.group_center(g), fp.tile_center_grouped(t),
                       response_bits, physical::WireKind::kTileToGroup});
    }
    // N/NE/E: one butterfly per ordered group pair, placed at the midpoint
    // of the two group centres (the diagonal pairs cross the die centre).
    for (uint32_t g = 0; g < ng; ++g) {
      for (uint32_t i = 1; i < ng; ++i) {
        const uint32_t h = (g + i) % ng;
        const physical::Point cg = fp.group_center(g);
        const physical::Point ch = fp.group_center(h);
        const physical::Point hub{(cg.x + ch.x) / 2, (cg.y + ch.y) / 2};
        for (uint32_t j = 0; j < tpg; ++j) {
          const uint32_t src = g * tpg + j;
          const uint32_t dst = h * tpg + j;
          wires.push_back({fp.tile_center_grouped(src), hub, request_bits,
                           physical::WireKind::kGroupToGroup});
          wires.push_back({hub, fp.tile_center_grouped(dst), request_bits,
                           physical::WireKind::kGroupToGroup});
          // Response network of this direction pair.
          wires.push_back({fp.tile_center_grouped(dst), hub, response_bits,
                           physical::WireKind::kGroupToGroup});
          wires.push_back({hub, fp.tile_center_grouped(src), response_bits,
                           physical::WireKind::kGroupToGroup});
        }
      }
    }
    return wires;
  }

  std::vector<EnergyRow> energy_rows(const ClusterConfig& cfg,
                                     const EnergyParams& p) const override {
    // Cross-group: dir xbar + Lg butterfly layers + dest tile req xbar, then
    // bank-resp xbar + Lg layers + remote-resp xbar on the way back.
    const double Lg = bfly_layers(cfg.tiles_per_group());
    const double cross = p.dir_xbar_hop + Lg * p.bfly_layer_hop +
                         2 * p.tile_xbar_hop + Lg * p.bfly_layer_hop +
                         p.dir_xbar_hop;
    const double same = p.dir_xbar_hop + p.group_xbar_hop +
                        2 * p.tile_xbar_hop + p.group_xbar_hop +
                        p.dir_xbar_hop;
    return {{"remote load (cross-group)", {p.core_ls, cross, p.bank_access}},
            {"remote load (same group)", {p.core_ls, same, p.bank_access}},
            {"local load", local_load_energy(p)}};
  }
};

// --- TopX: ideal conflict-free crossbar (baseline only) ----------------------

class TopX final : public FabricTopology {
 public:
  const std::string& name() const override {
    static const std::string n = "TopX";
    return n;
  }
  std::string description() const override {
    return "ideal single-cycle conflict-free crossbar "
           "(physically infeasible baseline)";
  }

  void validate(const ClusterConfig&) const override {}

  TileShape tile_shape(const ClusterConfig&) const override {
    // No tile fabric; cores access banks directly, banks queue unboundedly
    // (output queueing).
    return {false, 0, 0, 0};
  }

  TilePorts tile_ports(const ClusterConfig&, uint32_t) const override {
    return {};
  }

  void build_networks(FabricBuilder&) const override {}

  void wire_core(FabricBuilder& b, uint32_t core) const override {
    b.wire_core_ideal(core);
  }

  void attach_clients_hook(FabricBuilder& b) const override {
    b.add_ideal_tile_bridges();
  }

  uint64_t zero_load_latency(const ClusterConfig&, uint32_t,
                             uint32_t) const override {
    return 1;
  }
  std::string latency_summary(const ClusterConfig&) const override {
    return "1 (ideal)";
  }

  std::vector<EnergyRow> energy_rows(const ClusterConfig&,
                                     const EnergyParams& p) const override {
    return {{"load (ideal, no fabric)", {p.core_ls, 0, p.bank_access}}};
  }
};

}  // namespace

std::unique_ptr<FabricTopology> make_top1() { return std::make_unique<Top1>(); }
std::unique_ptr<FabricTopology> make_top4() { return std::make_unique<Top4>(); }
std::unique_ptr<FabricTopology> make_toph() { return std::make_unique<TopH>(); }
std::unique_ptr<FabricTopology> make_topx() { return std::make_unique<TopX>(); }

}  // namespace mempool::fabric
