#pragma once
// Pluggable fabric-topology API.
//
// A topology is one self-contained plugin implementing FabricTopology: it
// decides the tile port shape, builds and wires the request/response
// networks into the Cluster, reports its zero-load latency model, supplies
// the physical floorplan/wiring hooks the feasibility analysis consumes, and
// prices its analytic per-instruction energy rows. The Cluster contains
// *zero* topology-specific code — it asks the registered plugin for every
// decision — so adding a fabric never touches core/, physical/, power/, or
// the runner: register a plugin and every layer (simulation, sweeps, JSON
// schema, zero-load tables, feasibility, energy) picks it up.
//
// The four paper topologies (Top1/Top4/TopH/TopX) are built-in plugins; the
// two-level hierarchical 1024-core TopH2 (the 2023 journal paper's scaling
// direction) is implemented purely against this interface in noc/toph2.cpp
// and serves as the worked "how to add a topology" example (see README).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster_config.hpp"
#include "noc/butterfly.hpp"
#include "noc/xbar.hpp"
#include "physical/feasibility.hpp"
#include "physical/floorplan.hpp"
#include "physical/wires.hpp"
#include "power/energy_params.hpp"

namespace mempool {

class Cluster;
class Tile;

/// Per-topology tile shape: how many master (request direction) and slave
/// (remote request/response) ports each tile exposes, and whether the tile
/// instantiates its internal fabric at all (the ideal TopX baseline wires
/// cores straight to banks).
struct TileShape {
  bool fabric = true;
  uint32_t master_ports = 0;
  uint32_t slave_ports = 0;
  /// Bank input queue depth; 0 = unbounded (TopX output queueing).
  std::size_t bank_input_capacity = 2;
};

/// Per-tile port configuration: buffer mode per slave port (registered =
/// extra pipeline boundary) and the routing functions of the tile's
/// master-port crossbar (request → master port) and bank-response crossbar
/// (response → local core [0, cores) or remote response port [cores, +K)).
struct TilePorts {
  std::vector<BufferMode> slave_req_modes;
  std::vector<BufferMode> slave_resp_modes;
  RouteFn dir_route;
  RouteFn resp_route;
};

/// Thin facade over the Cluster handed to the plugin hooks: tile access,
/// ownership transfer of the networks the plugin constructs (the Cluster
/// stores them, registers them with the engine in deterministic order, and
/// aggregates their counters), and core-port wiring. Methods are defined in
/// cluster.cpp where Cluster is complete.
class FabricBuilder {
 public:
  const ClusterConfig& config() const;
  uint32_t num_tiles() const;
  Tile& tile(uint32_t t);

  /// Store a network; the Cluster takes ownership. Request networks
  /// evaluate after the master-port crossbars and before the merged request
  /// crossbars; response networks after the bank-response crossbars and
  /// before the remote-response crossbars. Within a direction: group
  /// crossbars first, then butterflies, each in insertion order. Returns a
  /// non-owning pointer for wiring.
  ///
  /// @p shard is the partition the network evaluates in under the sharded
  /// engine (< num_shards()). Because a network's outputs may feed tile
  /// slave ports combinationally, it must live in the shard of the tiles it
  /// *feeds* — for MemPool's hierarchical fabrics that is the destination
  /// group; its input buffers are then the registered shard boundary (wrap
  /// them with shard_boundary() when wiring the source tiles).
  ButterflyNet* add_req_butterfly(std::unique_ptr<ButterflyNet> n,
                                  uint32_t shard = 0);
  ButterflyNet* add_resp_butterfly(std::unique_ptr<ButterflyNet> n,
                                   uint32_t shard = 0);
  XbarSwitch* add_req_group_xbar(std::unique_ptr<XbarSwitch> x,
                                 uint32_t shard = 0);
  XbarSwitch* add_resp_group_xbar(std::unique_ptr<XbarSwitch> x,
                                  uint32_t shard = 0);

  /// Declare @p sink — an input of a network that lives in @p consumer_shard
  /// — to be fed by components of @p producer_shard. When the shards differ
  /// the underlying elastic buffer is switched to commit-barrier visibility
  /// (it must be registered; combinational boundary links fail loudly —
  /// that check is the sharded engine's structural determinism argument).
  /// Returns @p sink so wiring reads naturally:
  ///   src.connect_dir_output(i, b.shard_boundary(g, h, req->input(j)));
  PacketSink* shard_boundary(uint32_t producer_shard, uint32_t consumer_shard,
                             PacketSink* sink);

  /// The stored request butterflies, in insertion order (Top4's core-port
  /// wiring needs plane k's input at the owning tile).
  ButterflyNet* req_butterfly(std::size_t i);

  /// Wire core @p core's issue port: requests to the own tile go to
  /// @p local, everything else to @p remote.
  void wire_core_ports(uint32_t core, PacketSink* local, PacketSink* remote);
  /// Wire core @p core for ideal direct bank access (TopX).
  void wire_core_ideal(uint32_t core);

  /// Create one IdealRespBridge per tile, draining every bank's response
  /// directly into the owning client (TopX; only valid from
  /// attach_clients_hook, after the clients exist).
  void add_ideal_tile_bridges();

 private:
  friend class Cluster;
  explicit FabricBuilder(Cluster* c) : c_(c) {}
  Cluster* c_;
};

/// One self-describing interconnect topology. Implementations are stateless
/// singletons owned by the FabricRegistry; every hook receives the cluster
/// configuration (or a builder carrying it) explicitly, so one plugin
/// instance serves any number of concurrently simulated clusters.
class FabricTopology {
 public:
  virtual ~FabricTopology() = default;

  // --- identity -------------------------------------------------------------
  /// Registry key, display name, and serialization name.
  virtual const std::string& name() const = 0;
  /// One-line summary for --list-topologies.
  virtual std::string description() const = 0;
  /// True for fabrics with a group-local latency tier (TopH, TopH2); drives
  /// the "same group" column of the zero-load table.
  virtual bool hierarchical() const { return false; }

  // --- configuration --------------------------------------------------------
  /// Spec parameter keys this plugin understands; anything else in
  /// TopologySpec::params fails validation (see check_params).
  virtual std::vector<std::string> param_keys() const { return {}; }
  /// Topology-specific structural constraints; throw CheckError on violation.
  /// The generic checks (powers of two, num_groups divides num_tiles, spec
  /// param keys) already ran.
  virtual void validate(const ClusterConfig& cfg) const = 0;
  /// The full-scale canonical configuration (the 256-core paper cluster for
  /// the paper topologies). @p spec is carried into the result verbatim.
  virtual ClusterConfig paper_config(const TopologySpec& spec,
                                     bool scrambling) const;
  /// The smallest valid configuration for fast unit tests.
  virtual ClusterConfig mini_config(const TopologySpec& spec,
                                    bool scrambling) const;

  /// Non-virtual helper: every key in @p spec.params must be in
  /// param_keys(); throws CheckError naming the offender otherwise.
  void check_params(const TopologySpec& spec) const;

  // --- sharded-execution hooks ----------------------------------------------
  /// How many shards the sharded engine may evaluate this fabric's cluster
  /// with. The shard boundary must coincide with registered link boundaries:
  /// a combinational path must never cross shards, so the natural (and for
  /// the built-in fabrics, only) choice is the group hierarchy — TopH shards
  /// per group, TopH2 per super-group (its die-spanning butterflies feed a
  /// whole super-group combinationally), the flat fabrics report 1 and run
  /// the sharded engine degenerately on one shard.
  virtual uint32_t num_shards(const ClusterConfig& cfg) const {
    (void)cfg;
    return 1;
  }
  /// Shard of @p tile (and of everything inside it: cores, banks, I$,
  /// crossbars); must be < num_shards(cfg).
  virtual uint32_t tile_shard(const ClusterConfig& cfg, uint32_t tile) const {
    (void)cfg;
    (void)tile;
    return 0;
  }

  // --- structural hooks (Cluster construction) ------------------------------
  virtual TileShape tile_shape(const ClusterConfig& cfg) const = 0;
  virtual TilePorts tile_ports(const ClusterConfig& cfg, uint32_t tile) const = 0;
  /// Construct the request/response networks and wire them to the tiles'
  /// master/slave ports via the builder.
  virtual void build_networks(FabricBuilder& b) const = 0;
  /// Wire core @p core's issue port (wire_core_ports / wire_core_ideal).
  virtual void wire_core(FabricBuilder& b, uint32_t core) const = 0;
  /// Called after the clients are attached (TopX creates its ideal response
  /// bridges here; most fabrics need nothing).
  virtual void attach_clients_hook(FabricBuilder& b) const { (void)b; }

  // --- analytic models ------------------------------------------------------
  /// Self-reported zero-load round-trip latency (cycles) of a single load
  /// from a core in @p src_tile to a bank in @p dst_tile on an idle fabric.
  /// The registry contract test pins measured probe latencies to this model
  /// for every registered topology.
  virtual uint64_t zero_load_latency(const ClusterConfig& cfg,
                                     uint32_t src_tile,
                                     uint32_t dst_tile) const = 0;
  /// Human-readable latency tiers for the zero-load table's "paper" column
  /// (e.g. "1 / 3 / 5").
  virtual std::string latency_summary(const ClusterConfig& cfg) const = 0;

  // --- physical hooks -------------------------------------------------------
  /// False for fabrics without a physical realization (TopX): they are
  /// skipped by the feasibility analysis.
  virtual bool physically_modeled() const { return false; }
  /// Floorplan of @p cfg (die size, tile grid, groups). The default derives
  /// the tile/group counts from the configuration on the paper's die.
  virtual physical::FloorplanParams floorplan_params(
      const ClusterConfig& cfg) const {
    physical::FloorplanParams fp;
    fp.num_tiles = cfg.num_tiles;
    fp.num_groups = cfg.num_groups;
    return fp;
  }
  /// Top-level wire bundles of @p cfg over @p fp, both travel directions.
  /// @p cfg carries the TopologySpec, so plugin parameters (e.g. TopH2's
  /// "supergroups") shape the wiring like they shape the simulated fabric.
  virtual std::vector<physical::WireBundle> wires(
      const ClusterConfig& cfg, const physical::Floorplan& fp,
      uint32_t request_bits = 80, uint32_t response_bits = 48) const {
    (void)cfg; (void)fp; (void)request_bits; (void)response_bits;
    return {};
  }

  // --- energy hooks ---------------------------------------------------------
  struct EnergyRow {
    std::string label;
    InstrEnergy energy;
  };
  /// Analytic Figure-10-style per-instruction rows (local / remote loads)
  /// priced with @p p on the canonical configuration @p cfg.
  virtual std::vector<EnergyRow> energy_rows(const ClusterConfig& cfg,
                                             const EnergyParams& p) const {
    (void)cfg; (void)p;
    return {};
  }
};

/// Name-keyed registry of fabric-topology plugins. The four paper topologies
/// plus TopH2 register themselves on first use; user plugins register via
/// add() (from a single thread, before simulation starts).
class FabricRegistry {
 public:
  static FabricRegistry& instance();

  /// Register a plugin; throws CheckError on a duplicate name.
  void add(std::unique_ptr<FabricTopology> topo);

  /// nullptr when @p name is not registered.
  static const FabricTopology* find(const std::string& name);
  /// Throws CheckError listing the available topologies on an unknown name.
  static const FabricTopology& get(const std::string& name);
  /// Registered names, in registration order.
  static std::vector<std::string> names();
  /// "Top1, Top4, TopH, TopX, TopH2" — for error messages and CLI help.
  static std::string available();

 private:
  FabricRegistry();  // registers the built-in plugins
  std::vector<std::unique_ptr<FabricTopology>> topos_;
};

/// Registry-driven physical feasibility: analyze every physically modeled
/// topology on its own floorplan, each against the monolithic central-hub
/// baseline (star_wires) on that same floorplan — for the paper topologies
/// this reproduces the original Top1-relative verdicts exactly.
std::vector<physical::FeasibilityReport> analyze_all_topologies(
    const physical::FeasibilityParams& base = physical::FeasibilityParams{});

}  // namespace mempool
