#pragma once
// Configuration of a MemPool cluster. The paper's silicon configuration is
// the default: 64 tiles × 4 cores × 16 banks × 1 KiB = 256 cores and 1 MiB of
// shared L1 SPM, with a 2 KiB 4-way shared I$ per tile.
//
// Which interconnect connects the tiles is an *open* axis: a cluster names a
// fabric-topology plugin by TopologySpec and every topology-specific decision
// (tile port shape, network construction, zero-load model, physical wiring,
// energy rows, validation) is dispatched through the FabricTopology interface
// (noc/fabric.hpp).

#include <cstdint>
#include <map>
#include <string>

#include "common/json.hpp"
#include "mem/icache.hpp"

namespace mempool {

/// Names a fabric-topology plugin and carries its free-form parameters
/// (serialized verbatim into a SimRequest's canonical form). Parameter keys
/// are validated against FabricTopology::param_keys() in
/// ClusterConfig::validate(): unknown or ill-typed parameters throw there,
/// not deep inside cluster construction.
struct TopologySpec {
  std::string name = "TopH";
  std::map<std::string, Json> params;

  TopologySpec() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  TopologySpec(const char* n) : name(n) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  TopologySpec(std::string n) : name(std::move(n)) {}
  TopologySpec(std::string n, std::map<std::string, Json> p)
      : name(std::move(n)), params(std::move(p)) {}

  /// Typed parameter accessor; returns @p fallback when absent and throws
  /// CheckError when present but not a non-negative integer.
  uint64_t param_uint(const std::string& key, uint64_t fallback) const;

  bool operator==(const TopologySpec&) const = default;
};

/// Names a memory-system plugin (mem/memsys.hpp) and carries its free-form
/// parameters (serialized verbatim into a SimRequest's canonical form), the
/// exact mirror of TopologySpec for the memory hierarchy: parameter keys are
/// validated against MemorySystem::param_keys() in ClusterConfig::validate(),
/// so unknown or ill-typed parameters throw there, not deep inside
/// construction. The default, "tcdm", is the seed-era flat always-hit L1.
struct MemorySpec {
  std::string name = "tcdm";
  std::map<std::string, Json> params;

  MemorySpec() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  MemorySpec(const char* n) : name(n) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  MemorySpec(std::string n) : name(std::move(n)) {}
  MemorySpec(std::string n, std::map<std::string, Json> p)
      : name(std::move(n)), params(std::move(p)) {}

  /// Typed parameter accessor; returns @p fallback when absent and throws
  /// CheckError when present but not a non-negative integer.
  uint64_t param_uint(const std::string& key, uint64_t fallback) const;

  bool operator==(const MemorySpec&) const = default;
};

/// Snitch core timing parameters (Section III-B).
struct CoreConfig {
  uint32_t num_outstanding = 8;  ///< ROB entries = max outstanding loads.
  uint32_t mul_latency = 3;      ///< Pipelined; result usable after N cycles.
  uint32_t div_latency = 21;     ///< Blocking iterative divider.
  uint32_t branch_taken_penalty = 2;  ///< Cycles consumed by a taken branch.
  uint32_t stack_bytes = 1024;   ///< Per-core stack carved from the
                                 ///< sequential region by the runtime.
  /// Snitch's LSU tags outstanding loads and writes the register file on
  /// response arrival (the tile ROB already restored per-tag ordering), so a
  /// slow response does not head-of-line-block younger ones. Set to false to
  /// model a strictly in-order single-port writeback instead.
  bool writeback_on_arrival = true;
};

struct ClusterConfig {
  TopologySpec topology;            ///< Fabric plugin (default: TopH).
  MemorySpec memory;                ///< Memory-system plugin (default: tcdm).
  uint32_t num_tiles = 64;
  uint32_t cores_per_tile = 4;
  uint32_t banks_per_tile = 16;
  uint32_t bank_bytes = 1024;       ///< 16 KiB SPM per tile (paper).
  uint32_t seq_region_bytes = 4096; ///< 2^S bytes of sequential region/tile.
  bool scrambling = true;           ///< Hybrid addressing scheme on/off.
  uint32_t num_groups = 4;          ///< Local groups (TopH: 4, TopH2: 16).
  CoreConfig core;
  ICacheConfig icache;

  // --- derived quantities ---------------------------------------------------
  uint32_t num_cores() const { return num_tiles * cores_per_tile; }
  uint32_t num_banks() const { return num_tiles * banks_per_tile; }
  uint32_t spm_bytes() const { return num_banks() * bank_bytes; }
  uint32_t tiles_per_group() const { return num_tiles / num_groups; }
  uint32_t group_of_tile(uint32_t tile) const { return tile / tiles_per_group(); }
  uint32_t tile_of_core(uint32_t core_id) const {
    return core_id / cores_per_tile;
  }

  /// Display name including the scrambling suffix used in Figure 7
  /// ("TopHS" = TopH with scrambling logic).
  std::string display_name() const;

  /// Throws CheckError when structurally invalid: non-power-of-two sizes,
  /// zero / non-dividing num_groups, an unregistered topology name (the
  /// error lists the available plugins), unknown or ill-typed spec params,
  /// or a violated plugin-specific constraint (butterfly radix mismatch...).
  void validate() const;

  // --- canonical configurations --------------------------------------------
  /// The registered plugin's full-scale configuration with the given
  /// topology: the 256-core paper cluster for the four paper topologies, the
  /// 1024-core two-level cluster for TopH2.
  static ClusterConfig paper(const TopologySpec& spec, bool scrambling);
  /// The plugin's smallest valid configuration for fast unit tests
  /// (16 tiles / 64 cores for the paper topologies).
  static ClusterConfig mini(const TopologySpec& spec, bool scrambling = true);
};

}  // namespace mempool
