#pragma once
// Pluggable memory-hierarchy API, the exact mirror of the fabric-topology
// registry (noc/fabric.hpp) for the memory side of the cluster.
//
// A memory system is one self-contained plugin implementing MemorySystem: it
// owns bank construction, the address-map/scrambler choice, and its
// per-level latency/bandwidth parameters (validated against param_keys).
// Because a memory hierarchy — unlike a topology —
// carries per-cluster state (L2 storage, DMA engines in flight), the plugin
// is a stateless factory: instantiate() returns a MemoryInstance holding
// everything cluster-local, and one plugin serves any number of concurrently
// simulated clusters.
//
// Built-in plugins (mem/memsys_builtin.cpp):
//  tcdm    — the seed-era flat, always-hit shared L1 SPM: banks constructed
//            exactly as before the registry existed, no extra components.
//            Bit-identical to the pre-registry cluster by construction.
//  tcdm+l2 — tcdm plus a banked L2 model behind a latency/bandwidth-limited
//            AXI port per group and a per-group DMA engine (mem/dma.hpp)
//            that moves burst transfers between L2 and the L1 banks. Cores
//            program it through custom CSRs (kernels/runtime.hpp wraps them
//            as dma_copy_in / dma_copy_out / dma_wait intrinsics).
//
// The Cluster contains zero memory-system-specific code: it asks the
// registered plugin for the layout, the banks, and the engine components, so
// adding a hierarchy (an L3, a streaming prefetcher, a banking-conflict
// model) never touches core/, the runner, or the benches — register a plugin
// and --memory / the sweep axis / the JSON schema pick it up.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster_config.hpp"
#include "core/layout.hpp"
#include "mem/bank.hpp"
#include "sim/engine.hpp"

namespace mempool {

class Cluster;
class DmaPortal;
class Tile;

/// Aggregate counters of a memory instance (all zero for plain tcdm).
/// Exactly mergeable and compared bit-for-bit by the engine-equivalence
/// suite, like Cluster::FabricStats.
struct MemoryStats {
  uint64_t dma_descriptors = 0;  ///< Transfers submitted by cores.
  uint64_t dma_slices = 0;       ///< Per-group slices those split into.
  uint64_t dma_bursts = 0;       ///< AXI bursts issued.
  uint64_t dma_words_in = 0;     ///< Words moved L2 -> TCDM.
  uint64_t dma_words_out = 0;    ///< Words moved TCDM -> L2.
  uint64_t dma_busy_cycles = 0;  ///< Sum of per-group engine busy windows.
  uint64_t dma_busy_cycles_max = 0;  ///< Max over the group engines.
  uint64_t l2_reads = 0;         ///< L2 words read (by the DMA).
  uint64_t l2_writes = 0;        ///< L2 words written (by the DMA).

  bool operator==(const MemoryStats&) const = default;
};

/// Thin facade over the Cluster handed to MemoryInstance::build: cluster
/// configuration and layout, tile/bank access for the DMA's dedicated bank
/// port, and the fabric plugin's shard partition so memory components can be
/// registered in the shard of the tiles they touch. Methods are defined in
/// cluster.cpp where Cluster is complete.
class MemoryBuilder {
 public:
  const ClusterConfig& config() const;
  const MemoryLayout& layout() const;
  uint32_t num_tiles() const;
  Tile& tile(uint32_t t);

  /// The fabric plugin's shard partition (see FabricTopology::num_shards).
  uint32_t num_shards() const;
  uint32_t tile_shard(uint32_t t) const;
  /// Shard of group @p g; CHECKs that every tile of the group agrees (the
  /// built-in fabrics shard along the group hierarchy, so they always do).
  uint32_t group_shard(uint32_t g) const;

 private:
  friend class Cluster;
  explicit MemoryBuilder(Cluster* c) : c_(c) {}
  Cluster* c_;
};

/// Per-cluster state of a memory system: storage, engine components, stats.
/// Created by MemorySystem::instantiate and owned by the Cluster. The base
/// class implements the flat tcdm behavior (layout straight from the config,
/// banks exactly as the seed constructed them, no components), so tcdm
/// itself is the trivial subclass and richer hierarchies override what they
/// add.
class MemoryInstance {
 public:
  explicit MemoryInstance(const ClusterConfig& cfg) : cfg_(cfg) {}
  virtual ~MemoryInstance() = default;

  MemoryInstance(const MemoryInstance&) = delete;
  MemoryInstance& operator=(const MemoryInstance&) = delete;

  const ClusterConfig& config() const { return cfg_; }

  /// The CPU-visible memory layout (interleaved map + scrambler). Called
  /// once, before the tiles exist.
  virtual MemoryLayout make_layout() const { return MemoryLayout(cfg_); }

  /// Construct tile @p t's L1 banks, in bank order; the tile takes
  /// ownership. @p input_capacity is the fabric plugin's request queue depth
  /// (0 = unbounded, TopX).
  virtual std::vector<std::unique_ptr<SpmBank>> make_banks(
      uint32_t t, std::size_t input_capacity);

  /// Create the hierarchy's engine components (DMA engines, ports) and wire
  /// them; called after the tiles and fabric networks exist, before the
  /// clients attach. The default (tcdm) builds nothing.
  virtual void build(MemoryBuilder& b) { (void)b; }

  /// Register the components built above with the engine, each in the shard
  /// build() assigned it. The cluster calls this once, after the clients and
  /// before the request path (memory engines observe core submissions of the
  /// same cycle, banks commit after them).
  virtual void add_components(Engine& engine) { (void)engine; }

  /// The DMA control interface of @p group, or nullptr when this hierarchy
  /// has no DMA engine (tcdm): cores reach it through the DMA CSRs.
  virtual DmaPortal* dma_portal(uint32_t group) {
    (void)group;
    return nullptr;
  }

  /// Backdoor access beyond the L1 SPM (the L2 window): handles() says
  /// whether @p cpu_addr belongs to this hierarchy's extra address space,
  /// and the accessors CHECK-fail when it does not.
  virtual bool handles(uint32_t cpu_addr) const {
    (void)cpu_addr;
    return false;
  }
  virtual uint32_t backdoor_read(uint32_t cpu_addr) const;
  virtual void backdoor_write(uint32_t cpu_addr, uint32_t value);

  /// True when no transfer is in flight anywhere in the hierarchy (the
  /// cluster's fabric_idle — and with it the end-of-run drain — includes
  /// this).
  virtual bool idle() const { return true; }

  virtual MemoryStats stats() const { return {}; }

 protected:
  ClusterConfig cfg_;
};

/// One self-describing memory hierarchy. Implementations are stateless
/// singletons owned by the MemoryRegistry; everything per-cluster lives in
/// the MemoryInstance they instantiate.
class MemorySystem {
 public:
  virtual ~MemorySystem() = default;

  // --- identity -------------------------------------------------------------
  /// Registry key, display name, and serialization name (sweep-JSON v3).
  virtual const std::string& name() const = 0;
  /// One-line summary for --list-memories.
  virtual std::string description() const = 0;
  /// True when instances expose DMA portals (kernels with dma_copy_in/out
  /// intrinsics require this; quickstart keys its DMA demo on it).
  virtual bool provides_dma() const { return false; }

  // --- configuration --------------------------------------------------------
  /// Spec parameter keys this plugin understands; anything else in
  /// MemorySpec::params fails validation (see check_params).
  virtual std::vector<std::string> param_keys() const { return {}; }
  /// Plugin-specific structural constraints; throw CheckError on violation.
  /// The generic geometry checks (powers of two, sequential-region bounds)
  /// already ran.
  virtual void validate(const ClusterConfig& cfg) const { (void)cfg; }

  /// Non-virtual helper: every key in @p spec.params must be in
  /// param_keys(); throws CheckError naming the offender otherwise.
  void check_params(const MemorySpec& spec) const;

  // --- factory --------------------------------------------------------------
  virtual std::unique_ptr<MemoryInstance> instantiate(
      const ClusterConfig& cfg) const = 0;
};

/// Name-keyed registry of memory-system plugins. tcdm and tcdm+l2 register
/// themselves on first use; user plugins register via add() (from a single
/// thread, before simulation starts).
class MemoryRegistry {
 public:
  static MemoryRegistry& instance();

  /// Register a plugin; throws CheckError on a duplicate name.
  void add(std::unique_ptr<MemorySystem> sys);

  /// nullptr when @p name is not registered.
  static const MemorySystem* find(const std::string& name);
  /// Throws CheckError listing the available memory systems on an unknown
  /// name.
  static const MemorySystem& get(const std::string& name);
  /// Registered names, in registration order.
  static std::vector<std::string> names();
  /// "tcdm, tcdm+l2" — for error messages and CLI help.
  static std::string available();

 private:
  MemoryRegistry();  // registers the built-in plugins
  std::vector<std::unique_ptr<MemorySystem>> systems_;
};

}  // namespace mempool
