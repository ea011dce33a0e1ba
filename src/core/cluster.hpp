#pragma once
// The MemPool cluster: tiles plus a global interconnect built by a
// fabric-topology plugin (noc/fabric.hpp).
//
// The Cluster itself is topology-agnostic. It owns the tiles, the per-core
// issue ports, and generic containers for the networks a plugin constructs;
// every topology-specific decision — tile port shape, buffer modes, routing
// functions, which networks exist and how they wire to the tiles, how core
// ports attach — is delegated to the FabricTopology registered under
// ClusterConfig::topology.name. Registering a new plugin (see README,
// "adding a topology"; noc/toph2.cpp is the worked example) therefore adds a
// fabric without touching this file.
//
// Built-in plugins (noc/topologies_builtin.cpp, noc/toph2.cpp):
//  Top1  — per tile one master port (4×1 concentrator), a single 64×64
//          radix-4 butterfly each way, pipeline register midway (zero-load
//          5 cycles).
//  Top4  — four parallel butterflies; core i of every tile owns port i
//          (point-to-point, no concentrator).
//  TopH  — four local groups; intra-group 16×16 fully-connected crossbar
//          (zero-load 3 cycles), and one 16×16 radix-4 butterfly per ordered
//          pair of groups (zero-load 5 cycles).
//  TopX  — ideal, physically infeasible baseline: conflict-free single-cycle
//          access to every bank (output-queued; banks still serialize).
//  TopH2 — two-level hierarchy at 1024 cores: 16 groups of 16 tiles inside
//          4 super-groups; crossbar + two butterfly tiers (1/3/5/7 cycles).
//
// Evaluation order per cycle: bank-response crossbars → response networks
// (group crossbars, then butterflies) → remote-response crossbars / ideal
// bridges → I$ → clients → memory-hierarchy engines (tcdm+l2's DMA
// frontends/backends; nothing for tcdm) → master-port crossbars → request
// networks (group crossbars, then butterflies) → merged request crossbars →
// banks → commit. Plugins insert networks into these fixed phases via the
// FabricBuilder; the memory system registers its engines via
// MemoryInstance::add_components.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/pinned_vector.hpp"
#include "core/client.hpp"
#include "core/cluster_config.hpp"
#include "core/layout.hpp"
#include "core/tile.hpp"
#include "mem/imem.hpp"
#include "mem/memsys.hpp"
#include "noc/butterfly.hpp"
#include "noc/xbar.hpp"
#include "sim/engine.hpp"

namespace mempool {

class Cluster;
class DmaPortal;
class FabricBuilder;
class FabricTopology;

/// Per-core request issue port (address decoder at the core's output).
class CorePort final : public RequestPort {
 public:
  CorePort(Cluster* cluster, uint32_t core);
  bool try_issue(const Packet& p) override;

  /// DRC: the sinks try_issue pushes into, declared on the client's behalf.
  void describe(GraphVisitor& v) const override;

 private:
  friend class Cluster;
  friend class FabricBuilder;
  Cluster* cluster_;
  uint32_t tile_;
  PacketSink* local_ = nullptr;   // merged request crossbar, own tile
  PacketSink* remote_ = nullptr;  // master-port crossbar or dedicated port
  bool ideal_ = false;            // TopX: direct bank access
};

/// TopX response path: one registered buffer per bank, drained completely
/// every cycle (the ideal fabric has unlimited response bandwidth; the
/// register models the banks' one-cycle output latency).
class IdealRespBridge final : public Component {
 public:
  IdealRespBridge(std::string name, uint32_t num_banks,
                  const std::vector<Client*>* clients);
  PacketSink* bank_input(uint32_t b) { return &sinks_[b]; }
  void register_clocked(Engine& engine, uint32_t shard = 0);
  void evaluate(uint64_t cycle) override;
  bool idle() const override;

  /// DRC self-description: reads the per-bank buffers, delivers into every
  /// client (terminal edges).
  void describe(GraphVisitor& v) const override;

  /// Checkpoint: the per-bank registered response buffers.
  void save_state(StateSink& s) const override;
  void load_state(StateSource& s) override;

 private:
  PinnedVector<PacketBuffer> bufs_;  // pinned: ElasticBuffer is non-movable
  std::vector<BufferSink<PacketBuffer>> sinks_;
  const std::vector<Client*>* clients_;
};

class Cluster {
 public:
  Cluster(const ClusterConfig& cfg, const InstrMem* imem);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Attach exactly num_cores() clients (cores or traffic generators), in
  /// global core order. Must be called before build().
  void attach_clients(const std::vector<Client*>& clients);

  /// Add every component to the engine in evaluation order and register all
  /// clocked state. Call once.
  void build(Engine& engine);

  RequestPort* port(uint32_t core) { return ports_[core].get(); }
  const ClusterConfig& config() const { return cfg_; }
  const MemoryLayout& layout() const { return layout_; }

  /// The fabric-topology plugin this cluster was built with.
  const FabricTopology& fabric() const { return *fabric_; }

  /// The memory-system instance (mem/memsys.hpp) this cluster was built
  /// with: layout, banks, and any L2/DMA machinery behind ClusterConfig's
  /// MemorySpec.
  const MemoryInstance& memsys() const { return *memsys_; }

  /// DMA control interface of @p tile's group, or nullptr when the memory
  /// system has no DMA engine (tcdm). Cores reach it through the DMA CSRs.
  DmaPortal* dma_portal(uint32_t tile);

  /// The memory hierarchy's aggregate counters (all zero for tcdm).
  MemoryStats memory_stats() const { return memsys_->stats(); }

  Tile& tile(uint32_t t) { return *tiles_[t]; }
  const Tile& tile(uint32_t t) const { return *tiles_[t]; }
  uint32_t num_tiles() const { return static_cast<uint32_t>(tiles_.size()); }

  /// Shards the fabric plugin partitions this cluster into (1 for the flat
  /// fabrics) and the shard of each tile — what build() hands the engine and
  /// what callers size per-shard structures (monitors, executors) with.
  uint32_t num_shards() const;
  uint32_t tile_shard(uint32_t tile) const;

  // --- backdoor access (program loading / result checking) -----------------
  uint32_t read_word(uint32_t cpu_addr) const;
  void write_word(uint32_t cpu_addr, uint32_t value);

  // --- aggregate statistics --------------------------------------------------
  struct FabricStats {
    uint64_t tile_req_traversals = 0;
    uint64_t tile_resp_traversals = 0;
    uint64_t dir_traversals = 0;
    uint64_t remote_resp_traversals = 0;
    uint64_t group_local_traversals = 0;  ///< Group crossbars, both ways.
    uint64_t butterfly_traversals = 0;    ///< Global butterflies, both ways.
    uint64_t bank_accesses = 0;
    uint64_t bank_stall_cycles = 0;
    uint64_t icache_hits = 0;
    uint64_t icache_misses = 0;   ///< Miss *queries* (retries included).
    uint64_t icache_refills = 0;  ///< Actual line fills.
  };
  FabricStats fabric_stats() const;

  /// True when no packet is in flight anywhere in the fabric.
  bool fabric_idle() const;

 private:
  friend class CorePort;
  friend class FabricBuilder;
  friend class MemoryBuilder;

  /// validate() before any member that derives from the config is built, so
  /// a bad configuration fails with the validation error, not an
  /// unexplained CHECK deep inside layout/bank construction.
  static ClusterConfig validated(ClusterConfig cfg);

  /// "0->1 x16, 1->0 x16" — the shard boundaries declared so far, for
  /// FabricBuilder::shard_boundary diagnostics.
  std::string boundary_registry() const;

  ClusterConfig cfg_;
  std::unique_ptr<MemoryInstance> memsys_;  // before layout_: supplies it
  MemoryLayout layout_;
  const InstrMem* imem_;
  const FabricTopology* fabric_;  // registry-owned, never null after ctor
  std::vector<std::unique_ptr<Tile>> tiles_;
  std::vector<std::unique_ptr<ButterflyNet>> req_bflys_;
  std::vector<std::unique_ptr<ButterflyNet>> resp_bflys_;
  std::vector<std::unique_ptr<XbarSwitch>> group_req_lxbars_;
  std::vector<std::unique_ptr<XbarSwitch>> group_resp_lxbars_;
  // Shard tags parallel to the four network containers (FabricBuilder::add_*).
  std::vector<uint32_t> req_bfly_shards_;
  std::vector<uint32_t> resp_bfly_shards_;
  std::vector<uint32_t> group_req_shards_;
  std::vector<uint32_t> group_resp_shards_;
  std::vector<std::unique_ptr<IdealRespBridge>> bridges_;
  std::vector<Client*> clients_;
  std::vector<std::unique_ptr<CorePort>> ports_;
  /// (producer shard, consumer shard) -> boundaries declared through
  /// FabricBuilder::shard_boundary, for wiring diagnostics.
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> boundary_counts_;
  bool built_ = false;
};

}  // namespace mempool
