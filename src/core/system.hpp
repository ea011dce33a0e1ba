#pragma once
// Execution-driven MemPool system: cluster + Snitch cores + program image.
// This is the facade the examples, kernels and Figure-7 benches use.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/cluster_config.hpp"
#include "core/snitch.hpp"
#include "isa/encoding.hpp"
#include "mem/imem.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"

namespace mempool {

class System {
 public:
  explicit System(const ClusterConfig& cfg);
  ~System();

  /// Select the scheduler stepping this system (default: active). Sharded
  /// mode partitions the cluster along the fabric's groups and steps the
  /// shards on @p sim_threads threads (leader + helper threads owned by the
  /// engine), bit-identically to the sequential engines. Must be called
  /// before the first run().
  void configure_engine(EngineMode mode, unsigned sim_threads = 1);

  /// Load the program image and instantiate one Snitch core per core slot
  /// (all cores boot at @p boot_pc, defaulting to the image base). Must be
  /// called exactly once before run().
  void load_program(const std::vector<uint32_t>& words,
                    uint32_t base = InstrMem::kBase, uint32_t boot_pc = 0);

  /// Backdoor data access in CPU address space (scrambler applied), used to
  /// preload inputs and read back results — the RTL testbench equivalent.
  void write_word(uint32_t cpu_addr, uint32_t value);
  uint32_t read_word(uint32_t cpu_addr) const;
  void write_words(uint32_t cpu_addr, const std::vector<uint32_t>& values);
  std::vector<uint32_t> read_words(uint32_t cpu_addr, std::size_t count) const;

  struct RunResult {
    uint64_t cycles = 0;      ///< Cycles simulated by this run() call.
    bool all_halted = false;  ///< Every core wrote EXIT / executed ecall.
  };

  /// Advance until every core halted or @p max_cycles elapsed.
  RunResult run(uint64_t max_cycles);

  SnitchCore& core(uint32_t i) { return *cores_[i]; }
  const SnitchCore& core(uint32_t i) const { return *cores_[i]; }
  uint32_t num_cores() const { return cfg_.num_cores(); }
  Cluster& cluster() { return *cluster_; }
  const Cluster& cluster() const { return *cluster_; }
  Engine& engine() { return engine_; }
  const ClusterConfig& config() const { return cfg_; }

  /// Concatenated console output of all cores (kCtrlPutChar writes).
  std::string console() const;

  /// Sum of a per-core stat over all cores.
  SnitchCore::Stats aggregate_core_stats() const;

 private:
  ClusterConfig cfg_;
  InstrMem imem_;
  std::unique_ptr<Cluster> cluster_;
  Engine engine_;
  std::vector<isa::Instr> decoded_;
  uint32_t program_base_ = InstrMem::kBase;
  std::vector<std::unique_ptr<SnitchCore>> cores_;
  bool loaded_ = false;
  bool engine_configured_ = false;
};

}  // namespace mempool
