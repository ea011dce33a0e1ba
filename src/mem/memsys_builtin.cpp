// The two built-in memory-system plugins:
//
//  tcdm    — the seed-era flat shared-L1 SPM. instantiate() returns the base
//            MemoryInstance, whose defaults *are* the pre-registry behavior
//            (layout straight from the config, banks exactly as the Tile
//            constructor used to build them, no extra components), so the
//            default cluster is bit-identical by construction.
//
//  tcdm+l2 — tcdm plus a banked L2 model behind one latency/bandwidth-
//            limited AXI port per group and a per-group DMA engine
//            (mem/dma.hpp). The L2 occupies a separate CPU-address window
//            (default 0xA0000000); cores reach it only through DMA
//            transfers, programmed via the DMA CSRs (isa/csr.hpp) that
//            kernels/runtime.hpp wraps as dma_copy_in/out + dma_wait.
//
// Spec parameters of tcdm+l2 (all non-negative integers):
//   l2_bytes            L2 capacity               (default 8 MiB)
//   l2_latency          request-to-first-data     (default 20 cycles)
//   l2_banks            interleaved L2 banks      (default 16)
//   axi_words_per_cycle per-group AXI bandwidth   (default 8 words/cycle)
//   burst_words         words per AXI burst       (default 64)

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "core/tile.hpp"
#include "mem/dma.hpp"
#include "mem/memsys.hpp"

namespace mempool {
namespace memsys {

// --- tcdm ---------------------------------------------------------------------

namespace {

class TcdmSystem final : public MemorySystem {
 public:
  const std::string& name() const override {
    static const std::string n = "tcdm";
    return n;
  }
  std::string description() const override {
    return "flat shared-L1 SPM (the paper's cluster; every access hits)";
  }
  std::unique_ptr<MemoryInstance> instantiate(
      const ClusterConfig& cfg) const override {
    return std::make_unique<MemoryInstance>(cfg);
  }
};

// --- tcdm+l2 ------------------------------------------------------------------

/// Parse a param and range-check it *before* narrowing, so an out-of-range
/// spec value fails with the bound instead of silently wrapping to uint32.
uint32_t l2_param(const MemorySpec& spec, const char* key, uint32_t fallback,
                  uint64_t min, uint64_t max) {
  const uint64_t v = spec.param_uint(key, fallback);
  MEMPOOL_CHECK_MSG(v >= min && v <= max,
                    "memory system 'tcdm+l2' param '"
                        << key << "' (" << v << ") must be in [" << min
                        << ", " << max << "]");
  return static_cast<uint32_t>(v);
}

L2Params l2_params_from(const ClusterConfig& cfg) {
  const MemorySpec& spec = cfg.memory;
  L2Params p;
  // The window [base, 0xC0000000) bounds the capacity at 512 MiB.
  p.bytes = l2_param(spec, "l2_bytes", p.bytes, 4096,
                     0xC000'0000ull - p.base);
  p.latency = l2_param(spec, "l2_latency", p.latency, 1, 1u << 20);
  p.banks = l2_param(spec, "l2_banks", p.banks, 1, 1u << 16);
  p.words_per_cycle =
      l2_param(spec, "axi_words_per_cycle", p.words_per_cycle, 1, 1u << 12);
  p.burst_words = l2_param(spec, "burst_words", p.burst_words, 1, 1u << 20);
  return p;
}

class TcdmL2Instance final : public MemoryInstance {
 public:
  explicit TcdmL2Instance(const ClusterConfig& cfg)
      : MemoryInstance(cfg), l2_(l2_params_from(cfg)) {}

  void build(MemoryBuilder& b) override {
    const uint32_t groups = cfg_.num_groups;
    shard_.resize(groups);
    for (uint32_t g = 0; g < groups; ++g) shard_[g] = b.group_shard(g);

    for (uint32_t g = 0; g < groups; ++g) {
      frontends_.push_back(std::make_unique<DmaFrontend>(
          "dma" + std::to_string(g) + ".front", g, cfg_, &b.layout(), &l2_));
      backends_.push_back(std::make_unique<DmaBackend>(
          "dma" + std::to_string(g) + ".back", g, cfg_, &b.layout(), &l2_));
      std::vector<SpmBank*> banks;
      const uint32_t tpg = cfg_.tiles_per_group();
      banks.reserve(std::size_t{tpg} * cfg_.banks_per_tile);
      for (uint32_t t = g * tpg; t < (g + 1) * tpg; ++t) {
        for (uint32_t k = 0; k < cfg_.banks_per_tile; ++k) {
          banks.push_back(&b.tile(t).bank(k));
        }
      }
      backends_.back()->bind_banks(std::move(banks));
    }

    // Command and completion buffers, one per ordered group pair; marked as
    // shard boundaries where the fabric plugin put the groups into
    // different shards (the structural determinism contract of PR 4's
    // sharded engine).
    for (uint32_t g = 0; g < groups; ++g) {
      for (uint32_t h = 0; h < groups; ++h) {
        ElasticBuffer<DmaSliceCmd>* cmd = backends_[h]->cmd_input(g);
        if (shard_[g] != shard_[h]) cmd->mark_shard_boundary(shard_[h]);
        frontends_[g]->connect_backend(h, cmd);

        ElasticBuffer<DmaCompletion>* comp =
            frontends_[g]->completion_input(h);
        if (shard_[g] != shard_[h]) comp->mark_shard_boundary(shard_[g]);
        backends_[h]->connect_frontend(g, comp);
      }
    }
  }

  void add_components(Engine& engine) override {
    for (uint32_t g = 0; g < frontends_.size(); ++g) {
      engine.add_component(frontends_[g].get(), shard_[g]);
      frontends_[g]->register_clocked(engine, shard_[g]);
    }
    for (uint32_t g = 0; g < backends_.size(); ++g) {
      engine.add_component(backends_[g].get(), shard_[g]);
      backends_[g]->bind_engine(&engine);
      backends_[g]->register_clocked(engine, shard_[g]);
    }
  }

  DmaPortal* dma_portal(uint32_t group) override {
    MEMPOOL_CHECK(group < frontends_.size());
    return frontends_[group].get();
  }

  bool handles(uint32_t cpu_addr) const override {
    return l2_.contains(cpu_addr);
  }
  uint32_t backdoor_read(uint32_t cpu_addr) const override {
    return l2_.read(cpu_addr);
  }
  void backdoor_write(uint32_t cpu_addr, uint32_t value) override {
    l2_.write(cpu_addr, value);
  }

  bool idle() const override {
    for (const auto& f : frontends_) {
      if (f->outstanding() != 0) return false;
    }
    return true;
  }

  MemoryStats stats() const override {
    MemoryStats s;
    for (const auto& f : frontends_) {
      s.dma_descriptors += f->descriptors();
      s.dma_slices += f->slices_issued();
    }
    for (const auto& b : backends_) {
      s.dma_bursts += b->bursts();
      s.dma_words_in += b->words_in();
      s.dma_words_out += b->words_out();
      s.dma_busy_cycles += b->busy_cycles();
      s.dma_busy_cycles_max = std::max(s.dma_busy_cycles_max,
                                       b->busy_cycles());
      s.l2_reads += b->l2_reads();
      s.l2_writes += b->l2_writes();
    }
    return s;
  }

 private:
  L2Memory l2_;
  std::vector<uint32_t> shard_;  ///< Per group.
  std::vector<std::unique_ptr<DmaFrontend>> frontends_;
  std::vector<std::unique_ptr<DmaBackend>> backends_;
};

class TcdmL2System final : public MemorySystem {
 public:
  const std::string& name() const override {
    static const std::string n = "tcdm+l2";
    return n;
  }
  std::string description() const override {
    return "shared-L1 SPM + banked L2 behind per-group AXI ports with "
           "per-group DMA engines (journal MemPool)";
  }
  bool provides_dma() const override { return true; }
  std::vector<std::string> param_keys() const override {
    return {"l2_bytes", "l2_latency", "l2_banks", "axi_words_per_cycle",
            "burst_words"};
  }
  void validate(const ClusterConfig& cfg) const override {
    // l2_param range-checks every parameter (capacity bounded by the window
    // below the control registers); only word alignment is left to assert.
    const L2Params p = l2_params_from(cfg);
    MEMPOOL_CHECK_MSG(p.bytes % 4 == 0,
                      "l2_bytes (" << p.bytes << ") must be a word multiple");
  }
  std::unique_ptr<MemoryInstance> instantiate(
      const ClusterConfig& cfg) const override {
    return std::make_unique<TcdmL2Instance>(cfg);
  }
};

}  // namespace

std::unique_ptr<MemorySystem> make_tcdm() {
  return std::make_unique<TcdmSystem>();
}

std::unique_ptr<MemorySystem> make_tcdm_l2() {
  return std::make_unique<TcdmL2System>();
}

}  // namespace memsys
}  // namespace mempool
