// Quickstart: build a MemPool cluster, write a small RISC-V program in
// textual assembly, run it on all 256 cores, and inspect the results.
//
//   $ ./quickstart
//   $ ./quickstart --engine sharded --sim-threads 4   # parallel cycles
//   $ ./quickstart --memory tcdm+l2                   # + L2/DMA demo
//
// Each core computes the sum 1..hartid with a simple loop, stores it into
// the shared L1, and exits with the result; the host verifies via the
// backdoor, then prints a few performance counters. The optional flags pick
// the engine mode (sharded steps the cluster's four TopH groups on four
// threads, bit-identically to the default sequential scheduler) and the
// memory system: with a DMA-capable one (tcdm+l2) a second run demos a
// double-buffered tiled matmul whose matrices live in L2 and stream through
// the SPM via the per-group DMA engines.

#include <cstdio>
#include <cstring>

#include "common/parse.hpp"
#include "core/system.hpp"
#include "isa/text_asm.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "mem/memsys.hpp"

using namespace mempool;

int main(int argc, char** argv) {
  EngineMode mode = EngineMode::kActive;
  unsigned sim_threads = 1;
  std::string memory = "tcdm";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      if (!engine_mode_from_name(argv[++i], &mode)) {
        std::fprintf(stderr, "unknown engine '%s' (active|dense|sharded)\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sim-threads") == 0 && i + 1 < argc) {
      if (!parse_number(argv[++i], &sim_threads) || sim_threads == 0) {
        std::fprintf(stderr, "--sim-threads wants a positive integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--memory") == 0 && i + 1 < argc) {
      memory = argv[++i];
      if (MemoryRegistry::find(memory) == nullptr) {
        std::fprintf(stderr, "unknown memory system '%s'; available: %s\n",
                     memory.c_str(), MemoryRegistry::available().c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: quickstart [--engine active|dense|sharded] "
                   "[--sim-threads N] [--memory NAME]\n");
      return 2;
    }
  }
  if (sim_threads > 1 && mode != EngineMode::kSharded) {
    std::fprintf(stderr, "--sim-threads only applies to --engine sharded\n");
    return 2;
  }

  // The paper's silicon configuration: 64 tiles x 4 cores x 16 banks, TopH
  // interconnect, hybrid addressing (scrambling) enabled. The memory system
  // is an open axis: "tcdm" is the paper's flat L1, "tcdm+l2" adds the L2 +
  // per-group DMA of the journal paper.
  ClusterConfig cfg = ClusterConfig::paper("TopH", true);
  cfg.memory = MemorySpec{memory};
  cfg.validate();
  System sys(cfg);
  sys.configure_engine(mode, sim_threads);

  const std::string program = R"(
    _start:
      csrr a0, mhartid       # who am I?
      li   t0, 0             # acc
      mv   t1, a0
    loop:
      beqz t1, done
      add  t0, t0, t1
      addi t1, t1, -1
      j    loop
    done:
      # store the result into the interleaved heap: 0x50000 + 4*hartid
      slli t2, a0, 2
      li   t3, 0x50000
      add  t2, t2, t3
      sw   t0, 0(t2)
      # exit(sum)
      li   t4, 0xC0000000
      sw   t0, 0(t4)
  )";

  sys.load_program(isa::assemble_text(program));
  const System::RunResult r = sys.run(1'000'000);

  std::printf("ran %llu cycles, all cores halted: %s\n",
              static_cast<unsigned long long>(r.cycles),
              r.all_halted ? "yes" : "no");

  // Verify every core's result through the testbench backdoor.
  uint32_t errors = 0;
  for (uint32_t c = 0; c < sys.num_cores(); ++c) {
    const uint32_t want = c * (c + 1) / 2;
    if (sys.read_word(0x50000 + 4 * c) != want ||
        sys.core(c).exit_code() != want) {
      ++errors;
    }
  }
  std::printf("verified %u cores, %u errors\n", sys.num_cores(), errors);

  const SnitchCore::Stats s = sys.aggregate_core_stats();
  std::printf("instructions retired: %llu (IPC/core = %.2f)\n",
              static_cast<unsigned long long>(s.instret),
              static_cast<double>(s.instret) / static_cast<double>(s.cycles));
  const Cluster::FabricStats f = sys.cluster().fabric_stats();
  std::printf("bank accesses: %llu, I$ hit rate: %.1f%%\n",
              static_cast<unsigned long long>(f.bank_accesses),
              100.0 * static_cast<double>(f.icache_hits) /
                  static_cast<double>(f.icache_hits + f.icache_misses));

  // With a DMA-capable memory system, demo the L2-resident, double-buffered
  // tiled matmul: 256x256x32 int32 matrices live in L2 and stream through
  // SPM double buffers via the per-group DMA engines while the cores
  // compute; the result is verified against the host golden model.
  if (MemoryRegistry::get(memory).provides_dma()) {
    std::printf("\nmemory system '%s' has a DMA engine — running a "
                "double-buffered tiled matmul from L2...\n",
                memory.c_str());
    kernels::TiledMatmulParams p;
    p.m = p.n = 256;
    p.k = 32;
    p.rb = p.cb = 64;
    System dma_sys(cfg);
    dma_sys.configure_engine(mode, sim_threads);
    const uint64_t cycles = kernels::run_kernel(
        dma_sys, kernels::build_matmul_tiled(cfg, p), 500'000'000ull);
    const MemoryStats m = dma_sys.cluster().memory_stats();
    std::printf("tiled matmul %ux%ux%u verified in %llu cycles\n", p.m, p.n,
                p.k, static_cast<unsigned long long>(cycles));
    std::printf("DMA: %llu transfers, %llu words L2->L1, %llu words L1->L2, "
                "busiest group engine busy %llu cycles\n",
                static_cast<unsigned long long>(m.dma_descriptors),
                static_cast<unsigned long long>(m.dma_words_in),
                static_cast<unsigned long long>(m.dma_words_out),
                static_cast<unsigned long long>(m.dma_busy_cycles_max));
  }
  return errors == 0 ? 0 : 1;
}
