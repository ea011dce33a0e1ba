// DMA compute/transfer overlap on the tcdm+l2 memory system: the tiled,
// double-buffered matmul (kernels/matmul_tiled.cpp) against its serialized
// twin — same blocks, same DMA transfers, but every transfer waited on
// immediately, exposing its full latency.
//
// Reported metric:
//
//   overlap = (cycles_serialized - cycles_double_buffered) / dma_busy
//
// with dma_busy the busiest group engine's total busy window in the
// double-buffered run: the fraction of the DMA time that double buffering
// hid behind compute (1.0 = every transferred cycle overlapped, 0 = none).
// At the paper point (256-core TopH, 1024x1024x64 matmul, 128x128 blocks —
// a 4.5 MiB working set against the 1 MiB L1) the acceptance bar is >= 0.5.
//
// Results file: mempool.bench.v1 envelope with a `mempool.dma.v1` object
// under results (config, both runs' cycles + memory counters, overlap).
//
//   ./fig_dma_overlap            # the 256-core paper point
//   ./fig_dma_overlap --mini     # 64-core mini cluster (CI smoke)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "common/report.hpp"
#include "core/system.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "mem/memsys.hpp"
#include "runner/bench_cli.hpp"
#include "runner/results.hpp"

using namespace mempool;
using namespace mempool::runner;

namespace {

struct RunOut {
  uint64_t cycles = 0;
  MemoryStats mem;
};

RunOut run_variant(const ClusterConfig& cfg,
                   const kernels::TiledMatmulParams& p, EngineMode engine,
                   unsigned sim_threads) {
  System sys(cfg);
  sys.configure_engine(engine, sim_threads);
  RunOut out;
  out.cycles =
      kernels::run_kernel(sys, kernels::build_matmul_tiled(cfg, p), 2'000'000'000ull);
  out.mem = sys.cluster().memory_stats();
  return out;
}

Json stats_json(const RunOut& r) {
  Json j = Json::object();
  j.set("cycles", r.cycles);
  j.set("dma_descriptors", r.mem.dma_descriptors);
  j.set("dma_slices", r.mem.dma_slices);
  j.set("dma_bursts", r.mem.dma_bursts);
  j.set("dma_words_in", r.mem.dma_words_in);
  j.set("dma_words_out", r.mem.dma_words_out);
  j.set("dma_busy_cycles", r.mem.dma_busy_cycles);
  j.set("dma_busy_cycles_max", r.mem.dma_busy_cycles_max);
  j.set("l2_reads", r.mem.l2_reads);
  j.set("l2_writes", r.mem.l2_writes);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts =
      parse_bench_options(&argc, argv, "fig_dma_overlap",
                          /*accepts_topology=*/false, /*accepts_memory=*/true);

  bool mini = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mini") == 0) {
      mini = true;
    } else {
      std::fprintf(stderr, "fig_dma_overlap: unknown argument '%s'\n",
                   argv[i]);
      return 2;
    }
  }

  ClusterConfig cfg = mini ? ClusterConfig::mini("TopH", true)
                           : ClusterConfig::paper("TopH", true);
  cfg.memory = MemorySpec{opts.memory.empty() ? "tcdm+l2" : opts.memory};
  if (!MemoryRegistry::get(cfg.memory.name).provides_dma()) {
    std::fprintf(stderr,
                 "fig_dma_overlap: memory system '%s' has no DMA engine — "
                 "this bench needs one (e.g. tcdm+l2)\n",
                 cfg.memory.name.c_str());
    return 2;
  }
  cfg.validate();

  kernels::TiledMatmulParams p;
  if (mini) {
    p.m = p.n = 256;
    p.k = 32;
    p.rb = p.cb = 64;
  } else {
    // The paper point: working set (A 256 KiB + Bt 256 KiB + C 4 MiB) is
    // 4.5x the 1 MiB L1.
    p.m = p.n = 1024;
    p.k = 64;
    p.rb = p.cb = 128;
  }

  print_banner(std::cout,
               "DMA compute/transfer overlap — tiled double-buffered matmul "
               "vs serialized transfers (" +
                   std::string(mini ? "mini 64-core" : "paper 256-core") +
                   " cluster, results verified)");
  std::printf("matmul %ux%ux%u, %ux%u blocks, memory system '%s'\n\n", p.m,
              p.n, p.k, p.rb, p.cb, cfg.memory.name.c_str());

  const auto t0 = std::chrono::steady_clock::now();
  p.double_buffer = true;
  const RunOut db = run_variant(cfg, p, opts.engine, opts.sim_threads);
  p.double_buffer = false;
  const RunOut serial = run_variant(cfg, p, opts.engine, opts.sim_threads);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double hidden =
      static_cast<double>(serial.cycles) - static_cast<double>(db.cycles);
  const double busy = static_cast<double>(db.mem.dma_busy_cycles_max);
  const double overlap = busy > 0 ? std::min(1.0, hidden / busy) : 0.0;

  Table tab({"variant", "cycles", "dma busy (max group)", "words moved"});
  tab.add_row({"double-buffered", std::to_string(db.cycles),
           std::to_string(db.mem.dma_busy_cycles_max),
           std::to_string(db.mem.dma_words_in + db.mem.dma_words_out)});
  tab.add_row({"serialized", std::to_string(serial.cycles),
           std::to_string(serial.mem.dma_busy_cycles_max),
           std::to_string(serial.mem.dma_words_in +
                          serial.mem.dma_words_out)});
  tab.print(std::cout);
  std::printf("\ncompute/transfer overlap: %.1f%% of the DMA busy time "
              "hidden behind compute\n",
              100.0 * overlap);

  Json results = Json::object();
  results.set("schema", "mempool.dma.v1");
  Json config = Json::object();
  config.set("topology", cfg.topology.name);
  config.set("memory", cfg.memory.name);
  config.set("num_cores", cfg.num_cores());
  config.set("m", p.m);
  config.set("n", p.n);
  config.set("k", p.k);
  config.set("rb", p.rb);
  config.set("cb", p.cb);
  results.set("config", std::move(config));
  results.set("double_buffered", stats_json(db));
  results.set("serialized", stats_json(serial));
  results.set("overlap_fraction", overlap);
  write_bench_results(opts, 1, wall, std::move(results));
  return 0;
}
