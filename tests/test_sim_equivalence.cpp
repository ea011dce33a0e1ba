// Cycle-equivalence harness (the correctness bar of the activity-driven and
// sharded schedulers): representative fig5/fig6/tab_zero_load points and an
// execution-driven program are run under the activity-driven, the dense, and
// the sharded engine (across sim-thread counts), and every observable —
// latency tables, monitor counters, fabric traversal/stall counters, core
// stats, memory contents — must be bit-identical.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/cluster.hpp"
#include "core/system.hpp"
#include "isa/text_asm.hpp"
#include "kernels/golden.hpp"
#include "kernels/matmul.hpp"
#include "kernels/runtime.hpp"
#include "mem/imem.hpp"
#include "mem/memsys.hpp"
#include "noc/fabric.hpp"
#include "noc/monitor.hpp"
#include "traffic/experiment.hpp"
#include "traffic/generator.hpp"

namespace mempool {
namespace {

TrafficExperimentConfig traffic_cfg(const TopologySpec& topo, bool scramble,
                                    double lambda, double p_local) {
  TrafficExperimentConfig e;
  e.cluster = ClusterConfig::mini(topo, scramble);
  e.lambda = lambda;
  e.p_local_seq = p_local;
  e.warmup_cycles = 200;
  e.measure_cycles = 800;
  e.drain_cycles = 400;
  return e;
}

void expect_engines_equivalent(TrafficExperimentConfig cfg,
                               const std::string& what) {
  TrafficCounters ca, cd;
  cfg.engine = EngineMode::kActive;
  const TrafficPoint pa = run_traffic_point(cfg, &ca);
  cfg.engine = EngineMode::kDense;
  const TrafficPoint pd = run_traffic_point(cfg, &cd);
  EXPECT_EQ(pa, pd) << what << ": latency/throughput table diverged";
  EXPECT_EQ(ca, cd) << what << ": monitor/fabric counters diverged";
}

void expect_sharded_equivalent(TrafficExperimentConfig cfg,
                               unsigned sim_threads, const std::string& what) {
  TrafficCounters ca, cs;
  cfg.engine = EngineMode::kActive;
  const TrafficPoint pa = run_traffic_point(cfg, &ca);
  cfg.engine = EngineMode::kSharded;
  cfg.sim_threads = sim_threads;
  const TrafficPoint ps = run_traffic_point(cfg, &cs);
  EXPECT_EQ(pa, ps) << what << ": latency/throughput table diverged";
  EXPECT_EQ(ca, cs) << what << ": monitor/fabric counters diverged";
}

// Every topology in the FabricRegistry — the four paper plugins *and*
// anything registered later (TopH2 today) — must pass the equivalence
// battery on its mini configuration.
class EngineEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineEquivalence, Fig5PointsBitIdentical) {
  // Low-λ (the zero-load regime the scheduler accelerates) and a point past
  // Top1's saturation knee (heavy backpressure, retries, blocked arbiters).
  for (double lambda : {0.02, 0.30}) {
    expect_engines_equivalent(
        traffic_cfg(TopologySpec{GetParam()}, false, lambda, 0.0),
        GetParam() + " λ=" + std::to_string(lambda));
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, EngineEquivalence,
                         ::testing::ValuesIn(FabricRegistry::names()),
                         [](const auto& tpinfo) { return tpinfo.param; });

// Sharded-vs-active bit-identity over every registered topology × sim-thread
// count × load. Thread count 1 exercises the inline (leader-only) lanes path,
// 2 a partially-helped gang, 3 an uneven split (over four shards the leader
// owns lanes 0 and 3), 8 more threads than any built-in fabric has shards
// (the gang caps at the shard count). The flat fabrics run the sharded
// engine degenerately on one shard — also worth pinning.
class ShardedEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>> {};

TEST_P(ShardedEquivalence, Fig5PointsBitIdentical) {
  const auto& [topo, threads] = GetParam();
  for (double lambda : {0.02, 0.30}) {
    expect_sharded_equivalent(
        traffic_cfg(TopologySpec{topo}, false, lambda, 0.0), threads,
        topo + " ×" + std::to_string(threads) +
            " λ=" + std::to_string(lambda));
  }
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesTimesThreads, ShardedEquivalence,
    ::testing::Combine(::testing::ValuesIn(FabricRegistry::names()),
                       ::testing::Values(1u, 2u, 3u, 8u)),
    [](const auto& tpinfo) {
      return std::get<0>(tpinfo.param) + "_t" +
             std::to_string(std::get<1>(tpinfo.param));
    });

TEST(ShardedEquivalenceScrambled, HybridAddressingBitIdentical) {
  // Scrambled addressing reshuffles which banks (and therefore shards) the
  // generators hit; pin the boundary-buffer backpressure snapshot under it.
  expect_sharded_equivalent(traffic_cfg("TopH", true, 0.25, 0.5), 8,
                            "TopH scrambled sharded");
}

TEST(ShardedEquivalencePaper, PaperClusterMidLambda) {
  // One full-size (256-core) point at the λ = 0.05 perf-target load.
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::paper("TopH", false);
  cfg.lambda = 0.05;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 200;
  expect_sharded_equivalent(cfg, 8, "paper TopH sharded λ=0.05");
}

// The full fabric × memory × engine-mode cross-product: every registered
// memory system must be physics-neutral for generator traffic (the DMA
// engines sit idle) and bit-identical across all three engine modes on
// every registered topology.
class MemoryEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(MemoryEquivalence, TrafficPointsBitIdentical) {
  const auto& [topo, mem] = GetParam();
  TrafficExperimentConfig cfg =
      traffic_cfg(TopologySpec{topo}, true, 0.25, 0.5);
  cfg.cluster.memory = MemorySpec{mem};
  cfg.cluster.validate();
  expect_engines_equivalent(cfg, topo + " mem=" + mem);
  expect_sharded_equivalent(cfg, 8, topo + " sharded mem=" + mem);
}

INSTANTIATE_TEST_SUITE_P(
    FabricsTimesMemories, MemoryEquivalence,
    ::testing::Combine(::testing::ValuesIn(FabricRegistry::names()),
                       ::testing::ValuesIn(MemoryRegistry::names())),
    [](const auto& tpinfo) {
      std::string n =
          std::get<0>(tpinfo.param) + "_" + std::get<1>(tpinfo.param);
      for (char& c : n) {
        if (c == '+') c = '_';
      }
      return n;
    });

TEST(ShardedEquivalenceDma, SnitchTiledMatmulBitIdentical) {
  // The DMA acceptance bar for the engine-equivalence suite: a full tiled,
  // double-buffered DMA matmul on the mini tcdm+l2 cluster — cycles, core
  // stats (incl. DMA submissions), result memory in L2, and the memory
  // hierarchy's own counters all bit-identical between the active, dense,
  // and 8-thread sharded engines. Slice commands and completions cross the
  // shard commit barrier here; burst timers run on the per-shard wheels.
  ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  cfg.memory = MemorySpec{"tcdm+l2"};
  cfg.validate();
  kernels::TiledMatmulParams tp;
  tp.m = tp.n = 128;
  tp.k = 32;
  tp.rb = tp.cb = 32;
  const kernels::KernelProgram kp = kernels::build_matmul_tiled(cfg, tp);
  auto run_one = [&](EngineMode mode) {
    auto sys = std::make_unique<System>(cfg);
    sys->configure_engine(mode, mode == EngineMode::kSharded ? 8 : 1);
    const uint64_t cycles = kernels::run_kernel(*sys, kp, 50'000'000);
    return std::make_pair(std::move(sys), cycles);
  };
  auto [active, ca] = run_one(EngineMode::kActive);
  auto [dense, cd] = run_one(EngineMode::kDense);
  auto [sharded, cs] = run_one(EngineMode::kSharded);

  EXPECT_EQ(ca, cd) << "dense kernel cycle count diverged";
  EXPECT_EQ(ca, cs) << "sharded kernel cycle count diverged";
  const SnitchCore::Stats sa = active->aggregate_core_stats();
  const SnitchCore::Stats ss = sharded->aggregate_core_stats();
  EXPECT_EQ(sa.instret, ss.instret);
  EXPECT_EQ(sa.cycles, ss.cycles);
  EXPECT_EQ(sa.stall_fetch, ss.stall_fetch);
  EXPECT_EQ(sa.stall_raw, ss.stall_raw);
  EXPECT_EQ(sa.stall_rob, ss.stall_rob);
  EXPECT_EQ(sa.stall_port, ss.stall_port);
  EXPECT_EQ(sa.amos, ss.amos);
  EXPECT_EQ(sa.dma_submits, ss.dma_submits);
  EXPECT_GT(sa.dma_submits, 0u);
  // The C matrix in L2, word for word.
  const uint32_t l2_c = 0xA000'0000u + (tp.m + tp.n) * tp.k * 4;
  EXPECT_EQ(active->read_words(l2_c, tp.m * tp.n),
            sharded->read_words(l2_c, tp.m * tp.n));
  EXPECT_EQ(active->read_words(l2_c, tp.m * tp.n),
            dense->read_words(l2_c, tp.m * tp.n));
  // The memory hierarchy's counters (descriptors, slices, bursts, words,
  // busy windows, L2 traffic) — MemoryStats compares bit-for-bit.
  EXPECT_EQ(active->cluster().memory_stats(), dense->cluster().memory_stats());
  EXPECT_EQ(active->cluster().memory_stats(),
            sharded->cluster().memory_stats());
  EXPECT_GT(active->cluster().memory_stats().dma_words_in, 0u);
  EXPECT_GT(sharded->engine().parallel_cycles(), 0u);
}

TEST(EngineEquivalenceFig6, HybridAddressingPointsBitIdentical) {
  for (double p_local : {0.0, 0.5, 1.0}) {
    expect_engines_equivalent(
        traffic_cfg("TopH", true, 0.25, p_local),
        "TopH scrambled p_local=" + std::to_string(p_local));
  }
}

TEST(EngineEquivalenceZeroLoad, PaperClusterLowLambda) {
  // One full-size (256-core) point in the tab_zero_load regime.
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::paper("TopH", false);
  cfg.lambda = 0.01;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 200;
  expect_engines_equivalent(cfg, "paper TopH λ=0.01");
}

TEST(EngineEquivalenceExec, SnitchProgramBitIdentical) {
  // Execution-driven equivalence: cores halt at different times (different
  // fabric distances), exercising the sleep path, the I$ wake path, and the
  // late-response delivery into halted cores.
  const std::string src = R"(
    _start:
      csrr t0, mhartid
      slli t1, t0, 2
      li t5, 12
    loop:
      sw t0, 0(t1)
      lw t2, 0(t1)
      addi t1, t1, 256
      addi t5, t5, -1
      bnez t5, loop
      li t6, 0xC0000000
      sw zero, 0(t6)
  )";
  auto run_one = [&](EngineMode mode) {
    const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
    auto sys = std::make_unique<System>(cfg);
    sys->configure_engine(mode, mode == EngineMode::kSharded ? 8 : 1);
    sys->load_program(isa::assemble_text(src));
    const System::RunResult r = sys->run(100000);
    EXPECT_TRUE(r.all_halted);
    return std::make_pair(std::move(sys), r);
  };
  auto [active, ra] = run_one(EngineMode::kActive);
  auto [dense, rd] = run_one(EngineMode::kDense);

  EXPECT_EQ(ra.cycles, rd.cycles);
  const SnitchCore::Stats sa = active->aggregate_core_stats();
  const SnitchCore::Stats sd = dense->aggregate_core_stats();
  EXPECT_EQ(sa.instret, sd.instret);
  EXPECT_EQ(sa.cycles, sd.cycles);
  EXPECT_EQ(sa.stall_fetch, sd.stall_fetch);
  EXPECT_EQ(sa.stall_raw, sd.stall_raw);
  EXPECT_EQ(sa.stall_rob, sd.stall_rob);
  EXPECT_EQ(sa.stall_port, sd.stall_port);
  EXPECT_EQ(sa.stall_ctrl, sd.stall_ctrl);
  EXPECT_EQ(sa.loads_local, sd.loads_local);
  EXPECT_EQ(sa.loads_remote, sd.loads_remote);
  EXPECT_EQ(sa.stores_local, sd.stores_local);
  EXPECT_EQ(sa.stores_remote, sd.stores_remote);
  EXPECT_EQ(sa.resp_latency_sum, sd.resp_latency_sum);
  EXPECT_EQ(sa.resp_count, sd.resp_count);
  for (uint32_t c = 0; c < active->num_cores(); ++c) {
    EXPECT_EQ(active->core(c).exit_code(), dense->core(c).exit_code());
    EXPECT_EQ(active->core(c).pc(), dense->core(c).pc()) << "core " << c;
  }
  EXPECT_EQ(active->read_words(0, 256), dense->read_words(0, 256));
  const auto fa = active->cluster().fabric_stats();
  const auto fd = dense->cluster().fabric_stats();
  EXPECT_EQ(fa.bank_accesses, fd.bank_accesses);
  EXPECT_EQ(fa.bank_stall_cycles, fd.bank_stall_cycles);
  EXPECT_EQ(fa.icache_hits, fd.icache_hits);
  EXPECT_EQ(fa.icache_misses, fd.icache_misses);
  EXPECT_EQ(fa.icache_refills, fd.icache_refills);
  EXPECT_EQ(fa.butterfly_traversals, fd.butterfly_traversals);
  EXPECT_EQ(fa.group_local_traversals, fd.group_local_traversals);
}

TEST(ShardedEquivalenceExec, SnitchMatmul256CoresBitIdentical) {
  // The acceptance bar for the sharded engine on execution-driven runs: a
  // full matmul kernel on the 256-core paper cluster, active vs sharded on 8
  // threads — cycles, aggregate core stats, result memory, and fabric
  // counters all bit-identical. Kernel barriers, I$ refills, AMOs, and the
  // cross-group response traffic all cross the commit barrier here.
  const ClusterConfig cfg = ClusterConfig::paper("TopH", true);
  const kernels::KernelProgram kp = kernels::build_matmul(cfg, 64);
  auto run_one = [&](EngineMode mode) {
    auto sys = std::make_unique<System>(cfg);
    sys->configure_engine(mode, mode == EngineMode::kSharded ? 8 : 1);
    const uint64_t cycles = kernels::run_kernel(*sys, kp, 50'000'000);
    return std::make_pair(std::move(sys), cycles);
  };
  auto [active, ca] = run_one(EngineMode::kActive);
  auto [sharded, cs] = run_one(EngineMode::kSharded);

  EXPECT_EQ(ca, cs) << "kernel cycle count diverged";
  const SnitchCore::Stats sa = active->aggregate_core_stats();
  const SnitchCore::Stats ss = sharded->aggregate_core_stats();
  EXPECT_EQ(sa.instret, ss.instret);
  EXPECT_EQ(sa.cycles, ss.cycles);
  EXPECT_EQ(sa.stall_fetch, ss.stall_fetch);
  EXPECT_EQ(sa.stall_raw, ss.stall_raw);
  EXPECT_EQ(sa.stall_rob, ss.stall_rob);
  EXPECT_EQ(sa.stall_port, ss.stall_port);
  EXPECT_EQ(sa.stall_ctrl, ss.stall_ctrl);
  EXPECT_EQ(sa.loads_local, ss.loads_local);
  EXPECT_EQ(sa.loads_remote, ss.loads_remote);
  EXPECT_EQ(sa.stores_local, ss.stores_local);
  EXPECT_EQ(sa.stores_remote, ss.stores_remote);
  EXPECT_EQ(sa.amos, ss.amos);
  EXPECT_EQ(sa.resp_latency_sum, ss.resp_latency_sum);
  EXPECT_EQ(sa.resp_count, ss.resp_count);
  EXPECT_EQ(active->read_words(0, 4096), sharded->read_words(0, 4096));
  const auto fa = active->cluster().fabric_stats();
  const auto fs = sharded->cluster().fabric_stats();
  EXPECT_EQ(fa.tile_req_traversals, fs.tile_req_traversals);
  EXPECT_EQ(fa.tile_resp_traversals, fs.tile_resp_traversals);
  EXPECT_EQ(fa.dir_traversals, fs.dir_traversals);
  EXPECT_EQ(fa.remote_resp_traversals, fs.remote_resp_traversals);
  EXPECT_EQ(fa.group_local_traversals, fs.group_local_traversals);
  EXPECT_EQ(fa.butterfly_traversals, fs.butterfly_traversals);
  EXPECT_EQ(fa.bank_accesses, fs.bank_accesses);
  EXPECT_EQ(fa.bank_stall_cycles, fs.bank_stall_cycles);
  EXPECT_EQ(fa.icache_hits, fs.icache_hits);
  EXPECT_EQ(fa.icache_misses, fs.icache_misses);
  EXPECT_EQ(fa.icache_refills, fs.icache_refills);
  // The run must actually have been parallel-dispatched (a busy 256-core
  // kernel is far above the inline threshold).
  EXPECT_GT(sharded->engine().parallel_cycles(), 0u);
}

// Checkpoint/restore equivalence: for each engine mode, a run that is
// chunked by periodic checkpoints and a run resumed from a mid-flight
// mempool.ckpt.v1 image must both be bit-identical to the plain
// uninterrupted run — the tentpole contract that makes crash recovery in
// the sweep service safe.
class CheckpointEquivalence : public ::testing::TestWithParam<EngineMode> {};

TEST_P(CheckpointEquivalence, RestoredRunBitIdentical) {
  TrafficExperimentConfig cfg =
      traffic_cfg("TopH", true, 0.25, 0.5);
  cfg.engine = GetParam();
  if (cfg.engine == EngineMode::kSharded) cfg.sim_threads = 4;

  TrafficCounters c_plain;
  const TrafficPoint p_plain = run_traffic_point(cfg, &c_plain);

  // Chunked: checkpoint every 300 cycles, keep the image nearest mid-run.
  std::string image;
  CheckpointOptions save;
  save.checkpoint_every = 300;
  save.key = "equiv";
  save.on_checkpoint = [&](uint64_t cycle, const std::string& img) {
    if (cycle == 600) image = img;
  };
  TrafficCounters c_chunked;
  const TrafficPoint p_chunked = run_traffic_point(cfg, save, &c_chunked);
  EXPECT_EQ(p_plain, p_chunked) << "chunked run diverged";
  EXPECT_EQ(c_plain, c_chunked) << "chunked counters diverged";
  ASSERT_FALSE(image.empty()) << "no checkpoint captured at cycle 600";

  // Restored: resume from the cycle-600 image, finish the point.
  CheckpointOptions resume;
  resume.key = "equiv";
  resume.restore_from = &image;
  TrafficCounters c_res;
  const TrafficPoint p_res = run_traffic_point(cfg, resume, &c_res);
  EXPECT_EQ(p_plain, p_res) << "restored run diverged";
  EXPECT_EQ(c_plain, c_res) << "restored counters diverged";
}

INSTANTIATE_TEST_SUITE_P(Engines, CheckpointEquivalence,
                         ::testing::Values(EngineMode::kActive,
                                           EngineMode::kDense,
                                           EngineMode::kSharded),
                         [](const auto& tpinfo) {
                           return std::string(engine_mode_name(tpinfo.param));
                         });

TEST(CheckpointEquivalence2, ActiveImageResumesUnderDenseNotSharded) {
  // The snapshot captures architectural state, not scheduler bookkeeping:
  // an image saved under the active engine resumes bit-identically under
  // the dense engine (same monitor layout). The sharded engine keeps one
  // monitor *per shard* — its partial sums cannot be reconstructed from a
  // sequential image, so that resume must be *refused* by the
  // monitor-count guard, never silently diverged.
  TrafficExperimentConfig cfg =
      traffic_cfg("TopH", false, 0.15, 0.0);
  TrafficCounters c_plain;
  const TrafficPoint p_plain = run_traffic_point(cfg, &c_plain);

  std::string image;
  CheckpointOptions save;
  save.checkpoint_every = 500;
  save.key = "xengine";
  save.on_checkpoint = [&](uint64_t cycle, const std::string& img) {
    if (cycle == 500) image = img;
  };
  run_traffic_point(cfg, save);
  ASSERT_FALSE(image.empty());

  TrafficExperimentConfig dense = cfg;
  dense.engine = EngineMode::kDense;
  CheckpointOptions resume;
  resume.key = "xengine";
  resume.restore_from = &image;
  TrafficCounters c_res;
  const TrafficPoint p_res = run_traffic_point(dense, resume, &c_res);
  EXPECT_EQ(p_plain, p_res) << "dense resume from active image diverged";
  EXPECT_EQ(c_plain, c_res) << "dense resume counters diverged";

  TrafficExperimentConfig sharded = cfg;
  sharded.engine = EngineMode::kSharded;
  sharded.sim_threads = 4;
  EXPECT_THROW(run_traffic_point(sharded, resume), CheckError);
}

TEST(CheckpointEquivalence2, MismatchedKeyAndConfigAreRejected) {
  TrafficExperimentConfig cfg =
      traffic_cfg("TopH", false, 0.1, 0.0);
  std::string image;
  CheckpointOptions save;
  save.checkpoint_every = 400;
  save.key = "point-A";
  save.on_checkpoint = [&](uint64_t, const std::string& img) { image = img; };
  run_traffic_point(cfg, save);
  ASSERT_FALSE(image.empty());

  // Wrong key: refused before any state is loaded.
  CheckpointOptions wrong_key;
  wrong_key.key = "point-B";
  wrong_key.restore_from = &image;
  EXPECT_THROW(run_traffic_point(cfg, wrong_key), CheckError);

  // Wrong topology: component list differs, refused.
  TrafficExperimentConfig other =
      traffic_cfg("Top1", false, 0.1, 0.0);
  CheckpointOptions same_key;
  same_key.key = "point-A";
  same_key.restore_from = &image;
  EXPECT_THROW(run_traffic_point(other, same_key), CheckError);

  // Torn image: rejected by the artifact CRC/length validation.
  const std::string torn = image.substr(0, image.size() / 2);
  CheckpointOptions torn_opts;
  torn_opts.key = "point-A";
  torn_opts.restore_from = &torn;
  EXPECT_THROW(run_traffic_point(cfg, torn_opts), CheckError);
}

TEST(ShardedEquivalenceWork, ShardedEvaluatesExactlyLikeActive) {
  // The scheduler-work counters themselves must match: the sharded engine
  // evaluates exactly the components the active engine would, no more.
  TrafficExperimentConfig cfg = traffic_cfg("TopH", false, 0.1, 0.0);
  auto evals = [&](EngineMode mode) {
    InstrMem imem(4096);
    Engine engine;
    Cluster cluster(cfg.cluster, &imem);
    if (mode == EngineMode::kSharded) {
      engine.set_sharded(cluster.num_shards(), 1);
    }
    LatencyMonitor monitor(0);
    TrafficConfig tcfg;
    tcfg.lambda = cfg.lambda;
    tcfg.stop_generation_at = 1000;
    std::vector<std::unique_ptr<TrafficGenerator>> gens;
    std::vector<Client*> clients;
    for (uint32_t c = 0; c < cfg.cluster.num_cores(); ++c) {
      gens.push_back(std::make_unique<TrafficGenerator>(
          "gen" + std::to_string(c), static_cast<uint16_t>(c),
          static_cast<uint16_t>(c / cfg.cluster.cores_per_tile), cfg.cluster,
          &cluster.layout(), &engine, tcfg, &monitor));
      clients.push_back(gens.back().get());
    }
    cluster.attach_clients(clients);
    cluster.build(engine);
    engine.run(1500);
    return std::make_tuple(engine.evaluations(), engine.commits(),
                           monitor.completed());
  };
  EXPECT_EQ(evals(EngineMode::kActive), evals(EngineMode::kSharded));
}

TEST(EngineEquivalenceWork, ActiveSetEvaluatesStrictlyLess) {
  // The point of the scheduler: at low load the active engine must evaluate
  // far fewer components than the dense sweep (deterministic work proxy for
  // the ≥3x wall-clock target measured by bench/micro_sim_speed).
  const ClusterConfig cfg = ClusterConfig::mini("TopH", false);
  constexpr uint64_t kCycles = 2000;
  struct Work {
    uint64_t evaluations, commits, completed;
    std::size_t components, clocked;
  };
  auto build_and_run = [&](bool dense) {
    InstrMem imem(4096);
    Engine engine;
    engine.set_dense(dense);
    Cluster cluster(cfg, &imem);
    LatencyMonitor monitor(0);
    TrafficConfig tcfg;
    tcfg.lambda = 0.02;
    tcfg.stop_generation_at = 1500;
    std::vector<std::unique_ptr<TrafficGenerator>> gens;
    std::vector<Client*> clients;
    for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
      gens.push_back(std::make_unique<TrafficGenerator>(
          "gen" + std::to_string(c), static_cast<uint16_t>(c),
          static_cast<uint16_t>(c / cfg.cores_per_tile), cfg,
          &cluster.layout(), &engine, tcfg, &monitor));
      clients.push_back(gens.back().get());
    }
    cluster.attach_clients(clients);
    cluster.build(engine);
    engine.run(kCycles);
    return Work{engine.evaluations(), engine.commits(), monitor.completed(),
                engine.num_components(), engine.num_clocked()};
  };
  const Work active = build_and_run(false);
  const Work dense = build_and_run(true);
  EXPECT_EQ(active.completed, dense.completed);
  EXPECT_LT(active.evaluations * 3, dense.evaluations)
      << "active set should do <1/3 of the dense evaluations at λ=0.02";
  // Dense wakes every slot and dirties every element each cycle, across all
  // the words of a multi-word lane segment (padding bits stay clear).
  ASSERT_GT(dense.components, 64u);
  ASSERT_GT(dense.clocked, 64u);
  EXPECT_EQ(dense.evaluations, dense.components * kCycles);
  EXPECT_EQ(dense.commits, dense.clocked * kCycles);
}

}  // namespace
}  // namespace mempool
