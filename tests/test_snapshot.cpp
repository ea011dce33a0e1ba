// Engine checkpoint/restore (sim/snapshot.hpp): StateSink/StateSource
// primitives, the mempool.ckpt.v1 artifact framing and its corruption
// detection (truncation, bit flips, zero-byte files), and full-engine
// save → load → re-save byte-identity on both generator-driven and
// execution-driven (Snitch + I$ + ROB + DMA) clusters, and the bench CLIs'
// request-keyed --checkpoint-every / --restore images.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "mem/imem.hpp"
#include "noc/monitor.hpp"
#include "runner/bench_cli.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"
#include "traffic/experiment.hpp"
#include "traffic/generator.hpp"

namespace mempool {
namespace {

TEST(StateSinkSource, PrimitivesRoundTrip) {
  StateSink sink;
  sink.u8(0xAB);
  sink.u16(0xBEEF);
  sink.u32(0xDEADBEEFu);
  sink.u64(0x0123456789ABCDEFull);
  sink.b(true);
  sink.b(false);
  sink.f64(-0.1);
  sink.f64(1.0 / 3.0);
  sink.str("hello");
  sink.str("");

  StateSource src(sink.data());
  EXPECT_EQ(src.u8(), 0xAB);
  EXPECT_EQ(src.u16(), 0xBEEF);
  EXPECT_EQ(src.u32(), 0xDEADBEEFu);
  EXPECT_EQ(src.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(src.b());
  EXPECT_FALSE(src.b());
  // Bit-pattern round trip, not approximate.
  EXPECT_EQ(src.f64(), -0.1);
  EXPECT_EQ(src.f64(), 1.0 / 3.0);
  EXPECT_EQ(src.str(), "hello");
  EXPECT_EQ(src.str(), "");
  src.finish();  // consumed exactly
}

TEST(StateSinkSource, TruncatedReadAndTrailingBytesAreErrors) {
  StateSink sink;
  sink.u32(7);
  StateSource short_read(sink.data());
  EXPECT_THROW(short_read.u64(), CheckError);  // needs 8, has 4

  StateSource trailing(sink.data());
  trailing.u16();
  EXPECT_THROW(trailing.finish(), CheckError);  // 2 bytes left over
}

TEST(Snapshot, ArtifactRoundTrip) {
  Snapshot snap;
  snap.cycle = 123456789;
  snap.key = "abc123";
  snap.add("engine", std::string("\x01\x02\x03", 3));
  snap.add("c0:gen", std::string(1000, 'x'));
  snap.add("empty", "");

  const std::string bytes = snap.serialize();
  const Snapshot back = Snapshot::deserialize(bytes);
  EXPECT_EQ(back.cycle, snap.cycle);
  EXPECT_EQ(back.key, snap.key);
  ASSERT_EQ(back.section_count(), 3u);
  EXPECT_EQ(back.payload("engine"), snap.payload("engine"));
  EXPECT_EQ(back.payload("c0:gen"), snap.payload("c0:gen"));
  EXPECT_EQ(back.payload("empty"), "");
  EXPECT_EQ(back.find("nope"), nullptr);
}

TEST(Snapshot, ZeroByteAndGarbageFilesAreRejected) {
  EXPECT_THROW(Snapshot::deserialize(""), CheckError);
  EXPECT_THROW(Snapshot::deserialize("not a checkpoint at all"), CheckError);
  // Right magic, nothing else: still torn.
  EXPECT_THROW(Snapshot::deserialize(std::string(Snapshot::kMagic)),
               CheckError);
}

TEST(Snapshot, EveryTruncationLengthIsRejected) {
  Snapshot snap;
  snap.cycle = 42;
  snap.key = "k";
  snap.add("a", "payload-bytes");
  snap.add("b", std::string(64, 'z'));
  const std::string bytes = snap.serialize();
  // A partially-written checkpoint can stop at *any* byte; every prefix
  // must fail closed rather than load partial state.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(Snapshot::deserialize(std::string_view(bytes.data(), len)),
                 CheckError)
        << "prefix of length " << len << " was accepted";
  }
  EXPECT_NO_THROW(Snapshot::deserialize(bytes));
}

TEST(Snapshot, BitFlipsAnywhereAreRejected) {
  Snapshot snap;
  snap.cycle = 7;
  snap.key = "fuzz";
  snap.add("engine", std::string(128, 'e'));
  const std::string bytes = snap.serialize();
  // Flip one bit at a sweep of offsets covering the magic, header, payload,
  // and the length/CRC trailer. The CRC seals everything before it; a flip
  // inside the CRC field itself mismatches the recomputed value.
  for (std::size_t off = 0; off < bytes.size();
       off += (off < 48 || off + 16 >= bytes.size()) ? 1 : 7) {
    std::string mutated = bytes;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x10);
    EXPECT_THROW(Snapshot::deserialize(mutated), CheckError)
        << "bit flip at offset " << off << " was accepted";
  }
}

// --- full-engine snapshots ---------------------------------------------------

/// A live generator-driven cluster stepped to @p cycles, plus everything
/// needed to keep stepping it.
struct LiveTraffic {
  InstrMem imem{4096};
  Engine engine;
  std::unique_ptr<Cluster> cluster;
  LatencyMonitor monitor{100};
  std::vector<std::unique_ptr<TrafficGenerator>> gens;

  explicit LiveTraffic(const ClusterConfig& cfg) {
    cluster = std::make_unique<Cluster>(cfg, &imem);
    monitor.set_measure_end(500);
    TrafficConfig tcfg;
    tcfg.lambda = 0.15;
    tcfg.seed = 3;
    tcfg.stop_generation_at = 500;
    std::vector<Client*> clients;
    for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
      gens.push_back(std::make_unique<TrafficGenerator>(
          "gen" + std::to_string(c), static_cast<uint16_t>(c),
          static_cast<uint16_t>(c / cfg.cores_per_tile), cfg,
          &cluster->layout(), &engine, tcfg, &monitor));
      clients.push_back(gens.back().get());
    }
    cluster->attach_clients(clients);
    cluster->build(engine);
  }
};

TEST(EngineSnapshot, SaveLoadResaveIsByteIdentical) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  LiveTraffic a(cfg);
  a.engine.run(300);  // mid-flight: packets in buffers, banks busy
  Snapshot snap;
  snap.key = "resave";
  a.engine.save_state(&snap);

  LiveTraffic b(cfg);
  b.engine.load_state(snap);
  Snapshot again;
  again.key = "resave";
  b.engine.save_state(&again);
  // save ∘ load must be the identity on the byte level — any divergence
  // means some field is dropped or defaulted on one of the two sides.
  EXPECT_EQ(snap.serialize(), again.serialize());
}

TEST(EngineSnapshot, PreArenaImageStillRestores) {
  // tests/data/pre_arena_toph_mini.ckpt was saved before a since-removed
  // refactor moved the cluster's components and ring storage into per-shard
  // arenas (this LiveTraffic recipe at cycle 300). Memory layout changes
  // where state lives, not what state exists: the old image must load into
  // the current cluster, and re-saving must reproduce exactly the bytes a
  // from-scratch run produces at the same cycle.
  const auto path = std::filesystem::path(__FILE__).parent_path() / "data" /
                    "pre_arena_toph_mini.ckpt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden checkpoint " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const Snapshot golden = Snapshot::deserialize(bytes.str());

  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  LiveTraffic restored(cfg);
  restored.engine.load_state(golden);
  Snapshot resaved;
  resaved.key = golden.key;
  restored.engine.save_state(&resaved);
  EXPECT_EQ(resaved.serialize(), bytes.str())
      << "pre-arena image no longer round-trips bit-identically";

  // The restored cluster must also keep simulating identically: step both
  // it and a from-scratch reference to cycle 600 and compare every
  // component's state. The "engine" section is skipped — it carries the
  // scheduler's cumulative effort counters, and a restored engine starts
  // with every component awake (see Engine::load_state), so it evaluates a
  // few extra no-ops the uninterrupted run never ran.
  LiveTraffic reference(cfg);
  reference.engine.run(300);
  ASSERT_EQ(reference.engine.cycle(), restored.engine.cycle());
  reference.engine.run(300);
  restored.engine.run(300);
  ASSERT_EQ(reference.engine.cycle(), restored.engine.cycle());
  Snapshot ref_state, res_state;
  reference.engine.save_state(&ref_state);
  restored.engine.save_state(&res_state);
  ASSERT_EQ(ref_state.section_count(), res_state.section_count());
  for (std::size_t i = 0; i < ref_state.section_count(); ++i) {
    const auto& [name, payload] = ref_state.sections()[i];
    EXPECT_EQ(res_state.sections()[i].first, name);
    if (name == "engine") continue;
    EXPECT_EQ(res_state.sections()[i].second, payload)
        << "restored run diverged from the from-scratch run in " << name;
  }
}

TEST(EngineSnapshot, LoadIntoSteppedEngineIsRejected) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", false);
  LiveTraffic a(cfg);
  a.engine.run(10);
  Snapshot snap;
  a.engine.save_state(&snap);

  LiveTraffic b(cfg);
  b.engine.run(1);  // no longer pristine
  EXPECT_THROW(b.engine.load_state(snap), CheckError);
}

TEST(EngineSnapshot, ComponentCountMismatchIsRejected) {
  LiveTraffic a(ClusterConfig::mini("TopH", false));
  a.engine.run(10);
  Snapshot snap;
  a.engine.save_state(&snap);

  // A different topology elaborates a different component list.
  LiveTraffic b(ClusterConfig::mini("Top1", false));
  EXPECT_THROW(b.engine.load_state(snap), CheckError);
}

TEST(EngineSnapshot, ExecClusterResumesBitIdentically) {
  // Execution-driven coverage: Snitch cores (regs, PC, ROB, scoreboard),
  // I$ sets and miss machinery, DMA frontend/backend, and L2 all cross the
  // snapshot. The resumed run must halt at the same cycle with the same
  // stats and the same memory image as the uninterrupted one.
  ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  cfg.memory = MemorySpec{"tcdm+l2"};
  cfg.validate();
  kernels::TiledMatmulParams tp;
  tp.m = tp.n = 64;
  tp.k = 16;
  tp.rb = tp.cb = 32;  // rb*cb divisible by 8*num_cores on the mini cluster
  const kernels::KernelProgram kp = kernels::build_matmul_tiled(cfg, tp);

  // Reference: uninterrupted.
  auto ref = std::make_unique<System>(cfg);
  ref->load_program(kp.image);
  if (kp.init) kp.init(*ref);
  const System::RunResult rr = ref->run(5'000'000);
  ASSERT_TRUE(rr.all_halted);

  // Interrupted at an arbitrary mid-kernel cycle (DMA bursts in flight).
  auto part = std::make_unique<System>(cfg);
  part->load_program(kp.image);
  if (kp.init) kp.init(*part);
  const System::RunResult rp = part->run(2'000);
  ASSERT_FALSE(rp.all_halted) << "checkpoint point is past the kernel";
  Snapshot snap;
  snap.key = "exec";
  part->engine().save_state(&snap);
  // Round-trip through the artifact bytes, like a real crash recovery.
  const Snapshot restored = Snapshot::deserialize(snap.serialize());

  auto res = std::make_unique<System>(cfg);
  res->load_program(kp.image);
  if (kp.init) kp.init(*res);
  res->engine().load_state(restored);
  const System::RunResult rres = res->run(5'000'000);
  ASSERT_TRUE(rres.all_halted);

  // Same halt cycle (absolute), same core stats, same result matrix.
  EXPECT_EQ(res->engine().cycle(), ref->engine().cycle());
  const SnitchCore::Stats sr = ref->aggregate_core_stats();
  const SnitchCore::Stats ss = res->aggregate_core_stats();
  EXPECT_EQ(sr.instret, ss.instret);
  EXPECT_EQ(sr.stall_fetch, ss.stall_fetch);
  EXPECT_EQ(sr.stall_raw, ss.stall_raw);
  EXPECT_EQ(sr.stall_rob, ss.stall_rob);
  EXPECT_EQ(sr.stall_port, ss.stall_port);
  EXPECT_EQ(sr.dma_submits, ss.dma_submits);
  EXPECT_GT(ss.dma_submits, 0u);
  const uint32_t l2_c = 0xA000'0000u + (tp.m + tp.n) * tp.k * 4;
  EXPECT_EQ(ref->read_words(l2_c, tp.m * tp.n),
            res->read_words(l2_c, tp.m * tp.n));
  EXPECT_EQ(ref->cluster().memory_stats(), res->cluster().memory_stats());
  std::string err;
  EXPECT_TRUE(kp.check(*res, &err)) << err;
}

TEST(CliCheckpoint, RestoringAnotherPointsImageExitsTwoNamingTheKeyMismatch) {
  // --checkpoint-every / --restore as traffic_explorer drives them: an
  // image resumes its own point bit-identically, and an image of a λ=0.2
  // point restored into a λ=0.3 run is refused instead of finishing a
  // hybrid of the two.
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::mini("TopH", false);
  cfg.lambda = 0.2;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 400;
  cfg.drain_cycles = 200;
  runner::BenchOptions opts;
  opts.bench_name = "traffic_explorer";
  opts.progress = false;
  opts.checkpoint_every = 300;
  opts.checkpoint_out = ::testing::TempDir() + "/mempool_cli_restore_" +
                        std::to_string(::getpid()) + ".ckpt";
  const TrafficPoint uninterrupted = runner::run_checkpointed_point(opts, cfg);

  runner::BenchOptions resume;
  resume.bench_name = opts.bench_name;
  resume.progress = false;
  resume.restore_path = opts.checkpoint_out;
  EXPECT_EQ(runner::run_checkpointed_point(resume, cfg), uninterrupted);

  TrafficExperimentConfig other = cfg;
  other.lambda = 0.3;
  EXPECT_EXIT(runner::run_checkpointed_point(resume, other),
              ::testing::ExitedWithCode(2), "checkpoint key mismatch");
  std::filesystem::remove(opts.checkpoint_out);
}

}  // namespace
}  // namespace mempool
