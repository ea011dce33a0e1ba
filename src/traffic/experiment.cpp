#include "traffic/experiment.hpp"

#include <algorithm>
#include <deque>
#include <memory>

#include "common/check.hpp"

#include "core/cluster.hpp"
#include "mem/imem.hpp"
#include "noc/monitor.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"
#include "traffic/generator.hpp"

namespace mempool {

TrafficPoint run_traffic_point(const TrafficExperimentConfig& ecfg,
                               TrafficCounters* counters_out) {
  return run_traffic_point(ecfg, CheckpointOptions{}, counters_out);
}

TrafficPoint run_traffic_point(const TrafficExperimentConfig& ecfg,
                               const CheckpointOptions& ckpt,
                               TrafficCounters* counters_out) {
  const ClusterConfig& ccfg = ecfg.cluster;
  ccfg.validate();

  InstrMem imem(4096);  // unused by generators, required by the tile I$.
  Engine engine;
  engine.set_dense(ecfg.engine == EngineMode::kDense);
  Cluster cluster(ccfg, &imem);

  // Sharded mode: every shard records into its own monitor (a shared one
  // would be written concurrently); the per-shard monitors merge exactly
  // after the run (see noc/monitor.hpp), so the reported point is
  // bit-identical to the sequential engines'. The engine's helper threads
  // are private to the point — sweep-level parallelism (runner --threads)
  // and engine-level parallelism (--sim-threads) stay independent.
  const bool sharded = ecfg.engine == EngineMode::kSharded;
  const uint32_t num_monitors = sharded ? cluster.num_shards() : 1;
  std::deque<LatencyMonitor> monitors;
  for (uint32_t s = 0; s < num_monitors; ++s) {
    monitors.emplace_back(ecfg.warmup_cycles);
    monitors.back().set_measure_end(ecfg.warmup_cycles + ecfg.measure_cycles);
  }

  if (sharded) engine.set_sharded(cluster.num_shards(), ecfg.sim_threads);

  TrafficConfig tcfg;
  tcfg.lambda = ecfg.lambda;
  tcfg.p_local_seq = ecfg.p_local_seq;
  tcfg.seed = ecfg.seed;
  tcfg.stop_generation_at = ecfg.warmup_cycles + ecfg.measure_cycles;

  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  std::vector<Client*> clients;
  gens.reserve(ccfg.num_cores());
  for (uint32_t c = 0; c < ccfg.num_cores(); ++c) {
    const auto tile = static_cast<uint16_t>(c / ccfg.cores_per_tile);
    LatencyMonitor* monitor =
        sharded ? &monitors[cluster.tile_shard(tile)] : &monitors.front();
    gens.push_back(std::make_unique<TrafficGenerator>(
        "gen" + std::to_string(c), static_cast<uint16_t>(c), tile, ccfg,
        &cluster.layout(), &engine, tcfg, monitor));
    clients.push_back(gens.back().get());
  }
  cluster.attach_clients(clients);
  cluster.build(engine);

  engine.set_stall_horizon(ecfg.stall_horizon);

  // Resume: the engine and monitors restore from the image before the first
  // step, as if the original run had simply been paused here. Component
  // count, monitor count, and the point key are all validated, so an image
  // from a different config (or a different engine mode's monitor layout)
  // is rejected instead of silently producing a diverged result.
  if (ckpt.restore_from != nullptr) {
    const Snapshot snap = Snapshot::deserialize(*ckpt.restore_from);
    MEMPOOL_CHECK_MSG(ckpt.key.empty() || snap.key == ckpt.key,
                      "checkpoint key mismatch: image is for '"
                          << snap.key << "', this point is '" << ckpt.key
                          << "'");
    engine.load_state(snap);
    for (uint32_t s = 0; s < num_monitors; ++s) {
      StateSource src(snap.payload("monitor" + std::to_string(s)));
      monitors[s].load_state(src);
      src.finish();
    }
    MEMPOOL_CHECK_MSG(
        snap.find("monitor" + std::to_string(num_monitors)) == nullptr,
        "checkpoint monitor count mismatch (saved under a different engine "
        "mode?)");
  }

  const uint64_t total =
      ecfg.warmup_cycles + ecfg.measure_cycles + ecfg.drain_cycles;
  MEMPOOL_CHECK_MSG(engine.cycle() <= total,
                    "checkpoint is past the end of the run ("
                        << engine.cycle() << " > " << total << " cycles)");

  // Stepping the run in checkpoint_every-sized chunks is invisible to the
  // simulation: run() leaves no partial cycle, so every chunk boundary is a
  // quiesced point between two steps and the state evolution is identical
  // to one uninterrupted run().
  while (engine.cycle() < total) {
    if (ckpt.should_abort && ckpt.should_abort()) {
      throw PointAborted(engine.cycle());
    }
    uint64_t target = total;
    if (ckpt.checkpoint_every != 0) {
      const uint64_t boundary =
          (engine.cycle() / ckpt.checkpoint_every + 1) * ckpt.checkpoint_every;
      target = std::min(total, boundary);
    }
    engine.run(target - engine.cycle());
    if (ckpt.on_checkpoint && ckpt.checkpoint_every != 0 &&
        engine.cycle() < total) {
      Snapshot snap;
      snap.key = ckpt.key;
      engine.save_state(&snap);
      for (uint32_t s = 0; s < num_monitors; ++s) {
        StateSink sink;
        monitors[s].save_state(sink);
        snap.add("monitor" + std::to_string(s), sink.take());
      }
      ckpt.on_checkpoint(engine.cycle(), snap.serialize());
    }
  }

  LatencyMonitor& monitor = monitors.front();
  for (uint32_t s = 1; s < num_monitors; ++s) monitor.absorb(monitors[s]);

  if (counters_out != nullptr) {
    const Cluster::FabricStats fs = cluster.fabric_stats();
    TrafficCounters& c = *counters_out;
    c.generated = monitor.generated();
    c.injected = monitor.injected();
    c.completed = monitor.completed();
    c.completed_in_window = monitor.completed_in_window();
    c.tile_req_traversals = fs.tile_req_traversals;
    c.tile_resp_traversals = fs.tile_resp_traversals;
    c.dir_traversals = fs.dir_traversals;
    c.remote_resp_traversals = fs.remote_resp_traversals;
    c.group_local_traversals = fs.group_local_traversals;
    c.butterfly_traversals = fs.butterfly_traversals;
    c.bank_accesses = fs.bank_accesses;
    c.bank_stall_cycles = fs.bank_stall_cycles;
    c.final_cycle = engine.cycle();
  }

  TrafficPoint p;
  p.offered = ecfg.lambda;
  const double window = static_cast<double>(ecfg.measure_cycles);
  const double cores = static_cast<double>(ccfg.num_cores());
  p.generated = static_cast<double>(monitor.generated()) / (window * cores);
  p.accepted =
      static_cast<double>(monitor.completed_in_window()) / (window * cores);
  p.avg_latency = monitor.avg_latency();
  p.p95_latency = monitor.p95_latency();
  p.max_latency = monitor.max_latency();
  p.completed = monitor.completed();
  return p;
}

}  // namespace mempool
