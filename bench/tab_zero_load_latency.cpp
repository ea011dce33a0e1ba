// T1 (Sections III-B/C text): zero-load access latencies on the 256-core
// cluster — 1 cycle to the own tile, 3 cycles within a TopH local group,
// 5 cycles to any remote tile on Top1/Top4/TopH-cross-group, 1 cycle on the
// ideal TopX. Measured with single-load probes on an idle fabric.
//
// The "paper" column is each fabric plugin's self-reported latency model
// (FabricTopology::latency_summary); the registry contract test pins the
// measured probes to the full per-tile model. Run with `--topology TopH2`
// (or any registered plugin) to measure one topology instead of the default
// four — TopH2 adds a fourth tier: 7 cycles across super-groups.
//
// The topologies are measured concurrently on the runner pool; each task
// owns its cluster, so the probe sequences cannot interfere.

#include <chrono>
#include <iostream>
#include <memory>

#include "common/report.hpp"
#include "common/stats.hpp"
#include "core/cluster.hpp"
#include "mem/imem.hpp"
#include "noc/fabric.hpp"
#include "runner/bench_cli.hpp"
#include "runner/parallel.hpp"
#include "traffic/probe.hpp"

using namespace mempool;

namespace {

struct Rig {
  explicit Rig(const ClusterConfig& cfg, EngineMode mode)
      : imem(4096), cluster(cfg, &imem) {
    // Probing is one load at a time, so sharded mode runs its shards inline
    // on this thread (no helpers) — still the sharded code path end to end.
    if (mode == EngineMode::kSharded) {
      engine.set_sharded(cluster.num_shards(), 1);
    } else {
      engine.set_dense(mode == EngineMode::kDense);
    }
    for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
      probes.push_back(std::make_unique<ProbeClient>(
          static_cast<uint16_t>(c),
          static_cast<uint16_t>(c / cfg.cores_per_tile), &cluster.layout()));
    }
    std::vector<Client*> clients;
    for (auto& p : probes) clients.push_back(p.get());
    cluster.attach_clients(clients);
    cluster.build(engine);
  }
  uint64_t probe(uint32_t core, uint32_t addr) {
    const uint32_t before = probes[core]->responses();
    probes[core]->arm(addr);
    for (int i = 0; i < 64 && probes[core]->responses() == before; ++i) {
      engine.step();
    }
    return probes[core]->latency();
  }
  InstrMem imem;
  Engine engine;
  Cluster cluster;
  std::vector<std::unique_ptr<ProbeClient>> probes;
};

struct TopoLatency {
  uint64_t own = 0;
  uint64_t same_group = 0;
  uint64_t remote = 0;
  uint64_t worst = 0;
  double mean = 0;
  uint32_t tiles = 0;
};

TopoLatency measure(const TopologySpec& topo, EngineMode mode) {
  const ClusterConfig cfg = ClusterConfig::paper(topo, true);
  Rig rig(cfg, mode);
  auto addr = [&](uint32_t tile) { return tile * cfg.seq_region_bytes; };
  TopoLatency out;
  out.tiles = cfg.num_tiles;
  out.own = rig.probe(0, addr(0));
  out.same_group = rig.probe(0, addr(3));
  out.remote = rig.probe(0, addr(cfg.num_tiles - 1));
  RunningStat all;
  for (uint32_t tile = 0; tile < cfg.num_tiles; ++tile) {
    const uint64_t l = rig.probe(0, addr(tile));
    out.worst = std::max(out.worst, l);
    all.add(static_cast<double>(l));
  }
  out.mean = all.mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::BenchOptions opts = runner::parse_bench_options(
      &argc, argv, "tab_zero_load_latency", /*accepts_topology=*/true);

  print_banner(std::cout,
               "T1 — zero-load access latency (cycles), 256-core cluster");

  std::vector<TopologySpec> topos = {"Top1", "Top4",
                                     "TopH", "TopX"};
  if (!opts.topology.empty()) topos = {TopologySpec{opts.topology}};

  runner::ThreadPool pool(opts.threads);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<TopoLatency> lats = runner::run_indexed(
      pool, topos.size(),
      [&](std::size_t i) { return measure(topos[i], opts.engine); });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  Table t({"topology", "own tile", "same group", "remote group / remote tile",
           "max over all tiles", "paper"});
  for (std::size_t i = 0; i < topos.size(); ++i) {
    const FabricTopology& plugin = FabricRegistry::get(topos[i].name);
    const ClusterConfig cfg = ClusterConfig::paper(topos[i], true);
    const TopoLatency& l = lats[i];
    t.add_row({topos[i].name, std::to_string(l.own),
               plugin.hierarchical() ? std::to_string(l.same_group)
                                     : std::string("-"),
               std::to_string(l.remote), std::to_string(l.worst),
               plugin.latency_summary(cfg)});
    std::cout << "  " << topos[i].name << ": mean over all " << l.tiles
              << " destination tiles = " << Table::num(l.mean, 2)
              << " cycles\n";
  }
  std::cout << '\n';
  t.print(std::cout);
  std::cout << "\nPaper (Sections I/III): \"all the SPM banks accessible "
               "within 5 cycles\" on TopH — verified when the max column is "
               "<= 5.\n";

  Json results = Json::object();
  results.set("latencies", t.to_json());
  runner::write_bench_results(opts, pool.num_threads(), wall,
                              std::move(results));
  return 0;
}
