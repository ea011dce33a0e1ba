#include "verify/drc_matrix.hpp"

#include <deque>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "mem/imem.hpp"
#include "mem/memsys.hpp"
#include "noc/fabric.hpp"
#include "noc/monitor.hpp"
#include "sim/engine.hpp"
#include "traffic/generator.hpp"

namespace mempool::verify {

DrcReport check_topology(const std::string& topology, const std::string& memory,
                         EngineMode mode, bool mini) {
  // Mirror run_traffic_point's elaboration (traffic/experiment.cpp) up to —
  // but not including — engine.run(): the DRC lints the wired graph, it
  // never steps a cycle.
  ClusterConfig ccfg = mini ? ClusterConfig::mini(TopologySpec(topology))
                            : ClusterConfig::paper(TopologySpec(topology),
                                                   /*scrambling=*/true);
  ccfg.memory = MemorySpec(memory);
  ccfg.validate();

  InstrMem imem(4096);
  Engine engine;
  engine.set_dense(mode == EngineMode::kDense);
  Cluster cluster(ccfg, &imem);
  if (mode == EngineMode::kSharded) {
    // One sim thread: the DRC never steps, so no helper thread is started.
    engine.set_sharded(cluster.num_shards(), 1);
  }

  LatencyMonitor monitor(/*warmup=*/0);
  TrafficConfig tcfg;
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  std::vector<Client*> clients;
  gens.reserve(ccfg.num_cores());
  for (uint32_t c = 0; c < ccfg.num_cores(); ++c) {
    const auto tile = static_cast<uint16_t>(c / ccfg.cores_per_tile);
    gens.push_back(std::make_unique<TrafficGenerator>(
        "gen" + std::to_string(c), static_cast<uint16_t>(c), tile, ccfg,
        &cluster.layout(), &engine, tcfg, &monitor));
    clients.push_back(gens.back().get());
  }
  cluster.attach_clients(clients);
  cluster.build(engine);

  return run_drc(engine, cluster.num_shards());
}

Json drc_matrix_report(bool mini, bool* clean_out) {
  bool clean = true;
  Json cases = Json::array();
  for (const std::string& topo : FabricRegistry::names()) {
    for (const std::string& mem : MemoryRegistry::names()) {
      for (const EngineMode mode :
           {EngineMode::kActive, EngineMode::kDense, EngineMode::kSharded}) {
        const DrcReport report = check_topology(topo, mem, mode, mini);
        clean = clean && report.clean();
        Json c = report.to_json();
        c.set("topology", topo);
        c.set("memory", mem);
        c.set("engine", engine_mode_name(mode));
        cases.push_back(std::move(c));
      }
    }
  }
  Json doc = Json::object();
  doc.set("schema", "mempool.drc.v1");
  doc.set("clean", clean);
  doc.set("cases", std::move(cases));
  if (clean_out != nullptr) *clean_out = clean;
  return doc;
}

}  // namespace mempool::verify
