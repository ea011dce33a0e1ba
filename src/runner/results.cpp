#include "runner/results.hpp"

#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "mem/memsys.hpp"
#include "noc/fabric.hpp"

namespace mempool::runner {

Json sweep_to_json(const SweepResult& result) {
  MEMPOOL_CHECK(result.configs.size() == result.points.size());
  Json root = Json::object();
  root.set("schema", "mempool.sweep.v3");
  root.set("threads", result.threads);
  root.set("wall_seconds", result.wall_seconds);
  Json points = Json::array();
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const TrafficExperimentConfig& cfg = result.configs[i];
    const TrafficPoint& p = result.points[i];
    Json rec = Json::object();
    // The topology and the memory system are self-describing {name, params}
    // specs, so plugin parameters survive the round trip verbatim.
    Json topo = Json::object();
    topo.set("name", cfg.cluster.topology.name);
    Json params = Json::object();
    for (const auto& [k, v] : cfg.cluster.topology.params) params.set(k, v);
    topo.set("params", std::move(params));
    rec.set("topology", std::move(topo));
    Json mem = Json::object();
    mem.set("name", cfg.cluster.memory.name);
    Json mem_params = Json::object();
    for (const auto& [k, v] : cfg.cluster.memory.params) mem_params.set(k, v);
    mem.set("params", std::move(mem_params));
    rec.set("memory", std::move(mem));
    rec.set("scrambling", cfg.cluster.scrambling);
    rec.set("num_tiles", cfg.cluster.num_tiles);
    rec.set("cores_per_tile", cfg.cluster.cores_per_tile);
    rec.set("banks_per_tile", cfg.cluster.banks_per_tile);
    rec.set("bank_bytes", cfg.cluster.bank_bytes);
    rec.set("seq_region_bytes", cfg.cluster.seq_region_bytes);
    rec.set("num_groups", cfg.cluster.num_groups);
    rec.set("lambda", cfg.lambda);
    rec.set("p_local", cfg.p_local_seq);
    rec.set("seed", cfg.seed);
    rec.set("engine", engine_mode_name(cfg.engine));
    if (cfg.engine == EngineMode::kSharded) {
      rec.set("sim_threads", static_cast<uint64_t>(cfg.sim_threads));
    }
    rec.set("warmup_cycles", cfg.warmup_cycles);
    rec.set("measure_cycles", cfg.measure_cycles);
    rec.set("drain_cycles", cfg.drain_cycles);
    rec.set("offered", p.offered);
    rec.set("generated", p.generated);
    rec.set("accepted", p.accepted);
    rec.set("avg_latency", p.avg_latency);
    rec.set("p95_latency", p.p95_latency);
    rec.set("max_latency", p.max_latency);
    rec.set("completed", p.completed);
    points.push_back(std::move(rec));
  }
  root.set("points", std::move(points));
  return root;
}

SweepResult sweep_from_json(const Json& j) {
  const std::string schema = j.get("schema", Json("")).as_string();
  MEMPOOL_CHECK_MSG(schema == "mempool.sweep.v3",
                    "not a mempool.sweep.v3 document (schema '" << schema
                                                              << "')");
  SweepResult result;
  result.threads = j.at_u32("threads");
  result.wall_seconds = j.at("wall_seconds").as_double();
  for (const Json& rec : j.at("points").items()) {
    TrafficExperimentConfig cfg;
    const Json& topo = rec.at("topology");
    TopologySpec spec;
    spec.name = topo.at("name").as_string();
    const Json params = topo.get("params", Json::object());
    for (const auto& [k, v] : params.members()) {
      spec.params[k] = v;
    }
    // Resolve against the registry here so a stale document fails with the
    // list of available plugins instead of deep in cluster construction.
    MEMPOOL_CHECK_MSG(FabricRegistry::find(spec.name) != nullptr,
                      "unknown topology '" << spec.name << "'; available: "
                                           << FabricRegistry::available());
    cfg.cluster.topology = std::move(spec);
    const Json& mem = rec.at("memory");
    MemorySpec mspec;
    mspec.name = mem.at("name").as_string();
    const Json mparams = mem.get("params", Json::object());
    for (const auto& [k, v] : mparams.members()) {
      mspec.params[k] = v;
    }
    MEMPOOL_CHECK_MSG(MemoryRegistry::find(mspec.name) != nullptr,
                      "unknown memory system '"
                          << mspec.name << "'; available: "
                          << MemoryRegistry::available());
    cfg.cluster.memory = std::move(mspec);
    cfg.cluster.scrambling = rec.at("scrambling").as_bool();
    cfg.cluster.num_tiles = rec.at_u32("num_tiles");
    cfg.cluster.cores_per_tile = rec.at_u32("cores_per_tile");
    cfg.cluster.banks_per_tile = rec.at_u32("banks_per_tile");
    cfg.cluster.bank_bytes = rec.at_u32("bank_bytes");
    cfg.cluster.seq_region_bytes = rec.at_u32("seq_region_bytes");
    cfg.cluster.num_groups = rec.at_u32("num_groups");
    // Traffic experiments replace the cores with generators, so the CoreConfig
    // and ICacheConfig timing parameters do not influence the results and are
    // not part of the schema; everything that does influence them is, and an
    // inconsistent record must fail here, not deep in cluster construction.
    cfg.cluster.validate();
    cfg.lambda = rec.at("lambda").as_double();
    cfg.p_local_seq = rec.at("p_local").as_double();
    cfg.seed = rec.at("seed").as_uint();
    // Which engine produced the point. All engines produce bit-identical
    // physics; recorded for provenance.
    const std::string engine = rec.at("engine").as_string();
    MEMPOOL_CHECK_MSG(engine_mode_from_name(engine, &cfg.engine),
                      "unknown engine '" << engine << "'; available: "
                                         << engine_mode_available());
    cfg.sim_threads = rec.get_u32("sim_threads", 1);
    cfg.warmup_cycles = rec.at("warmup_cycles").as_uint();
    cfg.measure_cycles = rec.at("measure_cycles").as_uint();
    cfg.drain_cycles = rec.at("drain_cycles").as_uint();
    result.configs.push_back(cfg);

    TrafficPoint p;
    p.offered = rec.at("offered").as_double();
    p.generated = rec.at("generated").as_double();
    p.accepted = rec.at("accepted").as_double();
    p.avg_latency = rec.at("avg_latency").as_double();
    p.p95_latency = rec.at("p95_latency").as_double();
    p.max_latency = rec.at("max_latency").as_double();
    p.completed = rec.at("completed").as_uint();
    result.points.push_back(p);
  }
  return result;
}

SpeedupSummary speedup_from_json(const Json& j) {
  SpeedupSummary s;
  s.schema = j.get("schema", Json("")).as_string();
  MEMPOOL_CHECK_MSG(s.schema == "mempool.speedup.v3",
                    "not a mempool.speedup.v3 document (schema '" << s.schema
                                                                << "')");
  s.aggregate_speedup = j.at("aggregate_speedup").as_double();
  s.min_speedup = j.at("min_speedup").as_double();
  s.aggregate_sharded_speedup = j.at("aggregate_sharded_speedup").as_double();
  const Json& paper = j.at("paper_point");
  s.paper_cycles_per_second = paper.at("cycles_per_second").as_double();
  s.paper_cycles_per_second_per_shard =
      paper.at("cycles_per_second_per_shard").as_double();
  s.paper_sharded_1t_cycles_per_second =
      paper.at("sharded_1t_cycles_per_second").as_double();
  s.num_points = j.at("points").items().size();
  return s;
}

Json bench_envelope(const std::string& bench, unsigned threads,
                    double wall_seconds, Json results) {
  Json root = Json::object();
  root.set("schema", "mempool.bench.v1");
  root.set("bench", bench);
  root.set("threads", threads);
  root.set("wall_seconds", wall_seconds);
  root.set("results", std::move(results));
  return root;
}

void write_json_file(const std::string& path, const Json& j) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  MEMPOOL_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  os << j.dump(2) << '\n';
  os.flush();
  MEMPOOL_CHECK_MSG(os.good(), "write to '" << path << "' failed");
}

Json read_json_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  MEMPOOL_CHECK_MSG(is.good(), "cannot open '" << path << "' for reading");
  std::ostringstream buf;
  buf << is.rdbuf();
  return Json::parse(buf.str());
}

}  // namespace mempool::runner
