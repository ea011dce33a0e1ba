#include "runner/results.hpp"

#include <fstream>

#include "common/check.hpp"
#include "common/file_io.hpp"

namespace mempool::runner {

Json sweep_to_json(const SweepResult& result) {
  MEMPOOL_CHECK(result.requests.size() == result.results.size());
  Json root = Json::object();
  root.set("schema", "mempool.sweep.v4");
  root.set("threads", result.threads);
  root.set("wall_seconds", result.wall_seconds);
  Json points = Json::array();
  for (std::size_t i = 0; i < result.results.size(); ++i) {
    Json rec = Json::object();
    rec.set("request", result.requests[i].to_json());
    rec.set("result", result.results[i].to_json());
    points.push_back(std::move(rec));
  }
  root.set("points", std::move(points));
  return root;
}

SweepResult sweep_from_json(const Json& j) {
  const std::string schema = j.get("schema", Json("")).as_string();
  MEMPOOL_CHECK_MSG(schema == "mempool.sweep.v4",
                    "not a mempool.sweep.v4 document (schema '" << schema
                                                              << "')");
  SweepResult result;
  result.threads = j.at_u32("threads");
  result.wall_seconds = j.at("wall_seconds").as_double();
  for (const Json& rec : j.at("points").items()) {
    serve::SimRequest req = serve::SimRequest::from_json(rec.at("request"));
    req.validate();
    serve::SimResult res = serve::SimResult::from_json(rec.at("result"));
    MEMPOOL_CHECK_MSG(res.request_key == req.key(),
                      "sweep point " << result.results.size()
                                     << ": result is keyed '"
                                     << res.request_key
                                     << "' but its request's key is '"
                                     << req.key() << "'");
    result.requests.push_back(std::move(req));
    result.results.push_back(std::move(res));
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
  const std::optional<std::string> text = read_file(path);
  MEMPOOL_CHECK_MSG(text, "cannot open '" << path << "' for reading");
  return Json::parse(*text);
}

}  // namespace mempool::runner
