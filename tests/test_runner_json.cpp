// JSON value type and the sweep results writer: parse/dump round trips,
// error handling, and the guarantee a sweep written to disk reads back
// bit-identical (shortest-round-trip double formatting).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/report.hpp"
#include "common/stats.hpp"
#include "runner/results.hpp"
#include "runner/runner.hpp"
#include "serve/request.hpp"

using namespace mempool;
using namespace mempool::runner;

TEST(Json, ScalarsDumpAndParse) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(uint64_t{1} << 60).dump(), "1152921504606846976");
  EXPECT_EQ(Json(0.25).dump(), "0.25");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");

  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-13").as_int(), -13);
  EXPECT_DOUBLE_EQ(Json::parse("0.125e2").as_double(), 12.5);
  EXPECT_EQ(Json::parse("\"a\\nb\"").as_string(), "a\nb");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json o = Json::object();
  o.set("zebra", 1);
  o.set("apple", 2);
  o.set("mango", 3);
  EXPECT_EQ(o.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  o.set("apple", 9);  // overwrite keeps position
  EXPECT_EQ(o.dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
  EXPECT_EQ(o.at("apple").as_int(), 9);
  EXPECT_TRUE(o.contains("mango"));
  EXPECT_FALSE(o.contains("kiwi"));
  EXPECT_EQ(o.get("kiwi", Json(-1)).as_int(), -1);
}

TEST(Json, NestedDocumentRoundTripsThroughText) {
  Json doc = Json::object();
  doc.set("name", "sweep");
  doc.set("ok", true);
  Json arr = Json::array();
  for (int i = 0; i < 4; ++i) arr.push_back(i * 0.1);
  doc.set("values", std::move(arr));
  Json inner = Json::object();
  inner.set("count", int64_t{12345678901234});
  doc.set("meta", std::move(inner));

  const Json back = Json::parse(doc.dump(2));
  EXPECT_EQ(back.dump(), doc.dump());
  EXPECT_EQ(back.at("meta").at("count").as_int(), int64_t{12345678901234});
  EXPECT_EQ(back.at("values").size(), 4u);
}

TEST(Json, DoublesSurviveShortestRoundTrip) {
  // Values with no short decimal representation must still round-trip
  // bit-exactly — the determinism checks on results files depend on it.
  for (double v : {1.0 / 3.0, 0.1, 2.0 / 7.0, 123456.789e-12, 5.22037e5}) {
    const Json back = Json::parse(Json(v).dump());
    EXPECT_EQ(back.as_double(), v);
  }
}

TEST(Json, StringEscapes) {
  const std::string s = "quote\" back\\slash tab\t nl\n ctrl\x01";
  EXPECT_EQ(Json::parse(Json(s).dump()).as_string(), s);
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(Json::parse(""), CheckError);
  EXPECT_THROW(Json::parse("{"), CheckError);
  EXPECT_THROW(Json::parse("[1,]"), CheckError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), CheckError);
  EXPECT_THROW(Json::parse("nul"), CheckError);
  EXPECT_THROW(Json::parse("'single'"), CheckError);
}

TEST(Json, NestingBeyondTheDepthLimitThrowsNamingIt) {
  // The parser recurses once per level: 100,000 nested '[' (one 100 KB
  // request line) used to overflow the stack and kill the process.
  const std::size_t limit = Json::kMaxDepth;
  auto nested = [](std::size_t depth, const char* open, const char* close) {
    std::string s;
    for (std::size_t i = 0; i < depth; ++i) s += open;
    s += "1";
    for (std::size_t i = 0; i < depth; ++i) s += close;
    return s;
  };
  EXPECT_NO_THROW(Json::parse(nested(limit, "[", "]")));
  EXPECT_NO_THROW(Json::parse(nested(limit, "{\"a\":", "}")));
  for (const std::string& deep :
       {nested(limit + 1, "[", "]"), nested(limit + 1, "{\"a\":", "}"),
        std::string(100000, '['), nested(100000, "[{\"a\":", "}]")}) {
    try {
      Json::parse(deep);
      ADD_FAILURE() << "parsed " << deep.size() << " bytes of nesting";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("kMaxDepth"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Json, TypeMismatchesThrow) {
  EXPECT_THROW(Json(1).as_string(), CheckError);
  EXPECT_THROW(Json("x").as_int(), CheckError);
  EXPECT_THROW(Json(0.5).as_int(), CheckError);  // non-integral double
  EXPECT_THROW(Json(-1).as_uint(), CheckError);
  EXPECT_THROW(Json(1).items(), CheckError);
  EXPECT_THROW(Json::object().at("missing"), CheckError);
}

TEST(Json, Int64RangeGuards) {
  // uint64 values beyond int64 cannot be stored faithfully — reject at
  // construction instead of serializing a negative number.
  EXPECT_THROW(Json(~uint64_t{0}), CheckError);
  EXPECT_NO_THROW(Json(uint64_t{1} << 62));
  // An integral double outside int64 range must not hit UB in the cast.
  EXPECT_THROW(Json::parse("1e300").as_int(), CheckError);
  EXPECT_THROW(Json::parse("-1e300").as_int(), CheckError);
  EXPECT_EQ(Json::parse("1e15").as_int(), 1000000000000000ll);
}

TEST(StatsJson, RunningStatAndHistogramEmit) {
  RunningStat st;
  for (double v : {1.0, 2.0, 3.0}) st.add(v);
  const Json j = st.to_json();
  EXPECT_EQ(j.at("count").as_uint(), 3u);
  EXPECT_DOUBLE_EQ(j.at("mean").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(j.at("max").as_double(), 3.0);

  Histogram h(1.0, 8);
  h.add(0.5);
  h.add(2.5);
  h.add(100.0);  // overflow
  const Json hj = h.to_json();
  EXPECT_EQ(hj.at("overflow").as_uint(), 1u);
  EXPECT_EQ(hj.at("counts").size(), 3u);  // trailing zeros trimmed
  EXPECT_EQ(hj.at("counts").at(0).as_uint(), 1u);
  EXPECT_EQ(hj.at("counts").at(2).as_uint(), 1u);
}

TEST(ReportJson, TableEmitsRowsKeyedByHeader) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"b", "2"});
  const Json j = t.to_json();
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at(0).at("name").as_string(), "a");
  EXPECT_EQ(j.at(1).at("value").as_string(), "2");
}

namespace {

SweepResult small_sweep() {
  SweepSpec spec;
  spec.base.cluster = ClusterConfig::mini("TopH", true);
  spec.base.warmup_cycles = 50;
  spec.base.measure_cycles = 200;
  spec.base.drain_cycles = 100;
  spec.topologies = {"Top1", "TopH"};
  spec.lambdas = {0.1, 0.25};
  spec.seeds = {7};
  spec.paper_cluster = false;
  RunnerOptions opts;
  opts.threads = 2;
  return run_sweep(spec, opts);
}

}  // namespace

TEST(SweepJson, SweepRoundTripsBitIdentical) {
  const SweepResult original = small_sweep();

  // Through the JSON text, as a results file would.
  const Json doc = Json::parse(sweep_to_json(original).dump(2));
  const SweepResult back = sweep_from_json(doc);

  EXPECT_EQ(back.threads, original.threads);
  ASSERT_EQ(back.results.size(), original.results.size());
  ASSERT_EQ(back.requests.size(), original.requests.size());
  for (std::size_t i = 0; i < original.results.size(); ++i) {
    EXPECT_EQ(back.results[i], original.results[i]) << "point " << i;
    EXPECT_EQ(back.requests[i], original.requests[i]) << "point " << i;
  }
}

TEST(SweepJson, WritesV4RequestResultPairs) {
  const SweepResult original = small_sweep();
  const Json doc = sweep_to_json(original);
  EXPECT_EQ(doc.at("schema").as_string(), "mempool.sweep.v4");
  const Json& first = doc.at("points").at(0);
  EXPECT_EQ(first.size(), 2u);  // {request, result}, nothing else
  EXPECT_EQ(first.at("request").dump(0), original.requests[0].canonical());
  EXPECT_EQ(first.at("result").dump(0), original.results[0].to_json().dump(0));
  const Json& topo = first.at("request").at("topology");
  EXPECT_EQ(topo.at("name").as_string(), "Top1");
  EXPECT_TRUE(topo.at("params").is_object());
  const Json& mem = first.at("request").at("memory");
  EXPECT_EQ(mem.at("name").as_string(), "tcdm");
  EXPECT_TRUE(mem.at("params").is_object());
  // The result is keyed as run_point keys the request the record names.
  const serve::SimRequest req =
      serve::SimRequest::from_json(first.at("request"));
  EXPECT_EQ(first.at("result").at("request_key").as_string(),
            serve::run_point(req).request_key);
}

TEST(SweepJson, MemorySpecParamsRoundTrip) {
  SweepResult original = small_sweep();
  for (std::size_t i = 0; i < original.requests.size(); ++i) {
    original.requests[i].config.cluster.memory =
        MemorySpec{"tcdm+l2", {{"l2_latency", Json(uint64_t{11})}}};
    original.results[i].request_key = original.requests[i].key();
  }
  const SweepResult back =
      sweep_from_json(Json::parse(sweep_to_json(original).dump(2)));
  ASSERT_EQ(back.requests.size(), original.requests.size());
  const MemorySpec& mem = back.requests[0].config.cluster.memory;
  EXPECT_EQ(mem, original.requests[0].config.cluster.memory);
  EXPECT_EQ(mem.param_uint("l2_latency", 0), 11u);
}

namespace {

/// @p doc with point 0's request member @p member replaced by @p value
/// (Json has no mutable at(), so the points array is rebuilt).
Json with_request_member(Json doc, const std::string& member,
                         const Json& value) {
  Json points = Json::array();
  for (std::size_t i = 0; i < doc.at("points").size(); ++i) {
    Json rec = doc.at("points").at(i);
    if (i == 0) {
      Json req = rec.at("request");
      req.set(member, value);
      rec.set("request", std::move(req));
    }
    points.push_back(std::move(rec));
  }
  doc.set("points", std::move(points));
  return doc;
}

}  // namespace

TEST(SweepJson, RejectsAResultKeyedForAnotherRequest) {
  const Json doc = sweep_to_json(small_sweep());
  // λ 0.1 -> 0.2 keeps the record well formed but changes the request's
  // key, so the stored result no longer answers it.
  const Json bad = with_request_member(doc, "lambda", Json(0.2));
  try {
    sweep_from_json(bad);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sweep point 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find(doc.at("points").at(0).at("result").at("request_key")
                           .as_string()),
              std::string::npos)
        << msg;
  }
}

TEST(SweepJson, RejectsUnknownMemoryNamingAvailable) {
  const SweepResult original = small_sweep();
  Json mem = Json::object();
  mem.set("name", "l9-cache");
  mem.set("params", Json::object());
  const Json doc = with_request_member(sweep_to_json(original), "memory", mem);
  try {
    sweep_from_json(doc);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("l9-cache"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tcdm"), std::string::npos) << msg;
  }
}

TEST(SweepJson, RejectsUnknownTopologyNamingAvailable) {
  const SweepResult original = small_sweep();
  // Corrupt the first point's topology name.
  Json topo = Json::object();
  topo.set("name", "TopZ");
  topo.set("params", Json::object());
  const Json doc =
      with_request_member(sweep_to_json(original), "topology", topo);
  try {
    sweep_from_json(doc);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("TopZ"), std::string::npos);
    EXPECT_NE(msg.find("available"), std::string::npos) << msg;
  }
}

TEST(SweepJson, RejectsWrongSchema) {
  // Only mempool.sweep.v4 is read; the flat-record v3, the
  // pre-memory-registry v2 and the bare-topology-name v1 layouts are
  // rejected like any other schema.
  for (const char* schema : {"something.else.v9", "mempool.sweep.v3",
                             "mempool.sweep.v2", "mempool.sweep.v1"}) {
    Json doc = Json::object();
    doc.set("schema", schema);
    EXPECT_THROW(sweep_from_json(doc), CheckError) << schema;
  }
}

TEST(SweepJson, BenchEnvelopeShape) {
  const Json env = bench_envelope("fig5", 8, 1.5, Json::object());
  EXPECT_EQ(env.at("schema").as_string(), "mempool.bench.v1");
  EXPECT_EQ(env.at("bench").as_string(), "fig5");
  EXPECT_EQ(env.at("threads").as_uint(), 8u);
  EXPECT_TRUE(env.at("results").is_object());
}

TEST(SweepJson, FileWriterRoundTrips) {
  const SweepResult original = small_sweep();
  const std::string path = ::testing::TempDir() + "/mempool_sweep_rt.json";
  write_json_file(path, sweep_to_json(original));
  const SweepResult back = sweep_from_json(read_json_file(path));
  ASSERT_EQ(back.results.size(), original.results.size());
  for (std::size_t i = 0; i < original.results.size(); ++i)
    EXPECT_EQ(back.results[i], original.results[i]);
  std::remove(path.c_str());
}

TEST(SweepJson, ReadMissingFileThrows) {
  EXPECT_THROW(read_json_file("/nonexistent/dir/x.json"), CheckError);
}

namespace {

TEST(SpeedupJson, ReadsV3WithPaperPointBlock) {
  // mempool.speedup.v3: absolute cycles/sec per point plus the paper_point
  // block (256-core TopH λ=0.05) the CI perf gate keys its cycles/sec floor
  // on. The v1/v2 ratio fields keep their meaning.
  const runner::SpeedupSummary v3 = runner::speedup_from_json(Json::parse(R"({
    "schema": "mempool.speedup.v3",
    "aggregate_speedup": 3.6,
    "min_speedup": 2.1,
    "aggregate_sharded_speedup": 1.0,
    "host_cpus": 1,
    "paper_point": {
      "topology": "TopH", "lambda": 0.05, "num_shards": 4,
      "cycles_per_second": 150000.0,
      "cycles_per_second_per_shard": 37500.0,
      "sharded_1t_cycles_per_second": 145000.0
    },
    "points": [
      {"workload": "fig5", "topology": "TopH", "lambda": 0.05,
       "dense_seconds": 0.2, "active_seconds": 0.05, "speedup": 4.0,
       "sim_cycles": 7000,
       "dense_cycles_per_second": 35000.0,
       "active_cycles_per_second": 140000.0,
       "sharded_seconds": {"1": 0.055},
       "sharded_cycles_per_second": {"1": 127272.7},
       "sharded_speedup": 0.9}
    ]
  })"));
  EXPECT_EQ(v3.schema, "mempool.speedup.v3");
  EXPECT_DOUBLE_EQ(v3.aggregate_speedup, 3.6);
  EXPECT_DOUBLE_EQ(v3.aggregate_sharded_speedup, 1.0);
  EXPECT_DOUBLE_EQ(v3.paper_cycles_per_second, 150000.0);
  EXPECT_DOUBLE_EQ(v3.paper_cycles_per_second_per_shard, 37500.0);
  EXPECT_DOUBLE_EQ(v3.paper_sharded_1t_cycles_per_second, 145000.0);
  EXPECT_EQ(v3.num_points, 1u);

  // A v3 document must carry its paper_point block — a truncated artifact
  // fails loudly instead of gating against a silent zero.
  EXPECT_THROW(runner::speedup_from_json(Json::parse(R"({
    "schema": "mempool.speedup.v3",
    "aggregate_speedup": 3.6, "min_speedup": 2.1,
    "aggregate_sharded_speedup": 1.0, "points": []
  })")),
               CheckError);

  // Any other schema, older speedup versions included, is rejected.
  for (const char* schema : {"x", "mempool.speedup.v2", "mempool.speedup.v1"}) {
    Json doc = Json::object();
    doc.set("schema", schema);
    EXPECT_THROW(runner::speedup_from_json(doc), CheckError) << schema;
  }
}

TEST(SweepJson, ShardedEngineRoundTrips) {
  // A sharded point's engine + sim_threads survive the round trip.
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::mini("TopH", false);
  cfg.engine = EngineMode::kSharded;
  cfg.sim_threads = 8;
  cfg.lambda = 0.1;
  runner::SweepResult res;
  res.requests = {serve::SimRequest::from_config(cfg)};
  res.results = {serve::SimResult{res.requests[0].key(), TrafficPoint{}}};
  const runner::SweepResult back =
      runner::sweep_from_json(runner::sweep_to_json(res));
  ASSERT_EQ(back.requests.size(), 1u);
  EXPECT_EQ(back.requests[0].config.engine, EngineMode::kSharded);
  EXPECT_EQ(back.requests[0].config.sim_threads, 8u);

  // A v4 file pinned verbatim: topology params, every engine name, the
  // request keys and the measured values parse exactly, and the writer
  // reproduces the points member for member.
  const std::string v4 = R"({
    "schema": "mempool.sweep.v4",
    "threads": 4,
    "wall_seconds": 1.25,
    "points": [
      {"request": {"topology": {"name": "TopH2", "params": {"supergroups": 4}},
                   "memory": {"name": "tcdm", "params": {}},
                   "scrambling": false, "num_tiles": 256,
                   "cores_per_tile": 4, "banks_per_tile": 16,
                   "bank_bytes": 1024, "seq_region_bytes": 4096,
                   "num_groups": 16, "lambda": 0.1, "p_local": 0.0,
                   "seed": 3, "engine": "sharded", "sim_threads": 4,
                   "warmup_cycles": 100, "measure_cycles": 400,
                   "drain_cycles": 200, "stall_horizon": 0},
       "result": {"request_key": "ecbcef30539973d5",
                  "offered": 0.1, "generated": 0.0999, "accepted": 0.0998,
                  "avg_latency": 6.5, "p95_latency": 12.0,
                  "max_latency": 40.0, "completed": 10240}},
      {"request": {"topology": {"name": "TopH", "params": {}},
                   "memory": {"name": "tcdm", "params": {}},
                   "scrambling": true, "num_tiles": 16,
                   "cores_per_tile": 4, "banks_per_tile": 16,
                   "bank_bytes": 1024, "seq_region_bytes": 4096,
                   "num_groups": 4, "lambda": 0.25, "p_local": 0.5,
                   "seed": 7, "engine": "dense", "sim_threads": 1,
                   "warmup_cycles": 50, "measure_cycles": 200,
                   "drain_cycles": 100, "stall_horizon": 0},
       "result": {"request_key": "5730f8ef5c78cde3",
                  "offered": 0.25, "generated": 0.251, "accepted": 0.249,
                  "avg_latency": 4.125, "p95_latency": 9.0,
                  "max_latency": 31.0, "completed": 3210}}
    ]
  })";
  const Json doc = Json::parse(v4);
  const SweepResult pinned = sweep_from_json(doc);
  ASSERT_EQ(pinned.results.size(), 2u);
  const TrafficExperimentConfig& p0 = pinned.requests[0].config;
  const TrafficExperimentConfig& p1 = pinned.requests[1].config;
  EXPECT_EQ(p0.cluster.topology,
            (TopologySpec{"TopH2", {{"supergroups", Json(uint64_t{4})}}}));
  EXPECT_EQ(p0.engine, EngineMode::kSharded);
  EXPECT_EQ(p0.sim_threads, 4u);
  EXPECT_EQ(p1.cluster.topology, TopologySpec{"TopH"});
  EXPECT_TRUE(p1.cluster.scrambling);
  EXPECT_EQ(p1.engine, EngineMode::kDense);
  EXPECT_EQ(p1.seed, 7u);
  EXPECT_EQ(pinned.results[0].request_key, "ecbcef30539973d5");
  EXPECT_EQ(pinned.results[1].request_key, "5730f8ef5c78cde3");
  EXPECT_DOUBLE_EQ(pinned.results[1].point.avg_latency, 4.125);
  EXPECT_EQ(pinned.results[1].point.completed, 3210u);
  EXPECT_EQ(sweep_to_json(pinned).at("points").dump(0),
            doc.at("points").dump(0));
}

TEST(SweepJson, OverRangeIntegersAreRejectedNamingTheMember) {
  // 2^32 + 16 would narrow to 16: a mini TopH point with "num_tiles" at that
  // value read back as a valid 16-tile point.
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::mini("TopH", false);
  runner::SweepResult res;
  res.requests = {serve::SimRequest::from_config(cfg)};
  res.results = {serve::SimResult{res.requests[0].key(), TrafficPoint{}}};
  const Json doc = runner::sweep_to_json(res);
  const Json over(uint64_t{4294967312});
  auto expect_rejected = [](const Json& bad, const char* member) {
    try {
      runner::sweep_from_json(bad);
      ADD_FAILURE() << member << ": expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(member), std::string::npos)
          << e.what();
    }
  };
  for (const char* member :
       {"num_tiles", "cores_per_tile", "banks_per_tile", "bank_bytes",
        "seq_region_bytes", "num_groups", "sim_threads"}) {
    expect_rejected(with_request_member(doc, member, over), member);
  }
  Json bad = doc;
  bad.set("threads", over);
  expect_rejected(bad, "threads");
}

}  // namespace
