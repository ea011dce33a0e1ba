// SimServer + SimClient end to end over a real AF_UNIX socket: request /
// response round trips, cache flags on the wire, protocol error handling
// (malformed lines and invalid requests answer ok=false without killing the
// connection or the daemon), id echo, metrics/ping ops, and clean shutdown.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <string>

#include "common/check.hpp"
#include "serve/client.hpp"
#include "serve/netio.hpp"
#include "serve/server.hpp"

using namespace mempool;
using namespace mempool::serve;

namespace {

std::string test_socket(const char* tag) {
  return "/tmp/mempool_t" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

SimRequest mini_request(double lambda, uint64_t seed) {
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::mini("TopH", true);
  cfg.lambda = lambda;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 100;
  cfg.seed = seed;
  return SimRequest::from_config(cfg);
}

ServerConfig server_config(const std::string& socket_path) {
  ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.service.threads = 2;
  return cfg;
}

bool path_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

TEST(SimServer, ServesComputesAndCacheHitsOverTheSocket) {
  const std::string path = test_socket("basic");
  SimServer server(server_config(path));
  server.start();
  {
    SimClient client(path, /*timeout_ms=*/2000);
    EXPECT_TRUE(client.ping());

    const SimRequest req = mini_request(0.1, 1);
    const ServiceResponse cold = client.run(req);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_EQ(cold.key, req.key());
    // The wire round trip must not perturb the result: bit-identical to a
    // local run_point of the same request.
    EXPECT_EQ(cold.result, run_point(req));

    const ServiceResponse warm = client.run(req);
    ASSERT_TRUE(warm.ok);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.result, cold.result);
    EXPECT_GE(warm.service_ms, 0.0);

    const Json metrics = client.metrics();
    EXPECT_EQ(metrics.at("requests").as_uint(), 2u);
    EXPECT_EQ(metrics.at("cache").at("hits").as_uint(), 1u);
    EXPECT_TRUE(metrics.at("service_ms").at("overall").contains("p99"));

    client.shutdown_server();
  }
  server.wait();
  EXPECT_FALSE(path_exists(path)) << "socket not unlinked on shutdown";
}

TEST(SimServer, MalformedLinesGetErrorResponsesAndTheConnectionSurvives) {
  const std::string path = test_socket("protocol");
  SimServer server(server_config(path));
  server.start();
  {
    const int fd = connect_unix(path, 2000);
    LineReader reader(fd);
    std::string line;

    // Not JSON at all.
    ASSERT_TRUE(write_all(fd, "this is not json\n"));
    ASSERT_TRUE(reader.read_line(&line));
    Json resp = Json::parse(line);
    EXPECT_FALSE(resp.at("ok").as_bool());
    EXPECT_NE(resp.at("error").as_string().find("bad JSON"),
              std::string::npos);

    // JSON, but not an object.
    ASSERT_TRUE(write_all(fd, "[1, 2]\n"));
    ASSERT_TRUE(reader.read_line(&line));
    EXPECT_FALSE(Json::parse(line).at("ok").as_bool());

    // Non-string op values (as_string would throw): still a per-line error,
    // never an unwound reader thread.
    for (const char* bad_op : {"{\"op\": 5, \"id\": 1}\n",
                               "{\"op\": null, \"id\": 2}\n",
                               "{\"op\": {\"x\": 1}, \"id\": 3}\n"}) {
      ASSERT_TRUE(write_all(fd, bad_op));
      ASSERT_TRUE(reader.read_line(&line));
      resp = Json::parse(line);
      EXPECT_FALSE(resp.at("ok").as_bool());
      EXPECT_NE(resp.at("error").as_string().find("'op' must be a string"),
                std::string::npos);
    }

    // Unknown op, id echoed.
    ASSERT_TRUE(write_all(fd, "{\"op\": \"dance\", \"id\": 42}\n"));
    ASSERT_TRUE(reader.read_line(&line));
    resp = Json::parse(line);
    EXPECT_FALSE(resp.at("ok").as_bool());
    EXPECT_EQ(resp.at("id").as_uint(), 42u);
    EXPECT_NE(resp.at("error").as_string().find("dance"), std::string::npos);

    // Invalid request body (unknown topology): structured error, daemon
    // stays up.
    ASSERT_TRUE(write_all(
        fd, "{\"op\": \"run\", \"id\": 43, "
            "\"request\": {\"topology\": \"TopZ\"}}\n"));
    ASSERT_TRUE(reader.read_line(&line));
    resp = Json::parse(line);
    EXPECT_FALSE(resp.at("ok").as_bool());
    EXPECT_NE(resp.at("error").as_string().find("TopZ"), std::string::npos);

    // The same connection still serves a good request afterwards.
    ASSERT_TRUE(write_all(
        fd, "{\"op\": \"ping\", \"id\": \"still-alive\"}\n"));
    ASSERT_TRUE(reader.read_line(&line));
    resp = Json::parse(line);
    EXPECT_TRUE(resp.at("ok").as_bool());
    EXPECT_EQ(resp.at("id").as_string(), "still-alive");  // non-numeric ids ok
    ::close(fd);
  }
  server.stop();
  server.wait();
}

TEST(SimServer, InvalidSimulationParametersAnswerStructuredErrors) {
  const std::string path = test_socket("simerr");
  SimServer server(server_config(path));
  server.start();
  {
    SimClient client(path, 2000);
    // Geometry that fails ClusterConfig::validate (non-power-of-two tiles):
    // passes from_json, fails inside run_point — still a structured error.
    Json bad = Json::object();
    bad.set("topology", "TopH");
    bad.set("num_tiles", 24);
    Json msg = Json::object();
    msg.set("op", "run");
    msg.set("id", client.next_id());
    msg.set("request", bad);
    const Json resp = client.call(msg);
    EXPECT_FALSE(resp.at("ok").as_bool());
    EXPECT_FALSE(resp.at("error").as_string().empty());

    // Daemon is still healthy.
    const ServiceResponse good = client.run(mini_request(0.1, 2));
    EXPECT_TRUE(good.ok) << good.error;
    client.shutdown_server();
  }
  server.wait();
}

TEST(SimServer, PipelinedRequestsAllComplete) {
  const std::string path = test_socket("pipeline");
  SimServer server(server_config(path));
  server.start();
  {
    SimClient client(path, 2000);
    // Two distinct points interleaved with repeats, all in flight at once.
    const SimRequest a = mini_request(0.05, 3), b = mini_request(0.10, 3);
    constexpr int kLines = 10;
    for (int i = 0; i < kLines; ++i) {
      client.send_line(client.make_run_line(i % 2 == 0 ? a : b));
    }
    int ok = 0;
    for (int i = 0; i < kLines; ++i) {
      const ServiceResponse resp = response_from_json(client.recv_line());
      ASSERT_TRUE(resp.ok) << resp.error;
      ++ok;
    }
    EXPECT_EQ(ok, kLines);
    // Ten requests for two distinct points: exactly two simulations ran.
    EXPECT_EQ(client.metrics().at("cache").at("insertions").as_uint(), 2u);
    client.shutdown_server();
  }
  server.wait();
}

TEST(ResponseFromJson, RetryAfterBeyondIntIsRejectedNamingTheMember) {
  auto overloaded = [](uint64_t retry_after_ms) {
    Json j = Json::object();
    j.set("ok", false);
    j.set("kind", "overloaded");
    j.set("error", "service overloaded");
    j.set("retry_after_ms", retry_after_ms);
    return j;
  };
  EXPECT_EQ(response_from_json(overloaded(2147483647)).retry_after_ms,
            2147483647);
  // 2^31 used to read back as -2^31 and 2^32 as 0: an immediate retry.
  for (const uint64_t wide : {uint64_t{2147483648}, uint64_t{4294967296}}) {
    try {
      response_from_json(overloaded(wide));
      ADD_FAILURE() << wide << ": expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("retry_after_ms"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SimServer, StopFromTheOwningThreadAlsoShutsDownCleanly) {
  const std::string path = test_socket("stop");
  SimServer server(server_config(path));
  server.start();
  ASSERT_TRUE(path_exists(path));
  server.stop();
  server.wait();
  EXPECT_FALSE(path_exists(path));
}
