// Service resilience: request deadlines (pre-run and mid-run), bounded
// admission with overload shedding, checkpoint persistence + resume of
// long-running points across a daemon "restart", corrupt-checkpoint
// degradation, and the RetryingClient surviving injected connection faults
// against a real in-process SimServer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "serve/client.hpp"
#include "serve/netio.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/snapshot.hpp"
#include "traffic/experiment.hpp"

using namespace mempool;
using namespace mempool::serve;

namespace {

SimRequest mini_request(double lambda, uint64_t seed,
                        uint64_t measure_cycles = 200) {
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::mini("TopH", true);
  cfg.lambda = lambda;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = measure_cycles;
  cfg.drain_cycles = 100;
  cfg.seed = seed;
  return SimRequest::from_config(cfg);
}

/// A point long enough (hundreds of ms) that deadlines and mid-run kills
/// land while it is still computing.
SimRequest slow_request(uint64_t seed) {
  return mini_request(0.05, seed, /*measure_cycles=*/2'000'000);
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = std::filesystem::temp_directory_path() /
                          ("mempool_resil_" + tag + "_" +
                           std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

std::string test_socket(const char* tag) {
  return "/tmp/mempool_r" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

/// Collects callback responses and lets the test wait for a count.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ServiceResponse> responses;

  SimService::Callback callback() {
    return [this](const ServiceResponse& resp) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(resp);
      cv.notify_all();
    };
  }
  void wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responses.size() >= n; });
  }
};

/// Clears the process-wide injected faults even when a test fails mid-way.
struct FaultGuard {
  ~FaultGuard() { set_netio_faults(NetioFaults{}); }
};

}  // namespace

TEST(ServiceDeadline, ExpiredDeadlineAbortsTheRunStructured) {
  ServiceConfig cfg;
  cfg.threads = 1;
  SimService service(cfg);

  SimRequest req = slow_request(41);
  req.deadline_ms = 1;  // expires long before the point finishes
  const ServiceResponse resp = service.run(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.kind, "deadline_exceeded");
  EXPECT_FALSE(resp.error.empty());

  const Json m = service.metrics_json();
  EXPECT_GE(m.at("deadline_exceeded").as_uint(), 1u);

  // The service is healthy afterwards; the same point without a deadline
  // completes (proving the abort canceled the run, not the daemon).
  const ServiceResponse good = service.run(mini_request(0.1, 41));
  EXPECT_TRUE(good.ok) << good.error;
}

TEST(ServiceDeadline, NoDeadlineMeansNoExpiry) {
  ServiceConfig cfg;
  cfg.threads = 1;
  SimService service(cfg);
  const ServiceResponse resp = service.run(mini_request(0.1, 42));
  EXPECT_TRUE(resp.ok) << resp.error;
  EXPECT_TRUE(resp.kind.empty());
}

TEST(ServiceOverload, BoundedQueueShedsWithRetryHint) {
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.max_queue = 1;
  cfg.retry_after_ms = 123;
  SimService service(cfg);

  // First (slow) point is admitted and occupies the only slot...
  Collector slow;
  service.submit(slow_request(50), slow.callback());

  // ...so a second *distinct* point must be shed immediately, on the
  // submitting thread, with the structured hint.
  const ServiceResponse shed = service.run(mini_request(0.1, 51));
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.kind, "overloaded");
  EXPECT_EQ(shed.retry_after_ms, 123);

  // An *identical* request coalesces instead of shedding: it consumes no
  // worker, so admission control does not apply.
  Collector dup;
  service.submit(slow_request(50), dup.callback());

  slow.wait_for(1);
  dup.wait_for(1);
  EXPECT_TRUE(slow.responses.front().ok) << slow.responses.front().error;
  EXPECT_TRUE(dup.responses.front().ok);
  EXPECT_TRUE(dup.responses.front().coalesced ||
              dup.responses.front().cache_hit);

  // Capacity freed: the previously shed point is admitted now.
  const ServiceResponse retry = service.run(mini_request(0.1, 51));
  EXPECT_TRUE(retry.ok) << retry.error;

  const Json m = service.metrics_json();
  EXPECT_EQ(m.at("shed").as_uint(), 1u);
  EXPECT_EQ(m.at("max_queue").as_uint(), 1u);
}

TEST(ServiceCheckpoint, LongPointsPersistImagesAndCompleteCorrectly) {
  const std::string dir = fresh_dir("persist");
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_dir = dir;
  cfg.checkpoint_every = 100'000;
  SimService service(cfg);

  const SimRequest req = slow_request(60);
  const ServiceResponse resp = service.run(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  // Checkpointing perturbs nothing: bit-identical to the plain run.
  EXPECT_EQ(resp.result, run_point(req));
  // Images were persisted along the way, and the final one was cleaned up
  // once the result reached the cache.
  EXPECT_GE(service.metrics_json().at("checkpoints").as_uint(), 2u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + req.key() + ".ckpt"));
  std::filesystem::remove_all(dir);
}

TEST(ServiceCheckpoint, RestartedServiceResumesFromTheDiskImage) {
  const std::string dir = fresh_dir("resume");
  std::filesystem::create_directories(dir);
  const SimRequest req = slow_request(61);

  // Simulate a daemon that died mid-point: plant the checkpoint image a
  // previous instance would have left behind (cycle 400k of ~2M).
  std::string image;
  CheckpointOptions capture;
  capture.checkpoint_every = 400'000;
  capture.key = req.key();
  capture.on_checkpoint = [&](uint64_t cycle, const std::string& img) {
    if (image.empty() && cycle >= 400'000) image = img;
  };
  const TrafficPoint expected = run_traffic_point(req.config, capture);
  ASSERT_FALSE(image.empty());
  {
    std::ofstream out(dir + "/" + req.key() + ".ckpt", std::ios::binary);
    out << image;
  }

  // The "restarted" daemon picks the image up and finishes the point from
  // cycle 400k — with a result bit-identical to the never-crashed run.
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_dir = dir;
  cfg.checkpoint_every = 400'000;
  SimService service(cfg);
  const ServiceResponse resp = service.run(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.result.point, expected);
  EXPECT_EQ(service.metrics_json().at("resumed").as_uint(), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + req.key() + ".ckpt"));
  std::filesystem::remove_all(dir);
}

TEST(ServiceCheckpoint, CorruptImageIsDiscardedAndTheRunStartsCold) {
  const std::string dir = fresh_dir("corrupt");
  std::filesystem::create_directories(dir);
  const SimRequest req = mini_request(0.1, 62);
  {
    // A torn write: half a valid-looking file.
    std::ofstream out(dir + "/" + req.key() + ".ckpt", std::ios::binary);
    out << std::string(Snapshot::kMagic) << "garbage-torn-checkpoint";
  }
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_dir = dir;
  cfg.checkpoint_every = 1'000;
  SimService service(cfg);
  const ServiceResponse resp = service.run(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.result, run_point(req));  // cold, correct
  EXPECT_EQ(service.metrics_json().at("resumed").as_uint(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(RetryingClient, SurvivesInjectedConnectionDrops) {
  FaultGuard guard;
  const std::string path = test_socket("faults");
  ServerConfig scfg;
  scfg.socket_path = path;
  scfg.service.threads = 2;
  SimServer server(scfg);
  server.start();

  // Every 5th write on either side of every connection is dropped (the
  // peer sees EOF mid-stream — exactly a daemon dying between responses).
  NetioFaults faults;
  faults.drop_every = 5;
  set_netio_faults(faults);

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_ms = 1;  // keep the test fast
  policy.max_backoff_ms = 8;
  policy.connect_timeout_ms = 2000;
  policy.read_timeout_ms = 5000;
  RetryingClient client(path, policy);

  for (uint64_t i = 0; i < 8; ++i) {
    const SimRequest req =
        mini_request(0.05 + 0.01 * static_cast<double>(i % 4), 70 + i / 4);
    const ServiceResponse resp = client.run(req);
    ASSERT_TRUE(resp.ok) << resp.error;
    // Retried-through results are still bit-identical: idempotence via the
    // content-addressed cache makes blind re-issue safe.
    EXPECT_EQ(resp.result, run_point(req));
  }
  EXPECT_GT(client.reconnects(), 0u)
      << "fault schedule injected no drops — the test exercised nothing";

  set_netio_faults(NetioFaults{});
  SimClient plain(path, 2000);
  plain.shutdown_server();
  server.wait();
}

TEST(RetryingClient, ShortWritesAreAbsorbedToo) {
  FaultGuard guard;
  const std::string path = test_socket("shortw");
  ServerConfig scfg;
  scfg.socket_path = path;
  scfg.service.threads = 2;
  SimServer server(scfg);
  server.start();

  NetioFaults faults;
  faults.short_write_every = 7;  // a prefix escapes, then the line dies
  set_netio_faults(faults);

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 8;
  policy.read_timeout_ms = 5000;
  RetryingClient client(path, policy);

  const SimRequest a = mini_request(0.1, 80), b = mini_request(0.2, 80);
  for (int round = 0; round < 4; ++round) {
    const ServiceResponse ra = client.run(a);
    ASSERT_TRUE(ra.ok) << ra.error;
    const ServiceResponse rb = client.run(b);
    ASSERT_TRUE(rb.ok) << rb.error;
    EXPECT_EQ(ra.result.request_key, a.key());
    EXPECT_EQ(rb.result.request_key, b.key());
  }

  set_netio_faults(NetioFaults{});
  SimClient plain(path, 2000);
  plain.shutdown_server();
  server.wait();
}

TEST(RetryingClient, NonRetryableErrorsReturnImmediately) {
  const std::string path = test_socket("nonretry");
  ServerConfig scfg;
  scfg.socket_path = path;
  scfg.service.threads = 1;
  SimServer server(scfg);
  server.start();
  {
    RetryingClient client(path, RetryPolicy{});
    SimRequest bad = mini_request(0.1, 90);
    bad.config.lambda = -1.0;
    const ServiceResponse resp = client.run(bad);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, "invalid");
    EXPECT_EQ(client.retries(), 0u) << "an invalid request must not retry";

    SimClient plain(path, 2000);
    plain.shutdown_server();
  }
  server.wait();
}

TEST(DeadlineOverTheWire, DeadlineRidesTheProtocolButNotTheCacheKey) {
  const std::string path = test_socket("wiredl");
  ServerConfig scfg;
  scfg.socket_path = path;
  scfg.service.threads = 1;
  SimServer server(scfg);
  server.start();
  {
    SimClient client(path, 2000);
    SimRequest slow = slow_request(95);
    slow.deadline_ms = 1;
    const ServiceResponse resp = client.run(slow);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, "deadline_exceeded");

    // deadline_ms is delivery metadata: the same point without a deadline
    // is the same cache entry, so these two requests must coalesce/hit
    // rather than fork the key space.
    SimRequest fast = mini_request(0.1, 96);
    ASSERT_TRUE(client.run(fast).ok);
    SimRequest fast_dl = mini_request(0.1, 96);
    fast_dl.deadline_ms = 60'000;
    EXPECT_EQ(fast_dl.key(), fast.key());
    const ServiceResponse hit = client.run(fast_dl);
    ASSERT_TRUE(hit.ok) << hit.error;
    EXPECT_TRUE(hit.cache_hit);

    client.shutdown_server();
  }
  server.wait();
}
