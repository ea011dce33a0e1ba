// Service workload: a real sim_server daemon driven by an open-loop Poisson
// client over one connection, plus in-process timings of the serve layer's
// public calls.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/cluster_config.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "trace.hpp"

namespace mempool_bench {

using mempool::ClusterConfig;
using mempool::Json;
using mempool::Rng;
using mempool::TrafficExperimentConfig;
using mempool::serve::ResultCache;
using mempool::serve::ServiceResponse;
using mempool::serve::SimClient;
using mempool::serve::SimRequest;
using mempool::serve::SimResult;

namespace {

constexpr int kDaemonStarts = 10;
constexpr unsigned kDaemonThreads = 2;
constexpr uint64_t kPrimed = 32;       ///< Keys answered before the window.
constexpr uint64_t kGoldenCold = 32;   ///< Cold keys re-run and pinned.
constexpr double kRequestsPerS = 400;  ///< Open-loop offered rate.
/// Share of new points. No record of real sim_server traffic exists, so the
/// mix is an assumption: 40 new points/s of ~29 ms keep the 2 workers about
/// 58% busy, so cold requests also wait in the admission queue.
constexpr double kColdShare = 0.10;
constexpr double kHitSloMs = 5;
constexpr double kColdSloMs = 250;
constexpr double kLateLimitMs = 5;  ///< Beyond this p99 the run is invalid.
constexpr int kMicroCalls = 2000;
constexpr int kReadTimeoutMs = 30'000;
constexpr uint64_t kWarmup = 200, kMeasure = 1000, kDrain = 300;

/// The index-th point of the key space: a 256-core TopHS point whose λ
/// cycles through 0.02..0.20 with the index, so every seed offers the same
/// mix of point sizes. Primed keys use indices [0, kPrimed), cold keys
/// 1'000'000 + j; the seed moves the whole key space.
SimRequest make_point(uint64_t seed, uint64_t index) {
  TrafficExperimentConfig c;
  c.cluster = ClusterConfig::paper("TopH", /*scrambling=*/true);
  c.lambda = 0.02 * static_cast<double>(1 + index % 10);
  c.warmup_cycles = kWarmup;
  c.measure_cycles = kMeasure;
  c.drain_cycles = kDrain;
  c.seed = seed * 10'000'000 + index;
  return SimRequest::from_config(c);
}

SimRequest cold_point(uint64_t seed, uint64_t j) {
  return make_point(seed, 1'000'000 + j);
}

/// A spawned sim_server. Killed and reaped if still running at destruction,
/// so no error path leaves a daemon behind.
class Daemon {
 public:
  Daemon(const std::string& server_bin, const std::string& socket,
         const std::string& cache_dir)
      : socket_(socket) {
    std::vector<std::string> args = {
        server_bin,  "--socket", socket, "--threads",
        std::to_string(kDaemonThreads), "--cache-dir", cache_dir,
        "--quiet"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    MEMPOOL_CHECK_MSG(pid_ >= 0, "fork() failed");
    if (pid_ == 0) {
      ::execv(argv[0], argv.data());
      std::perror("execv sim_server");
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// A client connected once the daemon answers ping; polls every 1 ms.
  std::unique_ptr<SimClient> connect() {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      try {
        auto client = std::make_unique<SimClient>(socket_, 0, kReadTimeoutMs);
        if (client->ping()) return client;
      } catch (const mempool::CheckError&) {
        // Not listening yet.
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        MEMPOOL_CHECK_MSG(false, "sim_server exited during start-up");
      }
      MEMPOOL_CHECK_MSG(Clock::now() < deadline,
                        "sim_server did not answer within 30 s");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Clean stop through the shutdown op, then reap.
  void shutdown(SimClient& client) {
    client.shutdown_server();
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  int pid() const { return pid_; }

 private:
  std::string socket_;
  int pid_ = -1;
};

struct Arrival {
  double at_s;     ///< Due time from the start of the window.
  bool cold;
  uint64_t point;  ///< Primed index (hit) or cold index.
};

/// Median per-call time in µs of @p call, each call in its own span.
template <typename F>
double micro_us(const char* span, F&& call) {
  std::vector<double> t;
  t.reserve(kMicroCalls);
  for (int i = 0; i < kMicroCalls; ++i) {
    Span s(span);
    call(i);
    t.push_back(s.stop() * 1e6);
  }
  return median(t);
}

}  // namespace

PassOutput run_service(const PassContext& ctx) {
  namespace fs = std::filesystem;
  PassOutput out;
  const std::string stem = ctx.work_dir + "/mb" + std::to_string(::getpid());
  const std::string socket = stem + ".sock";
  const std::string cache_dir = stem + ".cache";
  fs::remove_all(cache_dir);

  std::vector<std::optional<SimResult>> golden_cold;
  if (ctx.golden != nullptr) {
    for (const Json& r : ctx.golden->at("cold").items()) {
      golden_cold.emplace_back(SimResult::from_json(r));
    }
    MEMPOOL_CHECK_MSG(golden_cold.size() == kGoldenCold,
                      "service golden block must hold " << kGoldenCold
                                                        << " cold results");
  }

  // Set-up time: spawn -> first answered ping, kDaemonStarts times; the last
  // daemon serves the run.
  std::vector<double> startup;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<SimClient> client;
  for (int i = 0; i < kDaemonStarts; ++i) {
    if (daemon != nullptr) {
      Span stop("serve.shutdown");
      daemon->shutdown(*client);
      client.reset();
      daemon.reset();
    }
    Span start("serve.startup");
    daemon = std::make_unique<Daemon>(ctx.server_bin, socket, cache_dir);
    client = daemon->connect();
    startup.push_back(start.stop());
  }

  // Prime the hit keys (pipelined, untimed).
  std::vector<SimRequest> primed;
  std::vector<SimResult> primed_result(kPrimed);
  uint64_t computed = 0;
  {
    Span prime("loadgen.prime");
    std::vector<uint64_t> ids;
    for (uint64_t i = 0; i < kPrimed; ++i) {
      primed.push_back(make_point(ctx.seed, i));
      uint64_t id = 0;
      client->send_line(client->make_run_line(primed.back(), &id));
      ids.push_back(id);
    }
    for (uint64_t n = 0; n < kPrimed; ++n) {
      const Json line = client->recv_line();
      const ServiceResponse resp =
          mempool::serve::response_from_json(line);
      const uint64_t i = line.at("id").as_uint() - ids.front();
      ++out.attempted;
      if (!resp.ok || i >= kPrimed) {
        ++out.failed;
        std::printf("priming request failed: %s\n", resp.error.c_str());
        continue;
      }
      if (!resp.cache_hit && !resp.coalesced) ++computed;
      primed_result[i] = resp.result;
    }
  }

  // The open-loop schedule and its request lines, built before the window.
  std::vector<Arrival> arrivals;
  std::vector<Json> lines;
  uint64_t first_id = 0;
  uint64_t cold_count = 0;
  {
    Span prep("loadgen.prepare");
    Rng rng(mempool::splitmix64(ctx.seed ^ 0x0be11001ull));
    double t = 0;
    for (;;) {
      t += -std::log1p(-rng.next_double()) / kRequestsPerS;
      if (t >= ctx.seconds) break;
      const bool cold = rng.next_bool(kColdShare);
      arrivals.push_back(
          {t, cold, cold ? cold_count++ : rng.next_below(kPrimed)});
    }
    for (const Arrival& a : arrivals) {
      uint64_t id = 0;
      lines.push_back(client->make_run_line(
          a.cold ? cold_point(ctx.seed, a.point) : primed[a.point], &id));
      if (first_id == 0) first_id = id;
    }
  }

  const std::size_t n = arrivals.size();
  std::vector<Clock::time_point> due(n);
  std::vector<double> latency_ms(n, 0), late_ms(n, 0);
  std::vector<char> answered_ok(n, 0), was_hit(n, 0);
  std::vector<std::optional<SimResult>> cold_answer(cold_count);
  uint64_t receiver_failed = 0;
  std::string receiver_error;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrivals[k].at_s));
  }

  // Client thread 2 of 2: receive, time from the due time, check.
  std::thread receiver([&] {
    try {
      for (std::size_t got = 0; got < n; ++got) {
        Json line;
        {
          Span recv("loadgen.recv");
          line = client->recv_line();
        }
        const auto now = Clock::now();
        const uint64_t k = line.at("id").as_uint() - first_id;
        MEMPOOL_CHECK_MSG(k < n, "response for an unknown id");
        Span check("loadgen.check", k + 1);
        if (g_tracer != nullptr) {
          g_tracer->record_async("serve.request", k + 1, due[k], now);
        }
        latency_ms[k] = seconds_between(due[k], now) * 1e3;
        const ServiceResponse resp = mempool::serve::response_from_json(line);
        const Arrival& a = arrivals[k];
        bool good = resp.ok;
        if (good && !a.cold) {
          good = resp.result == primed_result[a.point];
        } else if (good) {
          cold_answer[a.point] = resp.result;
          if (a.point < golden_cold.size()) {
            good = resp.result == *golden_cold[a.point];
          }
        }
        if (!good) {
          ++receiver_failed;
          std::printf("request %llu (%s): %s\n",
                      static_cast<unsigned long long>(k),
                      a.cold ? "cold" : "hit",
                      resp.ok ? "result differs from the expected one"
                              : resp.error.c_str());
        }
        answered_ok[k] = good ? 1 : 0;
        was_hit[k] = resp.cache_hit ? 1 : 0;
      }
    } catch (const std::exception& e) {
      receiver_error = e.what();
    }
  });

  // Client thread 1 of 2 (this one): send each request at its due time.
  std::string sender_error;
  try {
    for (std::size_t k = 0; k < n; ++k) {
      {
        Span wait("loadgen.wait");
        std::this_thread::sleep_until(due[k]);
      }
      Span send("loadgen.send", k + 1);
      late_ms[k] = seconds_between(due[k], Clock::now()) * 1e3;
      client->send_line(lines[k]);
    }
  } catch (const std::exception& e) {
    sender_error = e.what();
  }
  {
    Span drain("loadgen.drain");
    receiver.join();
  }
  out.attempted += n;
  out.failed += receiver_failed;
  if (!sender_error.empty() || !receiver_error.empty()) {
    MEMPOOL_CHECK_MSG(false, "open loop aborted: " << sender_error << " "
                                                   << receiver_error);
  }

  Json metrics;
  {
    Span m("serve.metrics");
    metrics = client->metrics();
  }
  out.e2e["peak_rss_mb"] = peak_rss_mb(daemon->pid());
  {
    Span stop("serve.shutdown");
    daemon->shutdown(*client);
  }
  client.reset();
  daemon.reset();

  // Re-run the first kGoldenCold cold keys in-process: they pin the goldens
  // and time run_point on the service's own points.
  std::vector<double> run_point_s;
  Json cold_block = Json::array();
  bool golden_mismatch = false;
  for (uint64_t j = 0; j < kGoldenCold; ++j) {
    const SimRequest req = cold_point(ctx.seed, j);
    Span run("serve.run_point");
    const SimResult local = mempool::serve::run_point(req);
    const double s = run.stop();
    run_point_s.push_back(s);
    cold_block.push_back(local.to_json());
    Span verify("bench.verify");
    ++out.attempted;
    const bool golden_ok = j >= golden_cold.size() || local == *golden_cold[j];
    const bool server_ok =
        j >= cold_answer.size() || !cold_answer[j] || local == *cold_answer[j];
    golden_mismatch = golden_mismatch || !golden_ok;
    if (!golden_ok || !server_ok) {
      ++out.failed;
      std::printf("cold key %llu: local run_point differs from the %s\n",
                  static_cast<unsigned long long>(j),
                  golden_ok ? "daemon's answer" : "golden");
    }
  }
  out.actual = Json::object();
  out.actual.set("cold", cold_block);
  if (golden_mismatch) {
    report_mismatch("service", "cold keys", *ctx.golden, out.actual);
  }

  // In-process timings of the serve layer's public calls.
  Values& l = out.layer;
  {
    const std::string wire = primed.front().to_json().dump(0);
    l["serve.parse_us"] = micro_us("serve.parse", [&](int) {
      SimRequest::from_json(Json::parse(wire));
    });
    l["serve.key_us"] = micro_us("serve.key", [&](int i) {
      (void)primed[static_cast<std::size_t>(i) % kPrimed].key();
    });
    ResultCache memory(1024);
    for (uint64_t i = 0; i < kPrimed; ++i) {
      memory.insert(primed[i], primed_result[i]);
    }
    l["serve.cache_lookup_us"] = micro_us("serve.cache_lookup", [&](int i) {
      (void)memory.lookup(primed[static_cast<std::size_t>(i) % kPrimed]);
    });
    l["serve.result_json_us"] = micro_us("serve.result_json", [&](int i) {
      (void)primed_result[static_cast<std::size_t>(i) % kPrimed]
          .to_json()
          .dump(0);
    });
    fs::remove_all(cache_dir);
    ResultCache disk(1024, cache_dir);
    l["serve.cache_insert_us"] = micro_us("serve.cache_insert", [&](int i) {
      const auto p = static_cast<std::size_t>(i) % kPrimed;
      disk.insert(primed[p], primed_result[p]);
    });
    fs::remove_all(cache_dir);
  }

  std::vector<double> all, hits, cold;
  uint64_t slo_met = 0;
  for (std::size_t k = 0; k < n; ++k) {
    all.push_back(latency_ms[k]);
    (was_hit[k] ? hits : cold).push_back(latency_ms[k]);
    if (!was_hit[k]) ++computed;
    const double limit = arrivals[k].cold ? kColdSloMs : kHitSloMs;
    if (answered_ok[k] && latency_ms[k] <= limit) ++slo_met;
  }
  out.e2e["sim_cycles_per_s"] =
      cold.empty() ? 0.0
                   : static_cast<double>(kWarmup + kMeasure + kDrain) /
                         (median(cold) * 1e-3);
  out.e2e["latency_ms"] = median(all);
  out.e2e["setup_s"] = median(startup);
  out.op_p50_s = median(all) * 1e-3;
  out.notes["sim_cycles_per_s"] =
      "point cycles / " + sample_note("p50", cold.size(), "cold requests");
  out.notes["latency_ms"] = sample_note("p50", all.size(), "requests");
  out.notes["setup_s"] = sample_note("p50", startup.size(), "daemon starts");
  out.notes["peak_rss_mb"] = "daemon VmHWM";

  const Json& lat = metrics.at("service_ms");
  const double server_hit_p50 = lat.at("cache_hit_p50").as_double();
  const double server_computed_p50 = lat.at("computed_p50").as_double();
  l["serve.startup_s"] = median(startup);
  l["serve.run_point_ms"] = median(run_point_s) * 1e3;
  l["serve.server_hit_p50_ms"] = server_hit_p50;
  l["serve.server_hit_p99_ms"] = lat.at("cache_hit_p99").as_double();
  l["serve.server_computed_p50_ms"] = server_computed_p50;
  l["serve.server_computed_p99_ms"] = lat.at("computed_p99").as_double();
  l["serve.hit_p50_ms"] = median(hits);
  l["serve.hit_p99_ms"] = quantile(hits, 0.99);
  l["serve.cold_p50_ms"] = median(cold);
  l["serve.cold_p95_ms"] = quantile(cold, 0.95);
  l["serve.transport_hit_p50_ms"] = median(hits) - server_hit_p50;
  l["serve.queue_wait_p50_ms"] =
      server_computed_p50 - median(run_point_s) * 1e3;
  l["serve.slo_met_frac"] =
      n == 0 ? 0.0 : static_cast<double>(slo_met) / static_cast<double>(n);
  l["serve.hit_rate"] = n == 0 ? 0.0
                               : static_cast<double>(hits.size()) /
                                     static_cast<double>(n);
  l["serve.computed"] = static_cast<double>(computed);
  l["serve.coalesced"] = metrics.at("coalesced").as_double();
  l["serve.shed"] = metrics.at("shed").as_double();
  l["serve.errors"] = metrics.at("errors").as_double();
  const double late_p99 = quantile(late_ms, 0.99);
  l["loadgen.late_p99_ms"] = late_p99;
  if (late_p99 > kLateLimitMs) {
    out.valid = false;
    char line[160];
    std::snprintf(line, sizeof line,
                  "INVALID: the load generator ran %.2f ms late at p99 "
                  "(limit %.0f ms); latencies measure the host, not the "
                  "service",
                  late_p99, kLateLimitMs);
    out.remarks.emplace_back(line);
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "open loop: %zu requests at %.0f req/s on 1 connection, "
                "%zu hits, %zu cold, %.1f%% within the SLO",
                n, kRequestsPerS, hits.size(), cold.size(),
                100.0 * l["serve.slo_met_frac"]);
  out.remarks.emplace_back(line);
  return out;
}

}  // namespace mempool_bench
