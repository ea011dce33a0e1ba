// sim_loadgen: load generator and acceptance harness for sim_server.
//
// Drives the daemon with a mixed cached/uncached request stream:
//
//   phase 1 (prime)     each of --unique distinct mini-cluster points is sent
//                       once and awaited — these are the cold computations.
//                       With --verify, every server result is compared
//                       bit-for-bit against a local run_point() of the same
//                       request.
//   phase 2 (replay)    the remaining --requests are random repeats of the
//                       primed points, pipelined --window at a time — pure
//                       cache hits, each checked bit-identical to its phase-1
//                       result.
//   phase 3 (coalesce)  optionally (--coalesce K) K identical requests for
//                       one never-seen point are fired back-to-back; exactly
//                       one may compute, the rest must coalesce or hit.
//
// Exits nonzero when any response errs, any result mismatches, or the final
// cache-hit rate is below --min-hit-rate. Prints a summary (or --json) with
// client-observed counts and the server's p50/p99 service latency.
//
// Chaos mode (--chaos --server-bin PATH): the loadgen owns the daemon's
// lifecycle — it spawns the real sim_server binary, streams requests through
// a RetryingClient, SIGKILLs the daemon at scheduled points (between
// requests and mid-computation of a deliberately slow point), restarts it,
// and requires every request to still complete with results bit-identical
// to a local run_point(). With --cache-dir the restarted daemon re-serves
// primed points from the disk cache and resumes the slow point from its
// persisted checkpoint (--checkpoint-every).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "core/cluster_config.hpp"
#include "serve/client.hpp"

namespace {

using mempool::ClusterConfig;
using mempool::Json;
using mempool::Rng;
using mempool::TrafficExperimentConfig;
using mempool::serve::RetryingClient;
using mempool::serve::RetryPolicy;
using mempool::serve::ServiceResponse;
using mempool::serve::SimClient;
using mempool::serve::SimRequest;
using mempool::serve::SimResult;

struct Options {
  std::string socket_path = "/tmp/mempool_sim.sock";
  uint64_t requests = 1000;
  uint64_t unique = 16;
  uint64_t window = 32;      ///< Pipelining depth in the replay phase.
  uint64_t coalesce = 0;     ///< Identical in-flight requests to demo dedupe.
  uint64_t seed = 1;
  std::string topology = "TopH";
  std::string engine = "active";
  double min_hit_rate = -1;  ///< <0 = don't assert.
  int wait_ms = 0;           ///< Connect retry budget.
  bool verify = false;
  bool shutdown = false;
  bool json = false;
  // Chaos mode.
  bool chaos = false;
  std::string server_bin;        ///< sim_server binary to spawn/kill.
  std::string cache_dir;         ///< Forwarded to the spawned daemon.
  uint64_t kills = 3;            ///< SIGKILLs between requests.
  uint64_t checkpoint_every = 10'000;  ///< Forwarded to the spawned daemon.
  uint64_t slow_cycles = 120'000;      ///< Measure window of the slow point.
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "Load generator / acceptance harness for sim_server.\n"
      "\n"
      "  --socket PATH       server socket (default /tmp/mempool_sim.sock)\n"
      "  --requests N        total run requests (default 1000)\n"
      "  --unique N          distinct points in the mix (default 16)\n"
      "  --window N          pipelined requests in flight (default 32)\n"
      "  --coalesce K        also fire K identical in-flight requests and\n"
      "                      assert at most one computes (default 0 = skip)\n"
      "  --topology NAME     fabric plugin for the points (default TopH)\n"
      "  --engine NAME       engine for the points (default active)\n"
      "  --seed N            base seed for the point grid (default 1)\n"
      "  --verify            recompute every unique point locally and require\n"
      "                      bit-identical server results\n"
      "  --min-hit-rate X    fail unless hits/requests >= X (e.g. 0.5)\n"
      "  --wait MS           retry connecting for MS milliseconds\n"
      "  --shutdown          send the shutdown op when done\n"
      "  --json              machine-readable report on stdout\n"
      "\n"
      "Chaos mode (crash-recovery acceptance):\n"
      "  --chaos             spawn, SIGKILL, and restart the daemon while\n"
      "                      streaming; every request must still complete\n"
      "                      bit-identical to a local run (implies --verify)\n"
      "  --server-bin PATH   sim_server binary to spawn (required w/ --chaos)\n"
      "  --cache-dir DIR     forwarded to the daemon (disk cache + resume)\n"
      "  --kills N           scheduled SIGKILLs between requests (default 3)\n"
      "  --checkpoint-every N  forwarded to the daemon (default 10000)\n"
      "  --slow-cycles N     measure window of the mid-flight-kill point\n"
      "                      (default 120000)\n"
      "  --help              this text\n",
      argv0);
}

/// The point grid: --unique small, fast mini-cluster points that differ in
/// (λ, seed) so each is a distinct cache entry but cheap to compute.
SimRequest make_request(const Options& opt, uint64_t index) {
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::mini(opt.topology, /*scrambling=*/true);
  cfg.lambda = 0.02 + 0.02 * static_cast<double>(index % 8);
  cfg.p_local_seq = 0.0;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 100;
  cfg.seed = opt.seed + index / 8;
  MEMPOOL_CHECK_MSG(mempool::engine_mode_from_name(opt.engine, &cfg.engine),
                    "unknown engine '" << opt.engine << "'; available: "
                                       << mempool::engine_mode_available());
  return SimRequest::from_config(cfg);
}

struct Tally {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t hits = 0;
  uint64_t coalesced = 0;
  uint64_t computed = 0;
  uint64_t mismatches = 0;

  void add(const ServiceResponse& resp, const SimResult* expected) {
    if (!resp.ok) {
      ++errors;
      std::fprintf(stderr, "loadgen: server error: %s\n", resp.error.c_str());
      return;
    }
    ++ok;
    if (resp.cache_hit) {
      ++hits;
    } else if (resp.coalesced) {
      ++coalesced;
    } else {
      ++computed;
    }
    if (expected != nullptr && !(resp.result == *expected)) {
      ++mismatches;
      std::fprintf(stderr, "loadgen: result mismatch for key %s\n",
                   resp.key.c_str());
    }
  }
};

// --- chaos mode --------------------------------------------------------------

/// Fork+exec the real sim_server binary; the returned pid is what the kill
/// schedule targets (kill(pid) is pid-scoped, the loadgen is never hit).
pid_t spawn_server(const Options& opt) {
  const pid_t pid = ::fork();
  MEMPOOL_CHECK_MSG(pid >= 0, "fork() failed");
  if (pid == 0) {
    std::vector<std::string> args = {opt.server_bin, "--socket",
                                     opt.socket_path, "--quiet"};
    if (!opt.cache_dir.empty()) {
      args.insert(args.end(), {"--cache-dir", opt.cache_dir});
    }
    if (opt.checkpoint_every > 0) {
      args.insert(args.end(), {"--checkpoint-every",
                               std::to_string(opt.checkpoint_every)});
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::perror("execv sim_server");
    ::_exit(127);
  }
  return pid;
}

void kill_server(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

/// A point long enough that a SIGKILL can land mid-computation, sized so the
/// daemon checkpoints it several times before dying.
SimRequest make_slow_request(const Options& opt) {
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::mini(opt.topology, /*scrambling=*/true);
  cfg.lambda = 0.05;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = opt.slow_cycles;
  cfg.drain_cycles = 100;
  cfg.seed = opt.seed + 777;
  MEMPOOL_CHECK_MSG(mempool::engine_mode_from_name(opt.engine, &cfg.engine),
                    "unknown engine '" << opt.engine << "'");
  return SimRequest::from_config(cfg);
}

int run_chaos(const Options& opt) {
  MEMPOOL_CHECK_MSG(!opt.server_bin.empty(), "--chaos requires --server-bin");
  pid_t server = spawn_server(opt);

  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_backoff_ms = 50;
  policy.max_backoff_ms = 1000;
  policy.connect_timeout_ms = 10'000;
  policy.read_timeout_ms = 120'000;
  policy.jitter_seed = opt.seed;
  RetryingClient client(opt.socket_path, policy);

  uint64_t sent = 0, mismatches = 0, errors = 0, kills = 0;

  // Ground truth: every point computed locally, once.
  std::vector<SimRequest> points;
  std::vector<SimResult> expected;
  for (uint64_t i = 0; i < opt.unique; ++i) {
    points.push_back(make_request(opt, i));
    expected.push_back(mempool::serve::run_point(points.back()));
  }
  const SimRequest slow = make_slow_request(opt);
  const SimResult slow_expected = mempool::serve::run_point(slow);

  const auto check = [&](const ServiceResponse& resp, const SimResult& want,
                         const char* phase) {
    ++sent;
    if (!resp.ok) {
      ++errors;
      std::fprintf(stderr, "chaos: %s error: %s\n", phase, resp.error.c_str());
      return;
    }
    if (!(resp.result == want)) {
      ++mismatches;
      std::fprintf(stderr, "chaos: %s result mismatch for key %s\n", phase,
                   resp.key.c_str());
    }
  };

  // Phase 1: prime every point, SIGKILLing + restarting the daemon at evenly
  // spaced points of the stream. The RetryingClient must absorb every death:
  // reconnect to the respawned daemon and re-issue.
  const uint64_t kill_period =
      opt.kills > 0 ? std::max<uint64_t>(1, opt.unique / (opt.kills + 1)) : 0;
  for (uint64_t i = 0; i < opt.unique; ++i) {
    check(client.run(points[i]), expected[i], "prime");
    if (kill_period > 0 && (i + 1) % kill_period == 0 && kills < opt.kills) {
      kill_server(server);
      ++kills;
      server = spawn_server(opt);
    }
  }

  // Phase 2: kill the daemon mid-computation of the slow point. A helper
  // thread SIGKILLs it shortly after the request goes out and respawns it;
  // the client retries, and with --cache-dir the respawned daemon resumes
  // the point from its persisted checkpoint instead of starting over.
  {
    std::atomic<pid_t> respawned{-1};
    std::thread killer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      kill_server(server);
      respawned.store(spawn_server(opt));
    });
    check(client.run(slow), slow_expected, "slow");
    killer.join();
    server = respawned.load();
    ++kills;
  }

  // Phase 3: replay everything after the restarts. With a disk cache these
  // are hits; without one the respawned daemon recomputes — either way the
  // results must match the local ground truth bit for bit.
  for (uint64_t i = 0; i < opt.unique; ++i) {
    check(client.run(points[i]), expected[i], "replay");
  }
  check(client.run(slow), slow_expected, "replay-slow");

  Json metrics;
  try {
    SimClient plain(opt.socket_path, opt.wait_ms > 0 ? opt.wait_ms : 2000);
    metrics = plain.metrics();
    plain.shutdown_server();
  } catch (const mempool::CheckError&) {
    // Metrics are best-effort; the daemon is killed below regardless.
  }
  kill_server(server);

  Json report = Json::object();
  report.set("requests", sent);
  report.set("errors", errors);
  report.set("mismatches", mismatches);
  report.set("kills", kills);
  report.set("reconnects", client.reconnects());
  report.set("retries", client.retries());
  if (!metrics.is_null()) report.set("server_metrics", metrics);
  if (opt.json) {
    std::printf("%s\n", report.dump(2).c_str());
  } else {
    std::printf(
        "chaos: %llu requests across %llu daemon kills → %llu errors, "
        "%llu mismatches (%llu reconnects, %llu retries)\n",
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(kills),
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(mismatches),
        static_cast<unsigned long long>(client.reconnects()),
        static_cast<unsigned long long>(client.retries()));
  }
  if (errors > 0 || mismatches > 0) return 1;
  if (kills > 0 && client.reconnects() == 0) {
    std::fprintf(stderr,
                 "chaos: daemon was killed %llu times but the client never "
                 "reconnected — the schedule exercised nothing\n",
                 static_cast<unsigned long long>(kills));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](auto* out) {
      const std::string v = value();
      if (!mempool::parse_number(v, out)) {
        std::fprintf(stderr,
                     "error: %s wants a non-negative number, got '%s'\n",
                     arg.c_str(), v.c_str());
        std::exit(2);
      }
    };
    if (arg == "--socket") {
      opt.socket_path = value();
    } else if (arg == "--requests") {
      number(&opt.requests);
    } else if (arg == "--unique") {
      number(&opt.unique);
    } else if (arg == "--window") {
      number(&opt.window);
    } else if (arg == "--coalesce") {
      number(&opt.coalesce);
    } else if (arg == "--topology") {
      opt.topology = value();
    } else if (arg == "--engine") {
      opt.engine = value();
    } else if (arg == "--seed") {
      number(&opt.seed);
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--min-hit-rate") {
      number(&opt.min_hit_rate);
    } else if (arg == "--wait") {
      number(&opt.wait_ms);
    } else if (arg == "--shutdown") {
      opt.shutdown = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--chaos") {
      opt.chaos = true;
    } else if (arg == "--server-bin") {
      opt.server_bin = value();
    } else if (arg == "--cache-dir") {
      opt.cache_dir = value();
    } else if (arg == "--kills") {
      number(&opt.kills);
    } else if (arg == "--checkpoint-every") {
      number(&opt.checkpoint_every);
    } else if (arg == "--slow-cycles") {
      number(&opt.slow_cycles);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s' (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (opt.chaos) {
    try {
      return run_chaos(opt);
    } catch (const mempool::CheckError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (opt.unique == 0 || opt.requests < opt.unique || opt.window == 0) {
    std::fprintf(stderr,
                 "error: need --unique >= 1, --requests >= --unique, "
                 "--window >= 1\n");
    return 2;
  }

  try {
    SimClient client(opt.socket_path, opt.wait_ms);
    MEMPOOL_CHECK_MSG(client.ping(), "server did not answer ping");

    Tally tally;

    // Phase 1: prime every unique point (cold computations).
    std::vector<SimRequest> points;
    std::vector<SimResult> primed;
    points.reserve(opt.unique);
    primed.reserve(opt.unique);
    for (uint64_t i = 0; i < opt.unique; ++i) {
      points.push_back(make_request(opt, i));
      const ServiceResponse resp = client.run(points.back());
      ++tally.sent;
      const SimResult* expected = nullptr;
      SimResult local;
      if (opt.verify && resp.ok) {
        local = mempool::serve::run_point(points.back());
        expected = &local;
      }
      tally.add(resp, expected);
      MEMPOOL_CHECK_MSG(resp.ok, "prime phase failed: " << resp.error);
      primed.push_back(resp.result);
    }

    // Phase 2: replay random repeats, --window pipelined at a time; every
    // response must be bit-identical to its primed result.
    Rng rng(opt.seed ^ 0x10adc0de'0000'0000ull);
    uint64_t remaining = opt.requests - opt.unique;
    std::map<uint64_t, uint64_t> id_to_point;
    uint64_t in_flight = 0;
    auto drain_one = [&] {
      const Json line = client.recv_line();
      const ServiceResponse resp =
          mempool::serve::response_from_json(line);
      const uint64_t id = line.at("id").as_uint();
      const auto it = id_to_point.find(id);
      MEMPOOL_CHECK_MSG(it != id_to_point.end(),
                        "response for unknown id " << id);
      tally.add(resp, &primed[it->second]);
      id_to_point.erase(it);
      --in_flight;
    };
    while (remaining > 0 || in_flight > 0) {
      while (remaining > 0 && in_flight < opt.window) {
        const uint64_t pick = rng.next_below(opt.unique);
        uint64_t id = 0;
        client.send_line(client.make_run_line(points[pick], &id));
        id_to_point.emplace(id, pick);
        ++tally.sent;
        ++in_flight;
        --remaining;
      }
      drain_one();
    }

    // Phase 3: coalescing demo — K identical requests for a never-seen
    // point, fired back-to-back. At most one computes; the rest piggyback on
    // it (or hit the cache if they arrive after it completes).
    uint64_t coalesce_computed = 0;
    if (opt.coalesce > 0) {
      const SimRequest fresh = make_request(opt, 100'000 + opt.unique);
      std::vector<uint64_t> ids;
      for (uint64_t i = 0; i < opt.coalesce; ++i) {
        uint64_t id = 0;
        client.send_line(client.make_run_line(fresh, &id));
        ids.push_back(id);
        ++tally.sent;
      }
      for (uint64_t i = 0; i < opt.coalesce; ++i) {
        const ServiceResponse resp =
            mempool::serve::response_from_json(client.recv_line());
        tally.add(resp, nullptr);
        MEMPOOL_CHECK_MSG(resp.ok, "coalesce phase failed: " << resp.error);
        if (!resp.cache_hit && !resp.coalesced) ++coalesce_computed;
      }
      MEMPOOL_CHECK_MSG(coalesce_computed <= 1,
                        "coalescing failed: " << coalesce_computed << " of "
                                              << opt.coalesce
                                              << " identical in-flight "
                                                 "requests were computed");
    }

    const Json metrics = client.metrics();
    if (opt.shutdown) client.shutdown_server();

    const double hit_rate =
        tally.sent > 0
            ? static_cast<double>(tally.hits) / static_cast<double>(tally.sent)
            : 0.0;
    const Json overall = metrics.at("service_ms").at("overall");

    Json report = Json::object();
    report.set("requests", tally.sent);
    report.set("ok", tally.ok);
    report.set("errors", tally.errors);
    report.set("cache_hits", tally.hits);
    report.set("coalesced", tally.coalesced);
    report.set("computed", tally.computed);
    report.set("mismatches", tally.mismatches);
    report.set("hit_rate", hit_rate);
    report.set("verified", opt.verify);
    report.set("server_p50_ms", overall.at("p50").as_double());
    report.set("server_p99_ms", overall.at("p99").as_double());
    report.set("server_metrics", metrics);
    if (opt.json) {
      std::printf("%s\n", report.dump(2).c_str());
    } else {
      std::printf(
          "loadgen: %llu requests → %llu ok, %llu errors | %llu hits, "
          "%llu coalesced, %llu computed (hit rate %.1f%%)\n"
          "loadgen: server service latency p50 %.3f ms, p99 %.3f ms\n",
          static_cast<unsigned long long>(tally.sent),
          static_cast<unsigned long long>(tally.ok),
          static_cast<unsigned long long>(tally.errors),
          static_cast<unsigned long long>(tally.hits),
          static_cast<unsigned long long>(tally.coalesced),
          static_cast<unsigned long long>(tally.computed), hit_rate * 100.0,
          overall.at("p50").as_double(), overall.at("p99").as_double());
      if (opt.verify) {
        std::printf(
            "loadgen: all %llu unique points bit-identical to local "
            "run_point\n",
            static_cast<unsigned long long>(opt.unique));
      }
    }

    if (tally.errors > 0 || tally.mismatches > 0) return 1;
    if (opt.min_hit_rate >= 0 && hit_rate < opt.min_hit_rate) {
      std::fprintf(stderr, "loadgen: hit rate %.3f below required %.3f\n",
                   hit_rate, opt.min_hit_rate);
      return 1;
    }
  } catch (const mempool::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
