// Simulator performance microbenchmark (not a paper artifact): a direct
// engine comparison — dense vs activity-driven, plus the sharded engine
// across a sim-threads axis (1/2/4/8) on the group-sharded topologies — on
// the low-load half of the fig5 sweep and the zero-load probe sweep. Useful
// when tuning the model or reviewing performance regressions.
//
// With no arguments it runs that speedup pass and prints its table.
// `--speedup_json=PATH` also writes a mempool.speedup.v3 JSON artifact
// (uploaded per-PR by CI so scheduler regressions are visible): absolute
// simulated cycles/sec per point and a `paper_point` block (the 256-core TopH
// λ=0.05 fig5 point: active-engine cycles/sec, cycles/sec/shard, and the
// sharded single-thread rate). `--speedup_baseline=PATH` reads a committed v3
// artifact (runner::speedup_from_json) and exits non-zero when the measured
// dense-to-active aggregate regressed more than 20% below it, or — against a
// baseline recorded on a comparable host — when the paper point's absolute
// cycles/sec dropped more than 20%. Sharded wall-clock numbers are recorded
// for whatever parallelism the host actually has (host_cpus in the
// artifact). `--profile` instead runs the paper point under each engine with
// Engine::set_profile and prints the per-phase wall-clock breakdown (combine
// it with either speedup flag to run both).
//
// Other throughput questions have their own tools: heavy-load and Snitch
// kernel speed are mempool_bench's traffic_heavy and kernels workloads, and
// sweep-runner scaling is fig5_topology_sweep's `wall_seconds` at
// `--threads 1` vs `--threads 4`.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "core/cluster.hpp"
#include "mem/imem.hpp"
#include "noc/fabric.hpp"
#include "noc/monitor.hpp"
#include "runner/results.hpp"
#include "sim/engine.hpp"
#include "traffic/experiment.hpp"
#include "traffic/generator.hpp"
#include "traffic/probe.hpp"

using namespace mempool;

namespace {

// --- dense-vs-active speedup artifact ---------------------------------------

double time_point_seconds(const TrafficExperimentConfig& cfg, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run_traffic_point(cfg);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

double time_sharded_seconds(TrafficExperimentConfig cfg, unsigned sim_threads,
                            int reps) {
  cfg.engine = EngineMode::kSharded;
  cfg.sim_threads = sim_threads;
  return time_point_seconds(cfg, reps);
}

/// Wall-clock of the tab_zero_load probe sweep (core 0 -> every tile, one
/// load at a time on an otherwise idle cluster), cluster construction
/// excluded. This is the regime the paper's 5-cycle claim lives in and the
/// activity-driven scheduler's best case: a handful of components act per
/// cycle while the other ~1600 sleep.
double time_zero_load_seconds(const char* topo, bool dense) {
  const ClusterConfig cfg = ClusterConfig::paper(topo, true);
  InstrMem imem(4096);
  Engine engine;
  engine.set_dense(dense);
  Cluster cluster(cfg, &imem);
  std::vector<std::unique_ptr<ProbeClient>> probes;
  std::vector<Client*> clients;
  for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
    probes.push_back(std::make_unique<ProbeClient>(
        static_cast<uint16_t>(c), static_cast<uint16_t>(c / cfg.cores_per_tile),
        &cluster.layout()));
    clients.push_back(probes.back().get());
  }
  cluster.attach_clients(clients);
  cluster.build(engine);

  const auto t0 = std::chrono::steady_clock::now();
  uint32_t expected = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (uint32_t t = 0; t < cfg.num_tiles; ++t) {
      probes[0]->arm(t * cfg.seq_region_bytes);
      ++expected;
      while (probes[0]->responses() < expected) engine.step();
    }
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  MEMPOOL_CHECK(probes[0]->responses() == expected);
  return dt.count();
}

int run_speedup(const std::string& json_path, const std::string& baseline_path) {
  // The low-λ half of the fig5 sweep (exact fig5 point shape: 1000 warmup,
  // 4000 measure, 2000 drain) plus the tab_zero_load probe sweep, on the
  // full 256-core paper cluster — the regimes where the fabric is mostly
  // idle and the activity-driven scheduler must deliver (target: >= 3x).
  // The group-sharded topologies additionally time the sharded engine over
  // the sim-threads axis and print the measured active->sharded ratio.
  const std::vector<const char*> topos = {"Top1", "TopH"};
  const std::vector<double> lambdas = {0.01, 0.02, 0.05};
  const std::vector<unsigned> sim_threads = {1, 2, 4, 8};
  Json points = Json::array();
  double min_speedup = 1e300;
  double dense_total = 0, active_total = 0;
  double sharded_active_total = 0, sharded_best_total = 0;
  // The v3 paper-point block: the 256-core TopH λ=0.05 fig5 point, the
  // configuration the ISSUE's absolute cycles/sec acceptance is measured at.
  double paper_cps = 0, paper_cps_per_shard = 0, paper_sharded_1t_cps = 0;
  std::printf("%-10s %-6s %8s %12s %12s %8s %12s  %s\n", "workload", "topo",
              "lambda", "dense_s", "active_s", "speedup", "active_cps",
              "sharded_s (1/2/4/8 threads)");
  auto report = [&](const char* workload, const char* topo, double lambda,
                    uint64_t sim_cycles, double dense_s, double active_s,
                    const std::vector<double>& sharded_s) {
    const double speedup = dense_s / active_s;
    const double active_cps =
        sim_cycles > 0 ? static_cast<double>(sim_cycles) / active_s : 0.0;
    min_speedup = std::min(min_speedup, speedup);
    dense_total += dense_s;
    active_total += active_s;
    std::printf("%-10s %-6s %8.3f %12.6f %12.6f %7.2fx %12.0f ", workload,
                topo, lambda, dense_s, active_s, speedup,
                active_cps);
    Json rec = Json::object();
    rec.set("workload", workload);
    rec.set("topology", topo);
    rec.set("lambda", lambda);
    rec.set("dense_seconds", dense_s);
    rec.set("active_seconds", active_s);
    rec.set("speedup", speedup);
    if (sim_cycles > 0) {
      // Absolute rates (v3): run_traffic_point executes exactly this many
      // cycles, so these are exact, not nominal.
      rec.set("sim_cycles", sim_cycles);
      rec.set("dense_cycles_per_second",
              static_cast<double>(sim_cycles) / dense_s);
      rec.set("active_cycles_per_second", active_cps);
    }
    if (!sharded_s.empty()) {
      double best = 1e300;
      Json sharded = Json::object();
      Json sharded_cps = Json::object();
      for (std::size_t i = 0; i < sharded_s.size(); ++i) {
        sharded.set(std::to_string(sim_threads[i]), sharded_s[i]);
        if (sim_cycles > 0) {
          sharded_cps.set(std::to_string(sim_threads[i]),
                          static_cast<double>(sim_cycles) / sharded_s[i]);
        }
        best = std::min(best, sharded_s[i]);
        std::printf(" %.6f", sharded_s[i]);
      }
      rec.set("sharded_seconds", std::move(sharded));
      if (sim_cycles > 0) {
        rec.set("sharded_cycles_per_second", std::move(sharded_cps));
      }
      rec.set("sharded_speedup", active_s / best);
      sharded_active_total += active_s;
      sharded_best_total += best;
      std::printf("  (best %.2fx over active)", active_s / best);
    }
    std::printf("\n");
    points.push_back(std::move(rec));
  };
  uint32_t paper_shards = 1;
  for (const char* topo : topos) {
    report("zero_load", topo, 0.0, 0, time_zero_load_seconds(topo, true),
           time_zero_load_seconds(topo, false), {});
    for (double lambda : lambdas) {
      TrafficExperimentConfig cfg;
      cfg.cluster = ClusterConfig::paper(topo, false);
      cfg.lambda = lambda;  // fig5 point shape: default cycle counts
      const uint64_t sim_cycles =
          cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles;
      cfg.engine = EngineMode::kDense;
      const double dense_s = time_point_seconds(cfg, 2);
      cfg.engine = EngineMode::kActive;
      const double active_s = time_point_seconds(cfg, 2);
      std::vector<double> sharded_s;
      const FabricTopology& plugin =
          FabricRegistry::get(cfg.cluster.topology.name);
      if (plugin.num_shards(cfg.cluster) > 1) {
        // Only the group-sharded fabrics get the sim-threads axis; a
        // single-shard topology's sharded engine is the active engine plus
        // a no-op lane.
        for (unsigned t : sim_threads) {
          sharded_s.push_back(time_sharded_seconds(cfg, t, 2));
        }
      }
      if (std::strcmp(topo, "TopH") == 0 && lambda == 0.05) {
        paper_shards = plugin.num_shards(cfg.cluster);
        paper_cps = static_cast<double>(sim_cycles) / active_s;
        paper_cps_per_shard = paper_cps / paper_shards;
        if (!sharded_s.empty()) {
          paper_sharded_1t_cps =
              static_cast<double>(sim_cycles) / sharded_s.front();
        }
      }
      report("fig5", topo, lambda, sim_cycles, dense_s, active_s, sharded_s);
    }
  }
  const double aggregate = dense_total / active_total;
  const double aggregate_sharded =
      sharded_best_total > 0 ? sharded_active_total / sharded_best_total : 0.0;
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf(
      "aggregate dense->active speedup over the low-load half: %.2fx "
      "(target >= 3x); slowest point: %.2fx\n",
      aggregate, min_speedup);
  if (aggregate_sharded > 0) {
    std::printf(
        "aggregate active->sharded speedup (best thread count, %u host "
        "cpus): %.2fx\n",
        host_cpus, aggregate_sharded);
  }
  std::printf(
      "paper point (TopH lambda=0.05, %u shards): %.0f cycles/s active, "
      "%.0f cycles/s/shard, %.0f cycles/s sharded-1t\n",
      paper_shards, paper_cps, paper_cps_per_shard, paper_sharded_1t_cps);
  if (!json_path.empty()) {
    Json root = Json::object();
    root.set("schema", "mempool.speedup.v3");
    root.set("aggregate_speedup", aggregate);
    root.set("min_speedup", min_speedup);
    root.set("aggregate_sharded_speedup", aggregate_sharded);
    root.set("host_cpus", host_cpus);
    // v3: the absolute-rate block the perf gate keys on. Kept flat and
    // separate from `points` so readers need no per-point search.
    Json paper = Json::object();
    paper.set("topology", "TopH");
    paper.set("lambda", 0.05);
    paper.set("num_shards", paper_shards);
    paper.set("cycles_per_second", paper_cps);
    paper.set("cycles_per_second_per_shard", paper_cps_per_shard);
    paper.set("sharded_1t_cycles_per_second", paper_sharded_1t_cps);
    root.set("paper_point", std::move(paper));
    root.set("points", std::move(points));
    runner::write_json_file(json_path, root);
    std::fprintf(stderr, "speedup results written to %s\n", json_path.c_str());
  }
  if (!baseline_path.empty()) {
    // CI perf smoke: compare against the committed baseline artifact
    // (runner::speedup_from_json). Two gates:
    //  1. The dense-to-active aggregate — a ratio of two runs on the same
    //     machine, comparable across hosts.
    //  2. The paper point's absolute cycles/sec.
    //     Wall-clock-based, so the committed baseline must come from the CI
    //     host class; the 20% margin absorbs normal runner noise.
    // Sharded wall-clock depends on host core count and is reported, not
    // gated.
    const runner::SpeedupSummary base =
        runner::speedup_from_json(runner::read_json_file(baseline_path));
    const double floor = 0.8 * base.aggregate_speedup;
    std::printf(
        "baseline %s (%s): aggregate_speedup %.2fx, regression floor "
        "%.2fx\n",
        baseline_path.c_str(), base.schema.c_str(), base.aggregate_speedup,
        floor);
    if (aggregate < floor) {
      std::fprintf(stderr,
                   "PERF REGRESSION: aggregate_speedup %.2fx is more than "
                   "20%% below the committed baseline %.2fx\n",
                   aggregate, base.aggregate_speedup);
      return 1;
    }
    if (base.paper_cycles_per_second > 0) {
      const double cps_floor = 0.8 * base.paper_cycles_per_second;
      std::printf(
          "baseline paper point: %.0f cycles/s, regression floor %.0f\n",
          base.paper_cycles_per_second, cps_floor);
      if (paper_cps < cps_floor) {
        std::fprintf(stderr,
                     "PERF REGRESSION: paper-point %.0f cycles/s is more "
                     "than 20%% below the committed baseline %.0f\n",
                     paper_cps, base.paper_cycles_per_second);
        return 1;
      }
    }
  }
  return aggregate >= 1.0 ? 0 : 1;
}

// --- per-phase profile -------------------------------------------------------

/// One profiled run of the paper point (TopH λ=0.05, fig5 shape) with
/// Engine::set_profile: where the wall-clock goes, phase by phase. Unlike
/// run_speedup this hand-rolls the cluster so the profile toggle can be set
/// on the engine before stepping.
void profile_mode(const char* label, EngineMode mode, unsigned sim_threads) {
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::paper("TopH", false);
  cfg.lambda = 0.05;
  cfg.engine = mode;
  cfg.sim_threads = sim_threads;
  const uint64_t cycles =
      cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles;

  InstrMem imem(4096);
  Engine engine;
  engine.set_profile(true);
  if (mode == EngineMode::kDense) engine.set_dense(true);
  Cluster cluster(cfg.cluster, &imem);
  LatencyMonitor monitor(cfg.warmup_cycles);
  monitor.set_measure_end(cfg.warmup_cycles + cfg.measure_cycles);
  TrafficConfig tcfg;
  tcfg.lambda = cfg.lambda;
  tcfg.seed = cfg.seed;
  tcfg.stop_generation_at = cfg.warmup_cycles + cfg.measure_cycles;
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  std::vector<Client*> clients;
  for (uint32_t c = 0; c < cfg.cluster.num_cores(); ++c) {
    gens.push_back(std::make_unique<TrafficGenerator>(
        "gen" + std::to_string(c), static_cast<uint16_t>(c),
        static_cast<uint16_t>(c / cfg.cluster.cores_per_tile), cfg.cluster,
        &cluster.layout(), &engine, tcfg, &monitor));
    clients.push_back(gens.back().get());
  }
  cluster.attach_clients(clients);
  cluster.build(engine);

  if (mode == EngineMode::kSharded) {
    engine.set_sharded(cluster.num_shards(), sim_threads);
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run(cycles);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;

  const Engine::PhaseProfile p = engine.phase_profile();
  const double total_ns = static_cast<double>(p.evaluate_ns + p.commit_ns +
                                              p.drain_ns + p.barrier_ns);
  auto row = [&](const char* phase, uint64_t ns_raw) {
    const double ns = static_cast<double>(ns_raw);
    std::printf("  %-10s %12.3f ms  %5.1f%%\n", phase, ns / 1e6,
                total_ns > 0 ? 100.0 * ns / total_ns : 0.0);
  };
  std::printf("%s: %llu cycles in %.3f s (%.0f cycles/s)\n", label,
              static_cast<unsigned long long>(cycles), dt.count(),
              static_cast<double>(cycles) / dt.count());
  row("evaluate", p.evaluate_ns);
  row("commit", p.commit_ns);
  row("drain", p.drain_ns);
  row("barrier", p.barrier_ns);
}

void run_profile() {
  std::printf(
      "per-phase profile: paper point (256-core TopH, lambda=0.05, fig5 "
      "shape)\n");
  profile_mode("active", EngineMode::kActive, 1);
  profile_mode("dense", EngineMode::kDense, 1);
  profile_mode("sharded-1t", EngineMode::kSharded, 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string speedup_json;
  std::string speedup_baseline;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--speedup_json=", 15) == 0) {
      speedup_json = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--speedup_baseline=", 19) == 0) {
      speedup_baseline = argv[i] + 19;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else {
      std::fprintf(stderr,
                   "micro_sim_speed: unknown argument '%s'\n"
                   "usage: micro_sim_speed [--speedup_json=PATH] "
                   "[--speedup_baseline=PATH] [--profile]\n",
                   argv[i]);
      return 2;
    }
  }
  if (profile) {
    run_profile();
    if (speedup_json.empty() && speedup_baseline.empty()) return 0;
  }
  return run_speedup(speedup_json, speedup_baseline);
}
