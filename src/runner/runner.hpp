#pragma once
// Parallel experiment runner: shards the independent simulation points of a
// SweepSpec (or any explicit config list) across host cores with the
// ThreadPool.
//
// Determinism contract: run_traffic_point owns all of its mutable state
// (Engine, Cluster, generators, per-point RNG streams keyed by cfg.seed), so
// the result vector — keyed by point index, not completion order — is
// bit-identical for every thread count and schedule.

#include <cstdint>
#include <string>
#include <vector>

#include "runner/sweep.hpp"
#include "traffic/experiment.hpp"

namespace mempool::runner {

struct RunnerOptions {
  /// Worker threads; 0 = MEMPOOL_THREADS env var / hardware concurrency.
  unsigned threads = 0;
  /// Print one '.' to stderr per completed point (the classic bench ticker).
  bool progress = false;
};

struct SweepResult {
  std::vector<TrafficExperimentConfig> configs;  ///< Expanded points, in order.
  std::vector<TrafficPoint> points;              ///< points[i] ≡ configs[i].
  unsigned threads = 1;      ///< Worker count actually used.
  double wall_seconds = 0;   ///< Wall-clock time of the parallel section.
};

/// Run every point of @p spec in parallel.
SweepResult run_sweep(const SweepSpec& spec, const RunnerOptions& opts = {});

/// Run an explicit config list in parallel (result order = input order).
SweepResult run_points(const std::vector<TrafficExperimentConfig>& configs,
                       const RunnerOptions& opts = {});

}  // namespace mempool::runner
