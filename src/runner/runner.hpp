#pragma once
// Parallel experiment runner: shards the independent simulation points of a
// SweepSpec (or any explicit request list) across host cores with the
// ThreadPool. Every point runs through serve::run_point, the entry the
// simulation server uses, so a sweep point and a served point are one code
// path and carry the same identity (the request and its content-hash key).
//
// Determinism contract: run_traffic_point owns all of its mutable state
// (Engine, Cluster, generators, per-point RNG streams keyed by cfg.seed), so
// the result vector — keyed by point index, not completion order — is
// bit-identical for every thread count and schedule.

#include <cstdint>
#include <string>
#include <vector>

#include "runner/sweep.hpp"
#include "serve/request.hpp"

namespace mempool::runner {

struct RunnerOptions {
  /// Worker threads; 0 = MEMPOOL_THREADS env var / hardware concurrency.
  unsigned threads = 0;
  /// Print one '.' to stderr per completed point (the classic bench ticker).
  bool progress = false;
};

struct SweepResult {
  std::vector<serve::SimRequest> requests;  ///< The points run, in order.
  std::vector<serve::SimResult> results;    ///< results[i] answers requests[i].
  unsigned threads = 1;      ///< Worker count actually used.
  double wall_seconds = 0;   ///< Wall-clock time of the parallel section.
};

/// Run every point of @p spec in parallel.
SweepResult run_sweep(const SweepSpec& spec, const RunnerOptions& opts = {});

/// Run an explicit request list in parallel (result order = input order).
SweepResult run_points(std::vector<serve::SimRequest> requests,
                       const RunnerOptions& opts = {});

}  // namespace mempool::runner
