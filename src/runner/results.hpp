#pragma once
// Machine-readable results files for the bench harnesses.
//
// Every bench writes `<bench>.results.json` (overridable with --json) in the
// envelope schema `mempool.bench.v1`:
//
//   {
//     "schema": "mempool.bench.v1",
//     "bench": "fig5_topology_sweep",
//     "threads": 8,
//     "wall_seconds": 12.3,
//     "results": { ... bench-specific ... }
//   }
//
// Traffic sweeps embed the sweep schema `mempool.sweep.v4` under "results"
// (or as a named sub-object). A point is the same {request, result} pair a
// service cache file holds: the request's canonical form
// (serve::SimRequest::to_json, topology and memory system as
// self-describing {name, params} specs) and the serve::SimResult that
// answers it, keyed by the request's content hash:
//
//   {
//     "schema": "mempool.sweep.v4",
//     "threads": 8,
//     "wall_seconds": 12.3,
//     "points": [
//       {"request": {"topology": {"name": "TopH", "params": {}},
//                    "memory": {"name": "tcdm", "params": {}},
//                    "scrambling": true, "num_tiles": 64, ...,
//                    "lambda": 0.33, "p_local": 0.25, "seed": 1, ...},
//        "result": {"request_key": "aba721cccfd19421",
//                   "offered": 0.33, "accepted": 0.3292470703125, ...}},
//       ...
//     ]
//   }
//
// Doubles are serialized with shortest-round-trip precision, so a sweep
// written and read back compares bit-identical — the determinism tests rely
// on this.

#include <string>

#include "common/json.hpp"
#include "runner/runner.hpp"

namespace mempool::runner {

/// Serialize a sweep result (schema mempool.sweep.v4).
Json sweep_to_json(const SweepResult& result);

/// Inverse of sweep_to_json: each point's request goes through
/// SimRequest::from_json and validate(), its result through
/// SimResult::from_json. Throws CheckError on any other schema (v3
/// included), on a request the service would reject (unknown topology /
/// memory-system / engine names list the registered ones), and on a result
/// whose request_key is not its request's key().
SweepResult sweep_from_json(const Json& j);

/// Parsed scheduler-speedup artifact (micro_sim_speed --speedup_json,
/// schema mempool.speedup.v3): engine-speedup ratios plus the paper-point
/// absolute rate block (256-core TopH λ=0.05: simulated cycles per
/// wall-clock second) the CI perf gate compares against.
struct SpeedupSummary {
  std::string schema;
  /// Wall-clock of the dense oracle over the activity-driven engine, summed
  /// across the workload set.
  double aggregate_speedup = 0;
  double min_speedup = 0;
  /// Single-thread active over the best sharded configuration.
  double aggregate_sharded_speedup = 0;
  /// Absolute active-engine rate at the paper point, plus the same rate
  /// normalized per fabric shard and the sharded engine's single-thread rate.
  /// Host-dependent (wall-clock), unlike the ratios above.
  double paper_cycles_per_second = 0;
  double paper_cycles_per_second_per_shard = 0;
  double paper_sharded_1t_cycles_per_second = 0;
  std::size_t num_points = 0;
};

/// Read a mempool.speedup.v3 document; throws CheckError on anything else.
SpeedupSummary speedup_from_json(const Json& j);

/// Wrap bench-specific results in the mempool.bench.v1 envelope.
Json bench_envelope(const std::string& bench, unsigned threads,
                    double wall_seconds, Json results);

/// Write @p j pretty-printed to @p path (throws CheckError on I/O failure).
void write_json_file(const std::string& path, const Json& j);

/// Read and parse a JSON file (throws CheckError on I/O or parse failure).
Json read_json_file(const std::string& path);

}  // namespace mempool::runner
