#pragma once
// Shared command-line handling for the bench/example harnesses:
//
//   --threads N         sweep worker threads — how many *points* run
//                       concurrently (default: MEMPOOL_THREADS env / all
//                       cores)
//   --sim-threads N     engine threads — how many shards of *one point's*
//                       cluster step concurrently (sharded engine only;
//                       default 1)
//   --engine MODE       active (default) | dense | sharded; all three are
//                       bit-identical, only wall-clock differs
//   --json PATH         results file path (default: <bench>.results.json)
//   --no-json           disable the results file
//   --quiet             suppress the stderr progress ticker
//   --topology NAME     select a registered fabric topology (benches that
//                       take one); unknown names fail with the list of
//                       registered plugins
//   --list-topologies   print the FabricRegistry and exit
//   --memory NAME       select a registered memory system (benches that take
//                       one); unknown names fail with the list of plugins
//   --list-memories     print the MemoryRegistry and exit
//   --list-engines      print the engine modes with one-line descriptions
//                       and exit; unknown --engine values fail with the same
//                       list
//   --drc               run the design-rule checker (verify/drc.hpp) over
//                       every registered topology x memory x engine
//                       combination at paper scale, write <bench>.drc.json
//                       (schema mempool.drc.v1), and exit 0 iff clean
//   --drc-out PATH      where --drc writes its report (default:
//                       <bench>.drc.json); order-independent with --drc
//   --stall-horizon N   arm the engine progress watchdog: if any non-empty
//                       buffer drains nothing for N consecutive cycles the
//                       run aborts with a mempool.liveness.v1 stall report
//                       instead of hanging (0 = disabled, the default)
//   --checkpoint-every N  (single-point benches) snapshot the engine every N
//                       simulated cycles into a mempool.ckpt.v1 file,
//                       written atomically so a kill mid-run leaves the last
//                       complete image behind (default: off)
//   --checkpoint-out PATH where --checkpoint-every writes its image
//                       (default: <bench>.ckpt)
//   --restore PATH      resume a single point from a mempool.ckpt.v1 image;
//                       the completed run is bit-identical to one that was
//                       never interrupted
//   --help              usage
//
// The two thread axes are deliberately distinct flags: --threads always
// means sweep-level parallelism (as it has since the runner landed) and
// --sim-threads always means engine-level parallelism. The historically
// ambiguous spellings people reach for (--engine-threads, --sim_threads,
// --threads=sim) are rejected with an error naming both flags instead of
// being silently misread.
//
// Recognized flags are removed from argv so benches with positional
// arguments (traffic_explorer) can parse the remainder untouched.

#include <cstdint>
#include <functional>
#include <string>

#include "common/json.hpp"
#include "core/cluster_config.hpp"
#include "runner/runner.hpp"
#include "sim/shard.hpp"
#include "traffic/experiment.hpp"

namespace mempool::runner {

struct BenchOptions {
  std::string bench_name;
  unsigned threads = 0;     ///< Sweep workers; 0 = ThreadPool::default_threads().
  std::string json_path;    ///< Empty = results file disabled.
  bool progress = true;
  /// --engine: which scheduler steps each simulation point.
  EngineMode engine = EngineMode::kActive;
  /// --sim-threads: engine threads per point (sharded engine only).
  unsigned sim_threads = 1;
  /// --topology NAME, validated against the FabricRegistry; empty = bench
  /// default. Benches that simulate a selectable topology honor this.
  std::string topology;
  /// --memory NAME, validated against the MemoryRegistry; empty = bench
  /// default (tcdm unless the bench is memory-specific).
  std::string memory;
  /// --stall-horizon N: progress-watchdog horizon in cycles; 0 = disabled.
  uint64_t stall_horizon = 0;
  /// --checkpoint-every N: snapshot period in cycles (single-point benches
  /// only); 0 = no periodic checkpointing.
  uint64_t checkpoint_every = 0;
  /// --checkpoint-out PATH: where the periodic image lands; empty =
  /// <bench>.ckpt.
  std::string checkpoint_out;
  /// --restore PATH: mempool.ckpt.v1 image to resume from; empty = cold.
  std::string restore_path;

  /// True when --checkpoint-every or --restore asked for the crash-safe
  /// single-point path (run_checkpointed_point) instead of the sweep runner.
  bool wants_checkpointing() const {
    return checkpoint_every != 0 || !restore_path.empty();
  }

  RunnerOptions runner() const { return {threads, progress}; }

  /// Apply the engine selection (and watchdog horizon) to an experiment
  /// config.
  void apply_engine(TrafficExperimentConfig* cfg) const {
    cfg->engine = engine;
    cfg->sim_threads = sim_threads;
    cfg->stall_horizon = stall_horizon;
  }
};

/// Resolve a topology name against the FabricRegistry; on an unknown name
/// prints "unknown topology 'X'; available: ..." to stderr and exits(2).
TopologySpec parse_topology_or_exit(const std::string& name);

/// Resolve a memory-system name against the MemoryRegistry; on an unknown
/// name prints "unknown memory system 'X'; available: ..." and exits(2).
MemorySpec parse_memory_or_exit(const std::string& name);

/// Parse and strip the common flags. @p argc/@p argv are compacted in place;
/// exits(0) on --help, exits(2) on a malformed flag. Benches whose topology
/// (memory system) set is selectable pass @p accepts_topology
/// (@p accepts_memory) = true; everywhere else the flag is rejected loudly
/// instead of being silently ignored. Likewise @p accepts_checkpoint gates
/// --checkpoint-every/--checkpoint-out/--restore: only benches that route a
/// single point through run_checkpointed_point accept them.
BenchOptions parse_bench_options(int* argc, char** argv,
                                 const std::string& bench_name,
                                 bool accepts_topology = false,
                                 bool accepts_memory = false,
                                 bool accepts_checkpoint = false);

/// Run one point through serve::run_point honoring --checkpoint-every /
/// --checkpoint-out / --restore: periodic mempool.ckpt.v1 images are written
/// with write_file_atomic, so a crash at any moment leaves either the
/// previous complete image or the new one, never a torn file; --restore
/// resumes from such an image and the finished point is bit-identical to an
/// uninterrupted run. Images are keyed by the point's request key, so an
/// image of a different point (another λ, seed, topology...) cannot resume
/// this one. Exits(2) with a message when the restore image is unreadable,
/// corrupt or keyed for another point.
TrafficPoint run_checkpointed_point(const BenchOptions& opts,
                                    const TrafficExperimentConfig& cfg);

/// Write the mempool.bench.v1 envelope to opts.json_path (no-op when the
/// results file is disabled); prints the path to stderr.
void write_bench_results(const BenchOptions& opts, unsigned threads,
                         double wall_seconds, Json results);

/// Run a bench's main body, presenting an Engine::set_stall_horizon abort
/// (LivenessError) as a structured CLI failure instead of std::terminate:
/// the watchdog message and the full mempool.liveness.v1 stall report go to
/// stderr and the process exits 3. Benches that honor --stall-horizon wrap
/// their main in this.
int guarded_bench_main(const std::string& bench_name,
                       const std::function<int()>& body);

}  // namespace mempool::runner
