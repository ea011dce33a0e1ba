#pragma once
// Load-sweep experiment harness reproducing the methodology of Sections V-A
// and V-B: warm up, measure accepted throughput over a fixed window, keep
// collecting latency samples through a drain phase.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/cluster_config.hpp"
#include "sim/shard.hpp"

namespace mempool {

struct TrafficExperimentConfig {
  ClusterConfig cluster;
  double lambda = 0.1;        ///< Offered load (requests/core/cycle).
  double p_local_seq = 0.0;   ///< Fig. 6 locality parameter.
  uint64_t warmup_cycles = 1000;
  uint64_t measure_cycles = 4000;
  uint64_t drain_cycles = 2000;
  uint64_t seed = 1;
  /// Which scheduler steps the point (the benches' --engine flag): active
  /// (default), dense (the evaluate-everything oracle), or sharded (the
  /// activity-driven scheduler parallelized over the fabric's groups).
  /// Results are bit-identical across all three; only wall-clock differs.
  EngineMode engine = EngineMode::kActive;
  /// Sharded engine only: threads stepping one point's cluster (leader +
  /// sim_threads-1 pool helpers), capped by the topology's shard count.
  /// Orthogonal to the sweep runner's --threads, which parallelizes across
  /// points.
  unsigned sim_threads = 1;
  /// Progress watchdog (Engine::set_stall_horizon): a buffer that stays
  /// non-empty for this many cycles without a single pop aborts the point
  /// with a LivenessError carrying a mempool.liveness.v1 report instead of
  /// hanging. 0 (default) disarms. Deterministic: identical across engine
  /// modes and thread counts.
  uint64_t stall_horizon = 0;
};

struct TrafficPoint {
  double offered = 0;       ///< λ actually requested.
  double generated = 0;     ///< Measured generation rate (sanity ≈ offered).
  double accepted = 0;      ///< Responses/core/cycle in the measure window.
  double avg_latency = 0;   ///< Mean round-trip latency (cycles).
  double p95_latency = 0;
  double max_latency = 0;
  uint64_t completed = 0;   ///< Latency samples collected.

  /// Exact (bit-wise for the doubles) comparison — the parallel runner's
  /// determinism contract is checked with this.
  bool operator==(const TrafficPoint&) const = default;
};

/// Detailed per-run counters for the equivalence harness: everything the
/// monitor and fabric count, compared bit-for-bit between engine modes.
struct TrafficCounters {
  uint64_t generated = 0;
  uint64_t injected = 0;
  uint64_t completed = 0;
  uint64_t completed_in_window = 0;
  uint64_t tile_req_traversals = 0;
  uint64_t tile_resp_traversals = 0;
  uint64_t dir_traversals = 0;
  uint64_t remote_resp_traversals = 0;
  uint64_t group_local_traversals = 0;
  uint64_t butterfly_traversals = 0;
  uint64_t bank_accesses = 0;
  uint64_t bank_stall_cycles = 0;
  uint64_t final_cycle = 0;  ///< Engine cycle after the run (incl. skipped).

  bool operator==(const TrafficCounters&) const = default;
};

/// Thrown by run_traffic_point when CheckpointOptions::should_abort asks the
/// point to stop between chunks (e.g. a service deadline expired mid-run).
/// The point produced no result; any checkpoints already handed to
/// on_checkpoint remain valid resume images.
class PointAborted : public std::runtime_error {
 public:
  explicit PointAborted(uint64_t cycle)
      : std::runtime_error("traffic point aborted at cycle " +
                           std::to_string(cycle)),
        cycle_(cycle) {}
  uint64_t cycle() const { return cycle_; }

 private:
  uint64_t cycle_;
};

/// Crash-safety hooks for run_traffic_point: periodic engine snapshots, a
/// resume image, and a cooperative abort poll. All fields default to "off",
/// so CheckpointOptions{} reproduces the plain uninterrupted run.
struct CheckpointOptions {
  /// Snapshot period in cycles; 0 disables periodic checkpointing. The run
  /// is stepped in chunks of this size and a mempool.ckpt.v1 image is taken
  /// at each chunk boundary (a quiesced point between two cycles).
  uint64_t checkpoint_every = 0;
  /// Identity stamped into every snapshot (e.g. the SimRequest content
  /// hash). Restore refuses an image whose key differs, so a checkpoint can
  /// never resume a different point's run.
  std::string key;
  /// Serialized mempool.ckpt.v1 image to resume from; nullptr = cold start.
  /// The image must come from a run with the identical config (same
  /// component list, monitor count, and key).
  const std::string* restore_from = nullptr;
  /// Receives each periodic snapshot, already serialized. The image is
  /// complete and self-validating (CRC-sealed); persist it with
  /// write_file_atomic (common/file_io.hpp) for crash atomicity.
  std::function<void(uint64_t cycle, const std::string& image)> on_checkpoint;
  /// Polled at every chunk boundary; return true to abort the point with
  /// PointAborted instead of running to completion.
  std::function<bool()> should_abort;
};

/// Run one (topology, λ, p_local) point.
///
/// Thread-safe and re-entrant: every invocation owns its Engine, Cluster,
/// monitor, and traffic generators, and each generator derives its RNG
/// stream purely from (cfg.seed, core id). Arbitration in the fabric is
/// round-robin, never randomized. Concurrent calls therefore share no
/// mutable state and the result is a pure function of @p cfg — the parallel
/// runner (src/runner/) relies on this to shard points across threads with
/// bit-identical results for any thread count.
///
/// @p counters_out, when non-null, receives the full monitor + fabric
/// counter set (the cycle-equivalence tests assert these match between the
/// activity-driven and dense engines).
TrafficPoint run_traffic_point(const TrafficExperimentConfig& cfg,
                               TrafficCounters* counters_out = nullptr);

/// Checkpoint-aware variant: identical result to the plain overload (bit
/// for bit, including under restore — the monitors' double-accumulation
/// order is preserved by snapshotting them alongside the engine), but the
/// run can be snapshotted, resumed, and aborted via @p ckpt.
TrafficPoint run_traffic_point(const TrafficExperimentConfig& cfg,
                               const CheckpointOptions& ckpt,
                               TrafficCounters* counters_out = nullptr);

}  // namespace mempool
