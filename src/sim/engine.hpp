#pragma once
// Synchronous cycle engine with two-phase active-set scheduling.
//
// The MemPool model is a fixed component graph; there is no dynamic event
// queue for packets. Each cycle has two phases:
//   1. evaluate: active components run once, in builder-established
//      topological order. Combinational buffers make packets pushed earlier
//      in the same cycle visible to later components, which is how a packet
//      crosses a chain of combinational switches in a single cycle.
//   2. commit: every buffer with a staged item latches (staged pushes become
//      visible and wake their consumer), then the cycle counter advances.
//
// Only components whose wake flag is set are evaluated. Components register
// wake conditions instead of polling:
//   - an elastic-buffer push/commit wakes the downstream component,
//   - response delivery wakes the receiving client,
//   - an I$ miss wakes the refill engine,
//   - wake_at(cycle, w) arms a timed wake (traffic generators sleep between
//     Poisson arrival events).
// A component that reports idle() after evaluating is put to sleep until one
// of those events re-arms it. The wake flags live in one contiguous
// engine-owned array, so the per-cycle scan is a word-wise sweep that skips
// 64 sleeping components per load; the commit phase latches only the
// elements queued in the lane outboxes by their staged pushes. When a step
// finds no awake component and nothing staged, the cluster cannot wake
// itself before the next timer (or ever, if none is armed), so run()
// fast-forwards the dead cycles.
//
// One cycle loop serves every mode; the modes differ only in how the
// components are split into lanes (sim/shard.hpp) and in one flag:
//   * active (default): one lane holding every component, stepped on the
//     calling thread.
//   * dense (set_dense(true), --engine dense): the same lane, with every wake
//     bit set before the scan and every clocked element committed in
//     registration order — evaluate everything, commit everything, each
//     cycle. Kept as the equivalence oracle: both modes are cycle-for-cycle
//     bit-identical (tests/test_sim_equivalence) because an idle component's
//     evaluate() is a no-op by contract, and wake events strictly precede the
//     evaluation that observes them thanks to the topological order (all
//     combinational edges point forward; backward edges are registered and
//     wake at the commit edge for the next cycle).
//   * sharded (set_sharded, --engine sharded): one lane per fabric shard,
//     evaluated concurrently and latched at a per-cycle commit barrier — see
//     sim/shard.hpp for the structure and the determinism argument. Results
//     are bit-identical to the active engine for any shard count and any
//     thread schedule.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "sim/activity.hpp"
#include "sim/component.hpp"
#include "sim/elastic_buffer.hpp"
#include "sim/shard.hpp"

namespace mempool {

class Snapshot;

/// Thrown by the progress watchdog (Engine::set_stall_horizon) when pending
/// work has made no progress for a full stall horizon: the model is
/// deadlocked (or a consumer is starved), and aborting with an attributed
/// report beats hanging a million-cycle sweep. Carries the machine-readable
/// `mempool.liveness.v1` document naming the oldest-stalled buffers.
class LivenessError : public std::runtime_error {
 public:
  LivenessError(const std::string& what, Json report)
      : std::runtime_error(what), report_(std::move(report)) {}
  const Json& report() const { return report_; }

 private:
  Json report_;
};

class Engine {
 public:
  Engine();
  ~Engine();

  // Components keep raw pointers into the engine's wake bitset and clocked
  // elements into its lanes, so the engine must stay put once wired.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a component; evaluation follows registration order within each
  /// lane. @p shard is the partition the component evaluates in under
  /// set_sharded() — components connected by a combinational path must share
  /// a shard (the cluster builder derives shards from the fabric plugin's
  /// group structure, which guarantees exactly that). The sequential modes
  /// keep the tag for MEMPOOL_DRC's race checks. Must happen before the first
  /// step().
  void add_component(Component* c, uint32_t shard = 0) {
    MEMPOOL_CHECK_MSG(!finalized_, "add_component after the first step");
    MEMPOOL_CHECK_MSG(component_set_.insert(c).second,
                      "component '" << c->name()
                                    << "' registered twice (it would be "
                                       "evaluated twice per cycle)");
    components_.push_back(c);
    component_shard_.push_back(shard);
  }

  /// Register a clocked element for the commit phase. @p shard is the shard
  /// whose commit phase latches the element under set_sharded() — for an
  /// elastic buffer, the shard of its *consumer* (commits publish into
  /// consumer-side state). finalize() binds each element to that lane
  /// (Clocked::bind_commit_lane), which hands over a push staged before it.
  void add_clocked(Clocked* c, uint32_t shard = 0) {
    MEMPOOL_CHECK_MSG(!finalized_, "add_clocked after the first step");
    MEMPOOL_CHECK_MSG(clocked_set_.insert(c).second,
                      "clocked element registered twice (it would commit "
                      "twice per cycle under the dense engine)");
    clocked_.push_back(c);
    clocked_shard_.push_back(shard);
  }

  /// Arm a timed wake: @p w is woken at the start of cycle @p cycle (or
  /// immediately if @p cycle is not in the future). Components use this to
  /// sleep through dead cycles they can predict — e.g. a traffic generator
  /// sleeping until its next Poisson arrival. During a sharded evaluate phase
  /// the timer is armed in the evaluating shard's own wheel (components only
  /// arm wakes for themselves or same-shard peers), keeping the hot path
  /// lock-free; everywhere else it goes to the engine's wheel, fired on the
  /// leader before the lanes run.
  void wake_at(uint64_t cycle, Wakeable* w) {
    if (cycle <= cycle_) {
      w->wake();
      return;
    }
    ShardLane* lane = current_shard_lane();
    (lane != nullptr ? lane->timers : timers_).arm(cycle, cycle_, w);
  }

  /// Select dense scheduling: true = evaluate every component and commit
  /// every registered element each cycle (the --engine=dense equivalence
  /// oracle), false (default) = activity-driven. May be toggled between
  /// steps; both see the same state. Mutually exclusive with set_sharded().
  void set_dense(bool dense) {
    MEMPOOL_CHECK_MSG(!dense || num_shards_ == 0,
                      "dense and sharded scheduling are mutually exclusive");
    dense_ = dense;
  }
  bool dense() const { return dense_; }

  /// Partition the registered components into @p num_shards lanes (by the
  /// shard ids passed to add_component) and step them in parallel on
  /// @p exec; a null executor — or one without spare threads — steps the
  /// lanes one after another on the calling thread, still bit-identically.
  /// @p exec, when given, must outlive every subsequent step()/run() call.
  /// Must be called after the components are registered and before the
  /// first step; mutually exclusive with set_dense(true).
  void set_sharded(uint32_t num_shards, ShardExecutor* exec);
  bool sharded() const { return num_shards_ != 0; }
  uint32_t num_shards() const { return num_shards_; }

  /// Arm the deterministic progress watchdog: every @p horizon cycles the
  /// engine probes all registered buffers, and a buffer that stays non-empty
  /// for a full horizon without a single pop() trips a LivenessError carrying
  /// a `mempool.liveness.v1` report (see watchdog_probe in engine.cpp). The
  /// probe reads only simulation state on the leader thread between cycles,
  /// so it is bit-identical across active/dense/sharded modes and never
  /// perturbs results. 0 (default) disarms. May be re-armed between steps;
  /// the horizon then counts from the current cycle.
  void set_stall_horizon(uint64_t horizon) {
    stall_horizon_ = horizon;
    watched_.clear();
    watch_baselined_ = false;
    watch_probe_at_ = horizon == 0 ? UINT64_MAX : cycle_;
  }
  uint64_t stall_horizon() const { return stall_horizon_; }

  /// Advance one cycle.
  void step() { step_work(); }

  /// Advance @p n cycles. Unless dense, once nothing is awake and nothing is
  /// staged, the cycles up to the next armed timer (or the target) are
  /// skipped in O(1) — they could not have changed any state.
  void run(uint64_t n) {
    const uint64_t target = cycle_ + n;
    while (cycle_ < target) {
      if (!step_work() && !dense_) {
        // Never fast-forward past a watchdog probe: an all-asleep wedge
        // (e.g. everything waiting on a commit that never comes) must still
        // be probed at the exact horizon boundary.
        const uint64_t next =
            std::min(next_timer_at_most(target), watch_probe_at_);
        if (next > cycle_) {
          idle_cycles_skipped_ += next - cycle_;
          cycle_ = next;
        }
      }
    }
  }

  // --- checkpoint/restore (sim/snapshot.cpp) ---------------------------------
  /// Capture the full simulation state at the current (quiesced) cycle
  /// boundary into @p snap: engine counters plus one section per registered
  /// component, in registration order. Must be called between steps — a
  /// non-empty outbox fails the quiescence check.
  void save_state(Snapshot* snap) const;
  /// Restore a save_state() capture into a freshly built engine/cluster of
  /// the same configuration. Sets the cycle counter and hands every
  /// component its section; continuing the run is bit-identical to the
  /// uninterrupted one under all scheduling modes.
  void load_state(const Snapshot& snap);

  uint64_t cycle() const { return cycle_; }
  std::size_t num_components() const { return components_.size(); }
  std::size_t num_clocked() const { return clocked_.size(); }

  // --- registration state (read by verify/drc.cpp) ---------------------------
  /// Registered components in evaluation (= registration) order.
  const std::vector<Component*>& components() const { return components_; }
  /// Shard id per component, parallel to components().
  const std::vector<uint32_t>& component_shards() const {
    return component_shard_;
  }
  /// Registered clocked elements (commit-phase participants).
  const std::vector<Clocked*>& clocked_elements() const { return clocked_; }
  /// Whether @p c was registered via add_clocked (rule D1).
  bool is_registered_clocked(const Clocked* c) const {
    return clocked_set_.count(c) != 0;
  }

  // --- scheduler statistics (perf reporting and tests) -----------------------
  /// Total component evaluate() calls across all cycles.
  uint64_t evaluations() const;
  /// Total commit() calls across all cycles.
  uint64_t commits() const;
  /// Cycles fast-forwarded by run() after quiescence was detected.
  uint64_t idle_cycles_skipped() const { return idle_cycles_skipped_; }
  /// Cycles the sharded engine dispatched to the executor (vs. stepping the
  /// lanes inline because the previous cycle was too light to pay the
  /// barrier for). Deterministic: depends only on simulation state.
  uint64_t parallel_cycles() const { return parallel_cycles_; }

  // --- per-phase profiling (micro_sim_speed --profile) -----------------------
  /// Wall-clock nanoseconds attributed to each phase of the cycle loop while
  /// set_profile(true): evaluate = timer firing + active-set scans, commit =
  /// outbox commits, drain = boundary snapshot refreshes (sharded only),
  /// barrier = dispatch/join overhead of the parallel phases (phase wall time
  /// minus the busiest lane's work).
  /// A cycle whose lanes run one after another on the calling thread has no
  /// barrier: its lanes' busy times add up to the work phases.
  /// Profiling never changes simulation results — it only reads clocks.
  struct PhaseProfile {
    uint64_t evaluate_ns = 0;
    uint64_t commit_ns = 0;
    uint64_t drain_ns = 0;
    uint64_t barrier_ns = 0;
    uint64_t cycles = 0;  ///< Cycles measured (fast-forwarded ones excluded).
  };
  void set_profile(bool on) { profile_ = on; }
  const PhaseProfile& phase_profile() const { return profile_data_; }

 private:
  /// Lay out the lanes: one per shard under set_sharded, else one holding
  /// everything. Each lane gets a cache-line aligned segment of the packed
  /// wake bitset plus a slot table mapping its bits back to components in
  /// registration order, and its outboxes reserved for a cycle's pushes.
  void finalize();

  /// Earliest armed timer cycle, clamped to @p limit. Only called when the
  /// cluster is otherwise quiescent, so the wheel scans are off the hot path.
  uint64_t next_timer_at_most(uint64_t limit) const;

  /// One cycle; returns true if any component was evaluated or any element
  /// committed.
  bool step_work();
  void lane_evaluate(std::size_t s);
  void lane_commit(std::size_t s);
  void record_profile(uint64_t t0, uint64_t te, uint64_t tc, bool parallel);

  // --- progress watchdog (engine.cpp) ----------------------------------------
  /// One buffer under watch. `pending_since` is the probe cycle at which the
  /// current "non-empty with no drain progress" run began; a run that
  /// reaches the stall horizon trips the watchdog.
  struct WatchedBuffer {
    Clocked* buf = nullptr;
    std::string name;    ///< First reader's "component.port" (DRC naming).
    uint32_t shard = 0;  ///< Consumer's shard (0 under sequential modes).
    uint64_t drains = 0;
    bool pending = false;
    uint64_t pending_since = 0;
  };
  void watchdog_collect();
  void watchdog_probe();
  [[noreturn]] void watchdog_fire(
      const std::vector<const WatchedBuffer*>& stalled);

  std::vector<Component*> components_;
  std::vector<uint32_t> component_shard_;  ///< Parallel to components_.
  std::vector<Clocked*> clocked_;
  std::vector<uint32_t> clocked_shard_;  ///< Parallel to clocked_.
  std::unordered_set<const Component*> component_set_;  ///< Dup detection.
  std::unordered_set<const Clocked*> clocked_set_;      ///< Dup detection.
  std::vector<uint64_t> flags_;  ///< Packed wake bits, one per component.
  std::vector<ShardLane> lanes_;
  /// Timers armed outside any sharded evaluate phase (every timer under the
  /// sequential modes; external pokes under sharded).
  TimerWheel timers_;
  uint64_t cycle_ = 0;
  bool dense_ = false;
  bool finalized_ = false;
  /// Work counted before the lanes existed (restored from a checkpoint).
  uint64_t evaluations_ = 0;
  uint64_t commits_ = 0;
  uint64_t idle_cycles_skipped_ = 0;
  bool profile_ = false;
  PhaseProfile profile_data_;

  // --- watchdog state --------------------------------------------------------
  uint64_t stall_horizon_ = 0;            ///< 0 = watchdog disarmed.
  uint64_t watch_probe_at_ = UINT64_MAX;  ///< Next probe cycle.
  bool watch_baselined_ = false;          ///< Buffer list collected yet?
  std::vector<WatchedBuffer> watched_;

  // --- sharded state ---------------------------------------------------------
  uint32_t num_shards_ = 0;  ///< 0 = sequential scheduling (one lane).
  ShardExecutor* exec_ = nullptr;
  /// Evaluations of the previous cycle: cycles lighter than the dispatch
  /// threshold step their lanes inline (the barrier would cost more than the
  /// work); purely simulation-state dependent, so the choice never affects
  /// results.
  uint64_t last_cycle_evals_ = UINT64_MAX;
  uint64_t prev_total_evals_ = 0;
  uint64_t parallel_cycles_ = 0;
};

}  // namespace mempool
