#pragma once
// Lanes: the unit the cycle engine steps, and the sharded engine's support.
//
// Every cycle, every engine mode runs the same two phases over its lanes:
//
//   evaluate  each lane fires its own timers and scans its own segment of the
//             wake bitset, evaluating the awake components in registration
//             order (restricted to the lane).
//   commit    each lane commits and clears the outboxes addressed to it, in
//             ascending producer-lane order (its own outbox included).
//
// Every registered push stages through an outbox (Clocked::stage_commit):
// lanes_[from].outboxes[home], where home is the lane of the buffer's
// consumer and from is the evaluating lane during a sharded evaluate phase,
// else home itself.
//
// The sequential modes (active, dense) step one lane that holds every
// component and clocked element, on the calling thread with no current lane
// (current_shard_lane() is null): timers armed during evaluation go to the
// engine's own wheel, every staged push lands in the lane's own outbox, and
// shard-boundary buffers refresh their producer-visible snapshot eagerly.
// Dense only adds a flag that sets every wake bit before the scan (and skips
// putting idle components to sleep, since the next cycle wakes them all
// again) and commits every clocked element in registration order.
//
// The sharded mode steps one lane per shard. Shards follow the fabric's
// *group* boundaries (reported by the FabricTopology plugin): MemPool's
// hierarchy guarantees that every link crossing a group passes through a
// registered elastic buffer, so no combinational path — and therefore no
// intra-cycle effect — ever crosses a shard. Lanes evaluate in parallel, each
// under a ShardLaneScope; a registered push into a buffer another shard
// consumes lands in the producer lane's outbox for that shard (a plain
// vector per directed shard pair), and pops from a shard-boundary buffer
// defer the producer-visible occupancy refresh (see ElasticBuffer) to the
// commit phase. A full barrier (ShardGang::run) separates the phases, so
// an outbox is written only in its producer's evaluate phase (or by the
// leader between steps) and read only in its consumer's commit phase, never
// both at once. Commits of distinct buffers are independent and the only
// shared words (wake flags, occupancy masks) are combined with idempotent
// ORs, so any fixed order is bit-identical to the sequential engine's
// commits.
//
// Determinism is structural, not best-effort: the per-shard evaluation order
// is the sequential engine's order restricted to the shard, cross-shard
// effects become visible only at the commit barrier (exactly when the
// sequential engine's commit would publish them), and a shard-boundary
// buffer's backpressure is judged against a start-of-cycle snapshot — which
// is precisely what the sequential engine's producer observes, because every
// cross-shard edge points forward in the evaluation order (the producer
// phase runs before the consumer network's phase). Sharded results are
// therefore bit-identical to the sequential active engine for every
// registered topology, kernel run, and seed; tests/test_sim_equivalence.cpp
// asserts this across FabricRegistry::names() × sim-thread counts.

#include <array>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/activity.hpp"

namespace mempool {

class Component;

/// Timed wakes (Engine::wake_at): a bucketed wheel for the next kWindow
/// cycles plus a heap for farther ones, which migrate into the wheel as their
/// window approaches. Wheel entries live in one contiguous pool chained per
/// slot through indices, instead of one heap-allocated vector per slot. Order
/// within a slot is irrelevant — firing is an idempotent wake() OR — so
/// entries are chained LIFO and recycled through a free list; the steady
/// state allocates nothing.
class TimerWheel {
 public:
  static constexpr uint64_t kWindow = 512;  ///< Slot span (power of two).

  /// Wake @p w at the start of cycle @p due (> @p now).
  void arm(uint64_t due, uint64_t now, Wakeable* w) {
    if (due - now < kWindow) {
      arm_slot(due, w);
    } else {
      far_.emplace(due, w);
    }
    ++armed_;
  }

  /// Wake every timer due at @p now, after moving far timers that entered
  /// the window into the wheel.
  void fire(uint64_t now) {
    if (armed_ == 0) return;
    while (!far_.empty() && far_.top().first < now + kWindow) {
      const auto [due, w] = far_.top();
      far_.pop();
      if (due <= now) {
        w->wake();
        --armed_;
      } else {
        arm_slot(due, w);
      }
    }
    const auto slot = static_cast<uint32_t>(now & (kWindow - 1));
    int32_t e = head_[slot];
    if (e < 0) return;
    head_[slot] = -1;
    while (e >= 0) {
      Entry& entry = pool_[static_cast<uint32_t>(e)];
      entry.w->wake();
      const int32_t next = entry.next;
      entry.next = free_head_;
      free_head_ = e;
      e = next;
      --armed_;
    }
  }

  /// Earliest armed cycle at or after @p now, clamped to @p limit. Off the
  /// hot path: the engine asks only when nothing is awake.
  uint64_t next_at_most(uint64_t now, uint64_t limit) const {
    if (armed_ == 0) return limit;
    uint64_t best = limit;
    if (!far_.empty() && far_.top().first < best) best = far_.top().first;
    for (uint64_t c = now; c < now + kWindow && c < best; ++c) {
      if (head_[c & (kWindow - 1)] >= 0) return c;
    }
    return best;
  }

  /// Timers armed and not yet fired.
  uint64_t armed() const { return armed_; }

 private:
  void arm_slot(uint64_t cycle, Wakeable* w) {
    const auto slot = static_cast<uint32_t>(cycle & (kWindow - 1));
    int32_t e;
    if (free_head_ >= 0) {
      e = free_head_;
      free_head_ = pool_[static_cast<uint32_t>(e)].next;
    } else {
      e = static_cast<int32_t>(pool_.size());
      pool_.push_back({});
    }
    pool_[static_cast<uint32_t>(e)] = {w, head_[slot]};
    head_[slot] = e;
  }

  struct Entry {
    Wakeable* w = nullptr;
    int32_t next = -1;
  };
  std::vector<Entry> pool_;
  int32_t free_head_ = -1;
  std::array<int32_t, kWindow> head_ = [] {
    std::array<int32_t, kWindow> h{};
    h.fill(-1);
    return h;
  }();
  using Timer = std::pair<uint64_t, Wakeable*>;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> far_;
  uint64_t armed_ = 0;
};

/// Which scheduler steps the engine (and, downstream, a bench's --engine
/// flag): dense = evaluate everything (the equivalence oracle), active = the
/// sequential activity-driven scheduler, sharded = activity-driven with the
/// component graph partitioned into per-group shards stepped in parallel.
enum class EngineMode : uint8_t { kActive, kDense, kSharded };

const char* engine_mode_name(EngineMode m);
/// Inverse of engine_mode_name; returns false on an unknown name.
bool engine_mode_from_name(const std::string& name, EngineMode* out);
/// The valid --engine names as one comma-separated string ("active, dense,
/// sharded") — the single source every unknown-engine error quotes, mirroring
/// FabricRegistry::available() / MemoryRegistry::available().
const char* engine_mode_available();
/// One-line description of @p m for --list-engines.
const char* engine_mode_description(EngineMode m);

/// One lane's working set. Everything a lane's thread touches while stepping
/// lives here (or in the components themselves), so the parallel phases
/// share no mutable state except the outboxes, which the phase barrier
/// hands from producer to consumer.
struct ShardLane {
  uint32_t id = 0;

  // --- wake bitset segment ---------------------------------------------------
  /// Word range [word_begin, word_end) of the engine's packed flag array;
  /// lane segments are cache-line aligned so two lanes never write the same
  /// line.
  uint32_t word_begin = 0;
  uint32_t word_end = 0;
  /// slots[(w - word_begin) * 64 + b] is the component behind flag bit b of
  /// word w (nullptr for padding bits past num_slots).
  std::vector<Component*> slots;
  uint32_t num_slots = 0;

  // --- commit staging --------------------------------------------------------
  /// outboxes[d]: clocked elements this lane staged this cycle for home lane
  /// d, in push order. This lane's evaluate phase (or the leader between
  /// steps, for the lane's own outbox) fills it, lane d's commit phase
  /// commits and clears it. An element stages at most once per cycle, so the
  /// elaboration-time reserve bounds a cycle's pushes — the own outbox
  /// (d == id) to the lane's element count, every other one to the number of
  /// boundary buffers lane d consumes — and an overflow is a model bug, not
  /// backpressure.
  std::vector<std::vector<Clocked*>> outboxes;

  void stage(uint32_t home, Clocked* c) {
    std::vector<Clocked*>& box = outboxes[home];
    MEMPOOL_CHECK_MSG(box.size() < box.capacity(),
                      "commit outbox " << id << "->" << home
                                       << " overflowed its "
                                          "elaboration-time capacity");
    box.push_back(c);
  }

  /// Shard-boundary buffers this shard popped from this cycle; their
  /// producer-visible occupancy snapshot is refreshed in the commit phase.
  /// Reserved at elaboration like the outboxes, so stepping never allocates.
  std::vector<Clocked*> drained;

  /// Timers armed by this lane's components during a sharded evaluate phase.
  TimerWheel timers;

  // --- per-cycle results (read by the leader after the barrier) --------------
  bool worked = false;
  uint64_t evaluations = 0;
  uint64_t commits = 0;

  // --- per-cycle profiling busy times (Engine::set_profile only) -------------
  /// This cycle's wall-clock ns spent in the lane's evaluate phase, outbox
  /// commits, and boundary snapshot refreshes. Written by the lane's thread,
  /// read by the leader after the barrier; untouched when profiling is off.
  uint64_t prof_eval_ns = 0;
  uint64_t prof_commit_ns = 0;
  uint64_t prof_drain_ns = 0;
};

namespace detail {
/// The shard the current thread is evaluating, nullptr outside a sharded
/// phase. Inline thread_local so the elastic-buffer hot paths read it without
/// a cross-TU call.
inline thread_local ShardLane* t_shard_lane = nullptr;
}  // namespace detail

/// The thread that is currently evaluating a shard (set by the engine around
/// each parallel phase). Clocked::stage_commit and ElasticBuffer::pop use
/// this to route staged commits and drains through the evaluating shard's
/// outboxes and drain list without knowing which engine — or how many
/// concurrently simulating engines — they belong to. nullptr whenever no
/// sharded evaluation is in flight on this thread.
inline ShardLane* current_shard_lane() { return detail::t_shard_lane; }

inline void Clocked::stage_commit() {
  if (home_ == nullptr) {
    staged_unbound_ = true;
    return;
  }
  ShardLane* from = current_shard_lane();
  (from != nullptr ? from : home_)->stage(home_->id, this);
}

inline void Clocked::bind_commit_lane(ShardLane* home) {
  home_ = home;
  if (staged_unbound_) {
    staged_unbound_ = false;
    home->stage(home->id, this);
  }
}

/// Scoped setter used by the engine; restores the previous value so nested
/// engines (a sharded simulation inside a sweep worker) cannot leak state.
class ShardLaneScope {
 public:
  explicit ShardLaneScope(ShardLane* lane) : prev_(detail::t_shard_lane) {
    detail::t_shard_lane = lane;
  }
  ~ShardLaneScope() { detail::t_shard_lane = prev_; }
  ShardLaneScope(const ShardLaneScope&) = delete;
  ShardLaneScope& operator=(const ShardLaneScope&) = delete;

 private:
  ShardLane* prev_;
};

}  // namespace mempool
