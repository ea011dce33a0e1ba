#pragma once
// Activity primitives for the two-phase activity-driven scheduler.
//
// The engine evaluates only components whose activity flag is set. The flag
// is raised by the wake plumbing:
//  * a combinational ElasticBuffer push wakes its consumer immediately (the
//    packet is visible this cycle; topological evaluation order guarantees
//    the consumer has not been visited yet),
//  * a registered ElasticBuffer wakes its consumer when the staged item
//    becomes visible at the commit edge (so the consumer runs next cycle),
//  * components with self-generated work (traffic generators, I$ refills,
//    unhalted cores) simply never report idle() and stay in the active set.
//
// A component is put back to sleep by the engine right after an evaluate()
// in which it reports idle(); invariant: a sleeping component's evaluate()
// would be a no-op, and only a wake event can change that.
//
// The commit phase needs no flag: a clocked element that stages state queues
// itself in a lane outbox (Clocked::stage_commit), and the commit phase
// latches exactly what was queued.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mempool {

class GraphVisitor;
class PacketSink;
class Wakeable;
struct ShardLane;

/// Arbitration policy a multi-input component declares for the liveness DRC
/// (GraphVisitor::arbitration). Round-robin grants every input eventually;
/// fixed-priority can starve a low-priority input forever when the traffic
/// that fills it loops back through the arbiter's own output (rule D8).
enum class ArbiterFairness : uint8_t { kRoundRobin, kFixedPriority };

/// Progress snapshot a clocked element reports to the engine's stall
/// watchdog (Clocked::liveness). `drains` is a monotonic pop counter: a
/// buffer that stays non-empty across a full stall horizon with `drains`
/// unchanged has a wedged consumer, and the watchdog attributes the stall
/// to it by name. Non-buffer elements keep the default (is_buffer = false)
/// and are never watched.
struct LivenessState {
  bool is_buffer = false;
  std::size_t occupancy = 0;  ///< Visible + staged items.
  std::size_t capacity = 0;   ///< 0 = unbounded.
  uint64_t drains = 0;        ///< Lifetime pop() count (monotonic).
  const char* consumer = "?"; ///< Diagnostic name of the waiting consumer.
  std::string head;           ///< One-line summary of the head item, if any.
};

/// Activity flag mixin. Components start awake so the first cycle after
/// build() evaluates everything once and lets the idle ones drop out.
///
/// The flag lives behind a (word, bit) pointer: stand-alone the component
/// uses its own word, but once registered the engine rebinds it into one
/// packed bitset (bind_activity_slot) so the per-cycle active-set scan
/// iterates set bits of a few contiguous words instead of chasing a pointer
/// per component across the heap.
class Wakeable {
 public:
  Wakeable() = default;

  Wakeable(const Wakeable&) = delete;
  Wakeable& operator=(const Wakeable&) = delete;

  void wake() { *word_ |= mask_; }
  void sleep() { *word_ &= ~mask_; }
  bool awake() const { return (*word_ & mask_) != 0; }

  /// Move the flag into engine-owned storage, preserving its current value.
  /// @p word must outlive this object's last wake()/sleep() call.
  void bind_activity_slot(uint64_t* word, unsigned bit) {
    const bool was_awake = awake();
    word_ = word;
    mask_ = 1ull << bit;
    if (was_awake) {
      *word_ |= mask_;
    } else {
      *word_ &= ~mask_;
    }
  }

 private:
  uint64_t own_flag_ = 1;
  uint64_t* word_ = &own_flag_;
  uint64_t mask_ = 1;
};

/// Interface for anything clocked by the engine's commit phase.
///
/// An element that stages state calls stage_commit() once per cycle, which
/// appends it to a lane outbox (ShardLane::outboxes) addressed to its home
/// lane, the lane whose commit phase latches it. The commit phase then
/// commits exactly the staged elements, in push order. Commits of distinct
/// elements are independent (the only shared words, wake flags and occupancy
/// masks, combine with idempotent ORs), so push order is bit-identical to the
/// dense oracle's registration order. Both members are defined in
/// sim/shard.hpp, next to ShardLane.
class Clocked {
 public:
  virtual ~Clocked() = default;
  virtual void commit() = 0;

  /// Stage notification: append this element to the outbox for its home
  /// lane — of the evaluating lane during a sharded evaluate phase, else of
  /// the home lane itself. Before bind_commit_lane the element only
  /// remembers that it is staged.
  inline void stage_commit();

  /// Bind the lane whose commit phase latches this element (Engine::finalize).
  /// An element staged before binding (an external poke before the first
  /// step) is handed to @p home's own outbox here. @p home must outlive this
  /// element's last stage_commit().
  inline void bind_commit_lane(ShardLane* home);

  /// Sharded engine: refresh producer-visible state at the commit barrier.
  /// Called (on the consumer shard's thread, between the cycle's barriers)
  /// for every element the consumer drained this cycle — see
  /// ElasticBuffer::shard_sync for the one meaningful implementation.
  virtual void shard_sync() {}

  /// Static-analysis hook (verify/drc.hpp): report this element's structural
  /// facts — mode, consumer, shard-boundary status — via
  /// GraphVisitor::buffer_info. The conservative default declares nothing,
  /// which exempts the element from the design-rule checks (the DRC can only
  /// lint what is described); ElasticBuffer provides the one meaningful
  /// implementation.
  virtual void describe(GraphVisitor& /*v*/) const {}

  /// MEMPOOL_DRC hook: the runtime shard-race detector binds the shard the
  /// DRC resolved for this element's consumer, so eval-phase accesses can be
  /// checked against it. Default ignores the tag (non-buffer elements carry
  /// no per-access shard contract).
  virtual void drc_bind_shard(int32_t /*home_shard*/) {}

  /// Progress snapshot for the engine's stall watchdog
  /// (Engine::set_stall_horizon). The default reports "not a buffer", which
  /// exempts the element from watching; ElasticBuffer provides the one
  /// meaningful implementation.
  virtual LivenessState liveness() const { return {}; }

 private:
  ShardLane* home_ = nullptr;  ///< Null until bind_commit_lane.
  bool staged_unbound_ = false;  ///< stage_commit() ran before binding.
};

/// What an elastic buffer reports about itself to the design-rule checker
/// (Clocked::describe -> GraphVisitor::buffer_info).
struct BufferDecl {
  bool registered = false;      ///< kRegistered: commit-edge visibility.
  bool shard_boundary = false;  ///< mark_shard_boundary() was called.
  uint32_t consumer_shard = 0;  ///< Meaningful only when shard_boundary.
  const Wakeable* consumer = nullptr;  ///< set_consumer() target, if any.
  std::size_t capacity = 0;            ///< 0 = unbounded.
};

/// Callback interface of the elaboration-time design-rule checker
/// (verify/drc.hpp). Components and clocked elements *describe* the graph
/// structure the engine cannot see on its own: which buffers a component
/// reads (it is their consumer), which sinks/buffers it pushes into during
/// evaluate(), which components it delivers into or wakes directly, and
/// whether its work is self-generated. The DRC walks every registered
/// component, calls describe(), and checks the declared graph against the
/// engine's registration state and shard map (rules D1-D6, see
/// verify/drc.hpp for the canonical invariant statement).
///
/// All declarations are attributed to the component whose describe() call is
/// currently on the stack; label strings are copied immediately, so
/// temporaries are fine.
class GraphVisitor {
 public:
  virtual ~GraphVisitor() = default;

  // --- called from Component::describe ---------------------------------------
  /// The component pops/fronts @p buf during evaluate() (it is the buffer's
  /// consumer). @p label names the port ("in3", "req", ...).
  virtual void reads(const Clocked* buf, std::string_view label) = 0;
  /// The component pushes into @p sink during evaluate(). The DRC resolves
  /// the sink to the elastic buffer behind it (PacketSink::drc_buffer) or to
  /// a terminal delivery target (PacketSink::drc_terminal).
  virtual void writes(const PacketSink* sink, std::string_view label) = 0;
  /// The component pushes into @p buf directly (typed buffers that bypass
  /// the PacketSink interface, e.g. the DMA command/completion links).
  virtual void writes_buffer(const Clocked* buf, std::string_view label) = 0;
  /// The component delivers data into @p target by direct call during
  /// evaluate() (same-cycle, no buffer in between) — e.g. a response bridge
  /// delivering into a client, the DMA backend's dedicated bank port.
  virtual void writes_terminal(const Wakeable* target,
                               std::string_view label) = 0;
  /// The component calls target->wake() (or arms a timer for @p target)
  /// during evaluate() — e.g. a core waking the tile I$ on a miss.
  virtual void wakes(const Wakeable* target, std::string_view label) = 0;
  /// The component's work is self-generated (it stays awake or arms timed
  /// wakes for itself): cores, traffic generators, the DMA backends. Exempts
  /// it from the orphan rule D6.
  virtual void self_ticking() = 0;
  /// The component is woken by direct method calls from other components
  /// (I$ fetch, DMA portal submit) rather than through a declared edge.
  /// Exempts it from the orphan rule D6.
  virtual void wake_on_demand() = 0;

  // --- liveness annotations (rules D7-D9, verify/liveness.hpp) ---------------
  // Default no-ops: the structural rules D1-D6 need none of these, and a
  // component without request/response coupling or arbitration has nothing
  // to declare. Plugin authors: see the "Liveness" part of the README's
  // design-rule section for when each annotation is required.

  /// Draining request buffer @p req eventually requires pushing a response
  /// into @p resp (a memory bank answering a load, an AXI port, ...). The
  /// liveness DRC resolves @p resp like writes(); terminal responses cannot
  /// deadlock and are ignored. Feeds the protocol-deadlock lint D9.
  virtual void couples(const Clocked* /*req*/, const PacketSink* /*resp*/,
                       std::string_view /*label*/) {}
  /// couples() for typed buffers that bypass PacketSink (the DMA
  /// command/completion links).
  virtual void couples_buffer(const Clocked* /*req*/, const Clocked* /*resp*/,
                              std::string_view /*label*/) {}
  /// The component guarantees to drain @p buf unconditionally — popping it
  /// never waits on downstream backpressure (an ideal response bridge, the
  /// DMA frontend retiring completions). Such an edge breaks dependency
  /// cycles for D7/D8/D9.
  virtual void sinks_unconditionally(const Clocked* /*buf*/,
                                     std::string_view /*label*/) {}
  /// Arbitration policy over the component's declared read ports. Undeclared
  /// components are treated as fair (round-robin); a kFixedPriority
  /// declaration arms the starvation rule D8 for its inputs.
  virtual void arbitration(ArbiterFairness /*fairness*/) {}

  // --- called from Clocked::describe -----------------------------------------
  /// Structural facts of the buffer the DRC is currently walking.
  virtual void buffer_info(const BufferDecl& decl) = 0;
};

}  // namespace mempool
