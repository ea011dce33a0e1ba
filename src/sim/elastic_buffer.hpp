#pragma once
// Elastic-buffer flow control, the basic storage element of MemPool's
// interconnect ("An optional elastic buffer can be inserted at each output of
// the switch ... to break any combinational paths crossing the switch",
// Section III-A, after Michelogiannakis et al.).
//
// Two modes:
//  * kCombinational — a push is visible to the consumer within the same
//    cycle (the simulator evaluates components in topological order, so a
//    packet can traverse an arbitrarily long combinational switch chain in
//    one cycle, exactly like a ripple of valid signals in RTL).
//  * kRegistered — a push lands in a staging slot and becomes visible only
//    after the clock edge (Engine::step commits it). This models the
//    register boundaries drawn dashed in Figures 2 and 3 of the paper; each
//    registered buffer on a path adds exactly one cycle.
//
// Capacity 2 is the default: like a hardware skid buffer it sustains one
// packet per cycle throughput even though the 'ready' signal is derived from
// the pre-drain occupancy.
//
// Storage: bounded buffers up to kInlineCapacity keep their items in an
// inline ring (the whole buffer is a few contiguous cache lines — the fabric
// hot path never chases deque nodes); unbounded buffers (capacity 0, the
// ideal TopX bank queues) and deeper ones use a contiguous heap ring.
// Bounded deep rings are sized once at construction; unbounded rings grow by
// amortized doubling (never per push), so the hot path stays allocation-free
// — storage_reallocs() counts the growth events and is pinned by a test.
//
// Activity plumbing: the component that owns this buffer as an input sets
// itself as the consumer; pushes (combinational) and commits (registered)
// wake it so the activity-driven engine evaluates it exactly when a packet
// is visible. A registered push queues the buffer in a lane outbox
// (Clocked::stage_commit), so the commit phase touches only buffers that
// staged something. An optional occupancy bit mirrors "holds a visible item"
// into a switch-owned mask for sparse input scans.

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>

#include "common/check.hpp"
#include "sim/activity.hpp"
#include "sim/shard.hpp"
#include "sim/snapshot.hpp"

#if defined(MEMPOOL_DRC)
#include <sstream>

#include "sim/drc_runtime.hpp"
#endif

namespace mempool {

enum class BufferMode : uint8_t { kCombinational, kRegistered };

/// Head-item stringification for the stall watchdog's liveness report.
/// Payload types opt in by providing an overload findable by ADL (see the
/// Packet overload in sim/packet.hpp); everything else reports no detail.
template <typename T>
inline std::string liveness_summary(const T& /*item*/) {
  return {};
}

template <typename T>
class ElasticBuffer final : public Clocked {
 public:
  /// Capacities up to this use the inline ring; 0 (unbounded) and deeper
  /// buffers use a heap-backed power-of-two ring.
  static constexpr std::size_t kInlineCapacity = 4;

  /// Unbounded rings start here and double on demand.
  static constexpr uint32_t kOverflowInitial = 8;

  /// @param mode     registered (1-cycle) or combinational (0-cycle) input.
  /// @param capacity max occupancy including the staged item; 0 = unbounded
  ///                 (used only by the ideal TopX fabric's bank queues).
  explicit ElasticBuffer(BufferMode mode = BufferMode::kCombinational,
                         std::size_t capacity = 2)
      : mode_(mode), capacity_(capacity) {
    if (capacity_ == 0 || capacity_ > kInlineCapacity) {
      // Bounded deep buffers get their exact power-of-two once and never
      // grow; unbounded ones start small and double.
      uint32_t cap = kOverflowInitial;
      if (capacity_ != 0) {
        cap = 2;
        while (cap < capacity_) cap <<= 1;
      }
      overflow_ = alloc_ring(cap);
      overflow_cap_ = cap;
    }
  }

  ~ElasticBuffer() override { release_ring(overflow_, overflow_cap_); }

  // Non-copyable and non-movable: the engine's commit list, the switches'
  // BufferSink adapters, and the wake plumbing all hold raw pointers to a
  // registered buffer. A post-registration move (e.g. a vector reallocation)
  // would leave those pointers committing / waking a moved-from shell, so
  // moving is a construction-order bug by definition — owners use deque or
  // reserve-before-emplace containers.
  ElasticBuffer(const ElasticBuffer&) = delete;
  ElasticBuffer& operator=(const ElasticBuffer&) = delete;
  ElasticBuffer(ElasticBuffer&&) = delete;
  ElasticBuffer& operator=(ElasticBuffer&&) = delete;

  /// Activity hookup: @p consumer is woken whenever an item becomes visible
  /// (push for combinational buffers, commit for registered ones). @p name
  /// identifies the consumer in diagnostics (pass name().c_str(); components
  /// are non-movable, so the pointer stays valid). Rebinding to a *different*
  /// consumer fails loudly: a second set_consumer is always a wiring bug —
  /// the first consumer would silently stop being woken (rebinding the same
  /// consumer is idempotent and allowed).
  void set_consumer(Wakeable* consumer, const char* name = nullptr) {
    MEMPOOL_CHECK_MSG(
        consumer_ == nullptr || consumer_ == consumer,
        "elastic buffer already has consumer '"
            << consumer_name() << "'; rebinding it to '"
            << (name != nullptr ? name : "?")
            << "' would silently orphan the first consumer's wake plumbing");
    consumer_ = consumer;
    if (name != nullptr) consumer_name_ = name;
  }

  /// Diagnostic name of the bound consumer ("?" when never named).
  const char* consumer_name() const {
    return consumer_name_ != nullptr ? consumer_name_ : "?";
  }

  /// Occupancy hookup: mirror "the FIFO holds a visible item" into bit
  /// @p bit of @p word. Switches keep one occupancy word over their input
  /// buffers so a sparse evaluate iterates set bits instead of touching
  /// every (cache-cold) buffer. @p word must outlive the buffer's last
  /// push/pop/commit.
  void bind_occupancy_bit(uint64_t* word, unsigned bit) {
    occ_word_ = word;
    occ_mask_ = 1ull << bit;
    if (count_ == 0) {
      *word &= ~occ_mask_;
    } else {
      *word |= occ_mask_;
    }
  }

  /// Shard hookup: this buffer sits on a shard boundary — its producer
  /// evaluates in another shard than @p consumer_shard, the shard of its
  /// consumer. Only registered buffers qualify (a combinational push would be
  /// an intra-cycle cross-shard effect, which the sharded engine's
  /// determinism argument forbids — this check *is* the structural
  /// assertion). From now on the producer's can_accept() judges occupancy
  /// against a snapshot that is refreshed only at commit edges: under the
  /// sequential engines the snapshot tracks count_ exactly (every mutation
  /// refreshes it), under the sharded engine pops defer the refresh to the
  /// commit barrier — reproducing what the sequential producer observes,
  /// since it always evaluates before the consuming network's phase.
  void mark_shard_boundary(uint32_t consumer_shard) {
    MEMPOOL_CHECK_MSG(mode_ == BufferMode::kRegistered,
                      "combinational paths must not cross a shard boundary "
                      "(buffer consumed by '"
                          << consumer_name() << "' cannot become a boundary "
                          << "into shard " << consumer_shard
                          << "; insert a registered stage)");
    boundary_ = true;
    consumer_shard_ = consumer_shard;
    snap_count_ = count_;
  }
  bool shard_boundary() const { return boundary_; }

  /// 'ready' as the upstream switch sees it this cycle.
  bool can_accept() const {
    if (capacity_ == 0) return true;
    const uint32_t visible = boundary_ ? snap_count_ : count_;
    return visible + (staged_valid_ ? 1u : 0u) < capacity_;
  }

  /// Push one item; caller must have checked can_accept().
  void push(const T& v) {
    drc_check_push();
    MEMPOOL_CHECK(can_accept());
    if (mode_ == BufferMode::kRegistered) {
      // At most one push per cycle per buffer: a buffer is fed by exactly one
      // switch output, which grants at most one packet per cycle.
      MEMPOOL_CHECK(!staged_valid_);
      staged_ = v;
      staged_valid_ = true;
      stage_commit();
    } else {
      enqueue(v);
      *occ_word_ |= occ_mask_;
      if (consumer_ != nullptr) consumer_->wake();
    }
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_ + (staged_valid_ ? 1u : 0u); }

  const T& front() const {
    drc_check_read("front");
    MEMPOOL_CHECK(count_ > 0);
    return overflow_ != nullptr ? overflow_[head_ & (overflow_cap_ - 1)]
                                : ring_[head_];
  }

  T pop() {
    drc_check_read("pop");
    MEMPOOL_CHECK(count_ > 0);
    ++drains_;
    --count_;
    if (count_ == 0) *occ_word_ &= ~occ_mask_;
    if (boundary_) {
      if (ShardLane* lane = current_shard_lane()) {
        // Consumer shard draining across the boundary: the producer keeps
        // seeing the start-of-cycle occupancy until the commit barrier.
        if (!drain_marked_) {
          drain_marked_ = true;
          lane->drained.push_back(this);
        }
      } else {
        snap_count_ = count_;  // sequential engines: snapshot tracks exactly
      }
    }
    if (overflow_ != nullptr) {
      T v = overflow_[head_ & (overflow_cap_ - 1)];
      ++head_;  // masked on access; cap is pow2, so uint32 wrap is harmless
      return v;
    }
    T v = ring_[head_];
    head_ = (head_ + 1) % kInlineCapacity;
    return v;
  }

  /// Clock edge: staged item becomes visible (and the consumer must look).
  void commit() override {
    if (staged_valid_) {
      enqueue(staged_);
      staged_valid_ = false;
      *occ_word_ |= occ_mask_;
      if (consumer_ != nullptr) consumer_->wake();
    }
    if (boundary_) shard_sync();
  }

  /// Commit-barrier refresh of the producer-visible occupancy snapshot.
  void shard_sync() override {
    snap_count_ = count_;
    drain_marked_ = false;
  }

  BufferMode mode() const { return mode_; }
  bool registered_mode() const { return mode_ == BufferMode::kRegistered; }
  std::size_t capacity() const { return capacity_; }

  /// Checkpoint: serialize the visible FIFO contents and the drain counter.
  /// Item payloads opt in via ADL overloads `save_item(StateSink&, const T&)`
  /// / `load_item(StateSource&, T*)`, mirroring liveness_summary (the Packet
  /// overloads live in sim/packet.hpp). Only callable at a quiesced cycle —
  /// a staged item means the owner saved mid-cycle, which is a bug.
  void save_state(StateSink& s) const {
    MEMPOOL_CHECK_MSG(!staged_valid_,
                      "buffer checkpoint requires a quiesced cycle (item "
                      "still staged; consumer '"
                          << consumer_name() << "')");
    s.u32(count_);
    s.u64(drains_);
    if (overflow_ != nullptr) {
      for (uint32_t i = 0; i < count_; ++i) {
        save_item(s, overflow_[(head_ + i) & (overflow_cap_ - 1)]);
      }
    } else {
      for (uint32_t i = 0; i < count_; ++i) {
        save_item(s, ring_[(head_ + i) % kInlineCapacity]);
      }
    }
  }

  /// Restore into a freshly built (empty) buffer. Re-derives the occupancy
  /// bit and the producer-visible snapshot; the consumer is not woken here —
  /// every component starts awake after a rebuild, so visibility is already
  /// guaranteed for the first post-restore cycle.
  void load_state(StateSource& s) {
    MEMPOOL_CHECK_MSG(count_ == 0 && !staged_valid_,
                      "buffer restore requires a freshly built buffer");
    const uint32_t n = s.u32();
    drains_ = s.u64();
    for (uint32_t i = 0; i < n; ++i) {
      T v{};
      load_item(s, &v);
      enqueue(v);
    }
    if (count_ > 0) {
      *occ_word_ |= occ_mask_;
    } else {
      *occ_word_ &= ~occ_mask_;
    }
    snap_count_ = count_;
  }

  /// DRC self-description (the one meaningful Clocked::describe).
  void describe(GraphVisitor& v) const override {
    BufferDecl decl;
    decl.registered = mode_ == BufferMode::kRegistered;
    decl.shard_boundary = boundary_;
    decl.consumer_shard = consumer_shard_;
    decl.consumer = consumer_;
    decl.capacity = capacity_;
    v.buffer_info(decl);
  }

  /// Progress snapshot for the engine's stall watchdog. Read single-threaded
  /// between cycles (the probe runs on the leader before any shard phase),
  /// so plain member reads are safe; the head summary only looks at visible
  /// items (staged ones have no committed position yet).
  LivenessState liveness() const override {
    LivenessState s;
    s.is_buffer = true;
    s.occupancy = size();
    s.capacity = capacity_;
    s.drains = drains_;
    s.consumer = consumer_name();
    if (count_ > 0) s.head = liveness_summary(front_nocheck());
    return s;
  }

  /// Growth events of the overflow ring (0 for inline/bounded-deep buffers);
  /// pinned by a test so unbounded pushes stay off the allocator.
  uint64_t storage_reallocs() const { return ring_reallocs_; }

  /// MEMPOOL_DRC: bind the home shard (the consumer's shard as resolved by
  /// the static DRC walk) that every eval-phase access is checked against.
  void drc_bind_shard(int32_t home_shard) override {
#if defined(MEMPOOL_DRC)
    drc_home_ = home_shard;
#else
    (void)home_shard;
#endif
  }

 private:
#if defined(MEMPOOL_DRC)
  // Runtime shard-race checks (see sim/drc_runtime.hpp for the contract).
  // Accesses outside an evaluate phase (current_eval_shard() < 0) and buffers
  // the checker never armed (drc_home_ < 0) are exempt.
  void drc_check_read(const char* op) const {
    const int32_t cur = drc::current_eval_shard();
    if (cur < 0 || drc_home_ < 0 || cur == drc_home_) return;
    std::ostringstream os;
    os << "shard-race: " << op << " on buffer (consumer '" << consumer_name()
       << "', home shard " << drc_home_ << ") from eval shard " << cur;
    drc::report_race(os.str());
  }
  void drc_check_push() const {
    const int32_t cur = drc::current_eval_shard();
    if (cur < 0 || drc_home_ < 0 || cur == drc_home_) return;
    // A cross-shard push is legal only through a registered buffer marked as
    // a shard boundary whose declared consumer shard matches the home shard.
    if (mode_ == BufferMode::kRegistered && boundary_ &&
        static_cast<int32_t>(consumer_shard_) == drc_home_) {
      return;
    }
    std::ostringstream os;
    os << "shard-race: push into "
       << (mode_ == BufferMode::kRegistered ? "registered" : "combinational")
       << (boundary_ ? " boundary" : " non-boundary") << " buffer (consumer '"
       << consumer_name() << "', home shard " << drc_home_
       << ") from eval shard " << cur;
    drc::report_race(os.str());
  }
#else
  void drc_check_read(const char* /*op*/) const {}
  void drc_check_push() const {}
#endif

  const T& front_nocheck() const {
    return overflow_ != nullptr ? overflow_[head_ & (overflow_cap_ - 1)]
                                : ring_[head_];
  }

  static T* alloc_ring(uint32_t cap) {
    T* ring = static_cast<T*>(
        ::operator new(sizeof(T) * cap, std::align_val_t(alignof(T))));
    for (uint32_t i = 0; i < cap; ++i) new (ring + i) T{};
    return ring;
  }

  static void release_ring(T* ring, uint32_t cap) {
    if (ring == nullptr) return;
    for (uint32_t i = cap; i > 0; --i) ring[i - 1].~T();
    ::operator delete(ring, std::align_val_t(alignof(T)));
  }

  /// Double the overflow ring (unbounded buffers only).
  void grow_overflow() {
    const uint32_t new_cap = overflow_cap_ * 2;
    T* fresh = alloc_ring(new_cap);
    for (uint32_t i = 0; i < count_; ++i) {
      fresh[i] = overflow_[(head_ + i) & (overflow_cap_ - 1)];
    }
    release_ring(overflow_, overflow_cap_);
    overflow_ = fresh;
    overflow_cap_ = new_cap;
    head_ = 0;
    ++ring_reallocs_;
  }

  void enqueue(const T& v) {
    if (overflow_ != nullptr) {
      if (count_ == overflow_cap_) {
        // Only unbounded buffers can outgrow their ring: bounded deep ones
        // are sized to capacity_ at construction and gated by can_accept().
        MEMPOOL_CHECK(capacity_ == 0);
        grow_overflow();
      }
      overflow_[(head_ + count_) & (overflow_cap_ - 1)] = v;
    } else {
      // can_accept() (asserted at push, counted at stage time for commits)
      // bounds count_ by capacity_ <= kInlineCapacity; re-check so a contract
      // violation fails loudly instead of wrapping the ring.
      MEMPOOL_CHECK(count_ < kInlineCapacity);
      ring_[(head_ + count_) % kInlineCapacity] = v;
    }
    ++count_;
  }

  BufferMode mode_;
  std::size_t capacity_;
  std::array<T, kInlineCapacity> ring_{};
  uint32_t head_ = 0;
  uint32_t count_ = 0;  ///< Visible items (FIFO only, staged excluded).
  uint64_t drains_ = 0;  ///< Lifetime pop() count (watchdog progress metric).
  T* overflow_ = nullptr;       ///< Contiguous pow2 ring when deep/unbounded.
  uint32_t overflow_cap_ = 0;   ///< Power of two; 0 in inline mode.
  uint64_t ring_reallocs_ = 0;  ///< Growth events (see storage_reallocs()).
  T staged_{};
  bool staged_valid_ = false;
  bool boundary_ = false;      ///< Shard-boundary register (snapshot mode).
  bool drain_marked_ = false;  ///< Already on the consumer lane's drain list.
  uint32_t consumer_shard_ = 0;
  uint32_t snap_count_ = 0;  ///< Producer-visible count (== count_ unless a
                             ///< sharded cycle is between pop and barrier).
  Wakeable* consumer_ = nullptr;
  const char* consumer_name_ = nullptr;
#if defined(MEMPOOL_DRC)
  int32_t drc_home_ = -1;  ///< Armed home shard; -1 = unchecked.
#endif
  uint64_t own_occ_ = 0;          ///< Fallback occupancy word (unbound).
  uint64_t* occ_word_ = &own_occ_;
  uint64_t occ_mask_ = 1;
};

}  // namespace mempool
