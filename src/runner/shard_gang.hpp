#pragma once
// ShardGang: the reusable cycle barrier behind the sharded engine, which
// builds and owns one (Engine::set_sharded).
//
// A gang is a set of helper threads it starts and joins itself, plus the
// calling ("leader") thread: T participants, the leader is participant 0 and
// helper h is participant h. Every run(n, fn) is one barrier round that
// invokes fn(s) once for each shard s in [0, n), and run() returns only when
// all n invocations have completed — a full barrier, with all effects
// visible to the leader. Participant p owns the shards s ≡ p (mod T) and
// runs them in ascending order, so while every helper keeps up a shard runs
// on the same thread in every round and its working set stays in that
// core's caches. The engine calls this twice per simulated cycle (evaluate,
// commit), millions of times per run, so a round must cost hundreds of
// nanoseconds, not a mutex convoy:
//
//   * the leader publishes a round as one (epoch, n) word; helpers spin on
//     it for a bounded budget and then *park* on a condition variable, so a
//     gang stepping a mostly-idle cluster (the engine steps light cycles
//     inline without publishing a round) burns one core, not T;
//   * a participant claims a shard, by a CAS on that shard's own cache
//     line, before it runs it; once the leader has run its own shards it
//     claims and runs every shard whose owner has not started it. A helper
//     that is parked, or descheduled because the host runs more threads
//     than it has cores (a sweep of sharded points, several sharded
//     processes), then costs the round no wait for the scheduler;
//   * the leader publishes while holding the parking mutex and reads the
//     parked count under it, so a helper either sees the new epoch before
//     it sleeps or is already waiting when the leader notifies. A lock-free
//     store-then-load here can lose the wake-up: the store and the load
//     reorder against a parking helper's increment-then-check, and the
//     helper sleeps through the round, leaving its shards to the leader.
//     One uncontended lock per round is noise next to the shard work, and
//     the busy state stays syscall-free.
//
// Determinism: which thread runs a shard is irrelevant by construction (the
// engine's shards share no unsynchronized state), and run() is a barrier, so
// results are bit-identical for any helper count including zero.
//
// A thrown exception inside fn (e.g. a MEMPOOL_CHECK in a component) is
// captured, the round still completes (the failing shard counts as done),
// and run() rethrows the first error on the leader.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mempool::runner {

class ShardGang {
 public:
  /// Starts min(sim_threads, num_shards) - 1 helper threads: one per shard
  /// beyond the leader's, none when one thread suffices. Every run() takes
  /// at most @p num_shards (< 2^16) shards.
  ShardGang(unsigned sim_threads, uint32_t num_shards);
  /// Stops and joins the helpers.
  ~ShardGang();

  ShardGang(const ShardGang&) = delete;
  ShardGang& operator=(const ShardGang&) = delete;

  /// One barrier round over shards [0, n), n <= num_shards: see the header
  /// comment.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);
  /// Participants, leader included.
  unsigned threads() const { return threads_; }

  // --- introspection (tests) -------------------------------------------------
  /// Helpers currently parked on the condition variable (not spinning).
  unsigned parked_helpers() const;
  /// Total helper park events since construction.
  uint64_t park_events() const;

 private:
  void helper_loop(unsigned p);
  /// Claim and run the shards first, first + stride, ... of the published
  /// round @p r; returns how many this call ran.
  unsigned work(uint64_t r, std::size_t first, std::size_t stride);
  /// Publish the next round of @p n shards (0 = stop), wake the parked, and
  /// return the published word.
  uint64_t publish(std::size_t n);

  const unsigned threads_;

  // The published round: bits 63..16 = epoch, bits 15..0 = shard count. A
  // round of zero shards tells the helpers to exit. Stored only under mu_.
  std::atomic<uint64_t> round_{0};
  // Epoch of the round that last claimed each shard, one cache line apiece.
  // A laggard still holding an older round finds every shard of it claimed.
  struct alignas(64) Claim {
    std::atomic<uint64_t> epoch{0};
  };
  std::vector<Claim> claims_;
  // Shards completed in the current round (the leader resets it before
  // publishing the next one, when every shard of this one is done).
  std::atomic<std::size_t> done_{0};
  // The current round's work, written by the leader before it publishes.
  const std::function<void(std::size_t)>* fn_ = nullptr;

  // Parking, round completion, and the first error — all under mu_.
  mutable std::mutex mu_;
  std::condition_variable cv_;       // helpers waiting for the next epoch
  std::condition_variable cv_done_;  // leader waiting for round completion
  unsigned parked_ = 0;
  uint64_t park_events_ = 0;
  std::exception_ptr first_error_;

  std::vector<std::thread> helpers_;  // started last, joined first
};

}  // namespace mempool::runner
