#pragma once
// ShardGang: the reusable cycle-barrier primitive behind the sharded engine.
//
// A gang is a set of helper threads it starts and joins itself, plus the
// calling ("leader") thread. Every run(n, fn) is one barrier round: the
// leader publishes the work, everyone claims shard indices from a shared
// ticket until none remain, and run() returns only when all n invocations
// have completed — a full barrier, with all effects visible to the leader.
// The engine calls this twice per simulated cycle (evaluate, commit),
// millions of times per run, so a round must cost hundreds of nanoseconds,
// not a mutex convoy:
//
//   * the ticket packs (epoch, next-shard) into one 64-bit atomic; helpers
//     claim by CAS, so a laggard from the previous round can never steal or
//     skip a shard of the next one;
//   * helpers wait for the next epoch with a bounded spin and then *park* on
//     a condition variable — a gang stepping a mostly-idle cluster (the
//     engine steps light cycles inline without bumping the epoch) burns one
//     core, not sim-threads cores. The leader wakes parked helpers only when
//     the parked counter says someone is actually asleep, so the steady busy
//     state stays syscall-free;
//   * the leader claims shards too, so a round completes even when a helper
//     is slow to wake.
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
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/shard.hpp"

namespace mempool::runner {

class ShardGang final : public ShardExecutor {
 public:
  /// Starts min(sim_threads, num_shards) - 1 helper threads: one per shard
  /// beyond the leader's, none when one thread suffices. Pass the gang to
  /// Engine::set_sharded either way.
  ShardGang(unsigned sim_threads, uint32_t num_shards);
  /// Stops and joins the helpers.
  ~ShardGang() override;

  ShardGang(const ShardGang&) = delete;
  ShardGang& operator=(const ShardGang&) = delete;

  void run(std::size_t n, const std::function<void(std::size_t)>& fn) override;
  unsigned threads() const override {
    return static_cast<unsigned>(helpers_.size()) + 1;
  }

  // --- introspection (tests) -------------------------------------------------
  /// Helpers currently parked on the condition variable (not spinning).
  unsigned parked_helpers() const {
    return parked_.load(std::memory_order_acquire);
  }
  /// Total helper park events since construction.
  uint64_t park_events() const {
    return park_events_.load(std::memory_order_acquire);
  }

 private:
  void helper_loop();
  void work();
  void stop_helpers();

  // ticket: bits 63..32 = epoch of the current round, bits 31..0 = next
  // unclaimed shard index. Claiming CASes the whole word, so a claim is
  // always against the round it read — a stale helper can neither steal nor
  // skip work of a newer round.
  std::atomic<uint64_t> ticket_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<bool> stop_{false};

  // Round payload, written by the leader before the epoch release-store.
  // fn_ is only dereferenced after a successful claim — a CAS against a
  // ticket value in the leader's release sequence — so the plain pointer is
  // ordered; n_ is also read *before* claiming (the have-we-run-dry check),
  // where a straggler from the previous round may still be looking while the
  // leader publishes the next one. That read is validated by the CAS either
  // way, but it must be atomic (relaxed) to be a race-free look at possibly
  // stale data.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<uint64_t> n_{0};

  // First exception thrown by fn this round (leader rethrows).
  std::mutex err_mu_;
  std::exception_ptr first_error_;

  // Parking.
  std::mutex mu_;
  std::condition_variable cv_;       // helpers waiting for the next epoch
  std::condition_variable cv_done_;  // leader waiting for round completion
  std::atomic<unsigned> parked_{0};
  std::atomic<uint64_t> park_events_{0};

  std::vector<std::thread> helpers_;  // started last, joined first
};

}  // namespace mempool::runner
