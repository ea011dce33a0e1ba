#include "runner/shard_gang.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mempool::runner {

namespace {

/// One PAUSE-class instruction for the spin loops below.
void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  // Portable fallback: nothing; every spin below is bounded anyway.
#endif
}

/// Spin iterations before a waiter parks (helpers) or yields (leader). At
/// ~1-3 ns per pause this is a few microseconds — comfortably longer than a
/// simulated cycle, so a busy gang never touches a futex, while an idle one
/// goes to sleep almost immediately on the wall-clock scale.
constexpr int kSpinBudget = 4096;

}  // namespace

ShardGang::ShardGang(unsigned sim_threads, uint32_t num_shards) {
  const unsigned threads = std::min<unsigned>(sim_threads, num_shards);
  try {
    for (unsigned h = 1; h < threads; ++h) {
      helpers_.emplace_back([this] { helper_loop(); });
    }
  } catch (...) {
    stop_helpers();  // a failed thread start must not leave joinable threads
    throw;
  }
}

ShardGang::~ShardGang() { stop_helpers(); }

void ShardGang::stop_helpers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
  }
  for (std::thread& t : helpers_) t.join();
}

/// Claim and run shards until none remain (or a newer round has started —
/// its shards are claimed for *that* round's fn, which the acquire on the
/// ticket has made visible).
void ShardGang::work() {
  for (;;) {
    uint64_t t = ticket_.load(std::memory_order_acquire);
    const auto s = static_cast<uint32_t>(t);
    if (s >= n_.load(std::memory_order_relaxed)) return;
    if (!ticket_.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      continue;
    }
    try {
      (*fn_)(s);
    } catch (...) {
      std::lock_guard<std::mutex> lock(err_mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    const uint64_t done =
        completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == n_.load(std::memory_order_relaxed)) {
      // Last shard of the round: notify the (possibly parked) leader
      // *through the mutex*, unconditionally. A parked-flag fast path would
      // race: the leader's flag store and completion load can reorder
      // (StoreLoad) against this thread's increment and flag load, letting
      // both sides read stale values — the helper skips the notify while the
      // leader parks on a stale count, and the simulation hangs. Locking
      // orders the increment before the leader's predicate re-check; one
      // uncontended lock per round is noise next to the shard work.
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_all();
    }
  }
}

void ShardGang::run(std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  MEMPOOL_CHECK(n < (1ull << 32));
  if (n == 0) return;
  fn_ = &fn;
  n_.store(n, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  const uint64_t epoch = (ticket_.load(std::memory_order_relaxed) >> 32) + 1;
  ticket_.store(epoch << 32, std::memory_order_release);
  if (parked_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }

  work();  // the leader is a participant

  // Barrier: all n shards must have completed before we return. Spin first
  // (the straggler is typically mid-shard), then park on cv_done_. No missed
  // wakeup: the finishing helper notifies under mu_ unconditionally, so
  // either this thread's locked predicate check already sees the final
  // count, or it blocks before the helper can acquire mu_ to notify.
  int spins = 0;
  while (completed_.load(std::memory_order_acquire) < n) {
    if (++spins <= kSpinBudget) {
      cpu_pause();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] {
      return completed_.load(std::memory_order_acquire) >= n;
    });
  }

  if (first_error_) {
    std::exception_ptr e;
    {
      std::lock_guard<std::mutex> lock(err_mu_);
      e = first_error_;
      first_error_ = nullptr;
    }
    std::rethrow_exception(e);
  }
}

void ShardGang::helper_loop() {
  uint64_t seen = 0;
  for (;;) {
    // Wait for the next round: bounded spin, then park. The engine holds the
    // epoch steady across inline-stepped light cycles, so a helper serving a
    // mostly-idle cluster parks here and costs nothing.
    int spins = 0;
    uint64_t t;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return;
      t = ticket_.load(std::memory_order_acquire);
      if ((t >> 32) != seen) break;
      if (++spins <= kSpinBudget) {
        cpu_pause();
        continue;
      }
      std::unique_lock<std::mutex> lock(mu_);
      park_events_.fetch_add(1, std::memory_order_relaxed);
      parked_.fetch_add(1, std::memory_order_release);
      cv_.wait(lock, [&] {
        return (ticket_.load(std::memory_order_acquire) >> 32) != seen ||
               stop_.load(std::memory_order_acquire);
      });
      parked_.fetch_sub(1, std::memory_order_release);
      spins = 0;
    }
    seen = t >> 32;
    work();
  }
}

}  // namespace mempool::runner
