#include "runner/shard_gang.hpp"

#include <algorithm>
#include <utility>

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

/// Spin iterations before a waiter parks. At 1-25 ns per pause (21 ns on a
/// recent Xeon) this is 4-100 µs — comfortably longer than a simulated
/// cycle, so a busy gang never touches a futex, while an idle one goes to
/// sleep almost immediately on the wall-clock scale.
constexpr int kSpinBudget = 4096;

/// Bits of the published round word that hold the shard count.
constexpr unsigned kCountBits = 16;

}  // namespace

ShardGang::ShardGang(unsigned sim_threads, uint32_t num_shards)
    : threads_(std::max(1u, std::min<unsigned>(sim_threads, num_shards))),
      claims_(num_shards) {
  MEMPOOL_CHECK(num_shards < (1u << kCountBits));
  try {
    for (unsigned h = 1; h < threads_; ++h) {
      helpers_.emplace_back([this, h] { helper_loop(h); });
    }
  } catch (...) {
    // A failed thread start must not leave joinable threads.
    publish(0);
    for (std::thread& t : helpers_) t.join();
    throw;
  }
}

ShardGang::~ShardGang() {
  publish(0);
  for (std::thread& t : helpers_) t.join();
}

unsigned ShardGang::parked_helpers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_;
}

uint64_t ShardGang::park_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return park_events_;
}

uint64_t ShardGang::publish(std::size_t n) {
  uint64_t r;
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t epoch =
        (round_.load(std::memory_order_relaxed) >> kCountBits) + 1;
    r = epoch << kCountBits | n;
    round_.store(r, std::memory_order_release);
    wake = parked_ > 0;
  }
  // A helper counted in parked_ holds mu_ from its increment until its wait
  // releases it, so it is already waiting here; one not counted yet will
  // see the new epoch in its locked predicate check.
  if (wake) cv_.notify_all();
  return r;
}

unsigned ShardGang::work(uint64_t r, std::size_t first, std::size_t stride) {
  const uint64_t epoch = r >> kCountBits;
  const std::size_t n = r & ((1u << kCountBits) - 1);
  unsigned ran = 0;
  for (std::size_t s = first; s < n; s += stride) {
    uint64_t seen = claims_[s].epoch.load();
    if (seen >= epoch ||
        !claims_[s].epoch.compare_exchange_strong(seen, epoch)) {
      continue;  // claimed in this round (or a later one) by someone else
    }
    ++ran;
    try {
      (*fn_)(s);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
  return ran;
}

void ShardGang::run(std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  MEMPOOL_CHECK(n <= claims_.size());
  if (n == 0) return;
  fn_ = &fn;
  done_.store(0, std::memory_order_relaxed);
  const uint64_t r = publish(n);

  // The leader runs its own shards, then every shard its owner has not
  // started yet. Shard 0 is the leader's alone, so no helper's count can
  // complete the round before the leader's is in.
  const unsigned ran = work(r, 0, threads_) + work(r, 1, 1);

  // Barrier: spin (the straggler is typically mid-shard), then park on
  // cv_done_. The helper that completes the round notifies under mu_, so
  // this thread's locked predicate check either sees the final count or
  // blocks before that helper can acquire mu_.
  if (done_.fetch_add(ran, std::memory_order_acq_rel) + ran < n) {
    int spins = 0;
    while (done_.load(std::memory_order_acquire) < n) {
      if (++spins <= kSpinBudget) {
        cpu_pause();
        continue;
      }
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [&] {
        return done_.load(std::memory_order_acquire) >= n;
      });
    }
  }

  // Every writer of first_error_ finished before its done_ increment.
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, {}));
}

void ShardGang::helper_loop(unsigned p) {
  uint64_t seen = 0;  // epoch of the last round this helper saw
  for (;;) {
    // Wait for the next round: bounded spin, then park. The engine publishes
    // no round for inline-stepped light cycles, so a helper serving a
    // mostly-idle cluster parks here and costs nothing.
    int spins = 0;
    uint64_t r = round_.load(std::memory_order_acquire);
    while ((r >> kCountBits) == seen) {
      if (++spins <= kSpinBudget) {
        cpu_pause();
      } else {
        std::unique_lock<std::mutex> lock(mu_);
        ++park_events_;
        ++parked_;
        cv_.wait(lock, [&] {
          return (round_.load(std::memory_order_relaxed) >> kCountBits) !=
                 seen;
        });
        --parked_;
        spins = 0;
      }
      r = round_.load(std::memory_order_acquire);
    }
    seen = r >> kCountBits;
    const std::size_t n = r & ((1u << kCountBits) - 1);
    if (n == 0) return;  // the stop round
    const unsigned ran = work(r, p, threads_);
    if (ran > 0 && done_.fetch_add(ran, std::memory_order_acq_rel) + ran == n) {
      // This helper completed the round: notify the (possibly parked) leader
      // through the mutex, unconditionally. A lock-free parked-flag check
      // could reorder (StoreLoad) against the leader's and leave it parked
      // on a stale count; the lock orders the increment before its re-check.
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_all();
    }
  }
}

}  // namespace mempool::runner
