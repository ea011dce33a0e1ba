#pragma once
// Work-stealing thread pool for the parallel experiment runner.
//
// Each worker owns a deque: it pushes/pops work at the front (LIFO, cache
// friendly) and victims are stolen from at the back (FIFO, coarse grain).
// Tasks submitted from non-worker threads are distributed round-robin.
//
// Exceptions do not kill workers or wedge the pool: a throwing task is
// recorded (first one wins), the remaining queued tasks still run, and
// wait_idle() rethrows the captured exception once the pool has drained.
// Simulation points are independent, so "drain everything, then report the
// first failure" is the semantics every caller wants.
//
// The pool runs whole simulation points (sweeps, the simulation service);
// the sharded engine's per-cycle barrier has its own threads
// (runner::ShardGang). Idle behavior: a worker that finds all deques empty
// re-polls with a short *bounded* spin — work arriving within a few
// microseconds is picked up without a futex round trip — and then parks on
// the work condition variable until the next submit, so an idle pool burns
// no cores; tests/test_runner_pool.cpp pins this via parked_workers().

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mempool::runner {

class ThreadPool {
 public:
  /// @param num_threads worker count; 0 picks std::thread::hardware_concurrency.
  explicit ThreadPool(unsigned num_threads = 0);

  /// Drains outstanding work, then joins all workers. Pending exceptions that
  /// were never observed via wait_idle() are dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue @p task. When called from a worker thread the task goes to that
  /// worker's own deque (depth-first execution of nested submissions).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. If any task threw, the
  /// first captured exception is rethrown (after the drain completes).
  void wait_idle();

  /// Default thread count: MEMPOOL_THREADS env var when set, else
  /// hardware_concurrency, else 1.
  static unsigned default_threads();

  // --- idle introspection (tests) -------------------------------------------
  /// Workers currently parked on the work condition variable (neither
  /// running a task nor spinning for one).
  unsigned parked_workers() const {
    return parked_.load(std::memory_order_acquire);
  }
  /// Total park events since construction.
  uint64_t park_events() const {
    return park_events_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::deque<std::function<void()>> deque;
    std::mutex mu;
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, std::function<void()>& task);
  bool any_queued();
  void run_task(std::function<void()>& task);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // guards pending_, stop_, first_error_
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::size_t pending_ = 0;        // submitted but not yet finished
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::size_t next_queue_ = 0;     // round-robin target for external submits
  std::atomic<unsigned> parked_{0};
  std::atomic<uint64_t> park_events_{0};
  std::atomic<uint64_t> work_epoch_{0};  // bumped per submit; spun on by
                                         // idle workers before they park
};

}  // namespace mempool::runner
