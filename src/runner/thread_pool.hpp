#pragma once
// Thread pool for the parallel experiment runner: one FIFO queue under one
// mutex, served by a fixed set of workers.
//
// Every task is a whole simulation point (a sweep item submitted through
// parallel_for, or a SimService cold point), milliseconds to seconds of
// work, so one lock per submit and per pop costs nothing measurable, and
// tasks start in submission order. The sharded engine's per-cycle barrier
// has its own threads (runner::ShardGang).
//
// Exceptions do not kill workers or wedge the pool: a throwing task is
// recorded (first one wins), the remaining queued tasks still run, and
// wait_idle() rethrows the captured exception once the pool has drained.
// Simulation points are independent, so "drain everything, then report the
// first failure" is the semantics every caller wants.
//
// A worker that finds the queue empty parks on the work condition variable
// until the next submit, so an idle pool burns no cores;
// tests/test_runner_pool.cpp pins this via parked_workers().

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mempool::runner {

class ThreadPool {
 public:
  /// @param num_threads worker count; 0 picks default_threads().
  explicit ThreadPool(unsigned num_threads = 0);

  /// Drains outstanding work, then joins all workers. Pending exceptions that
  /// were never observed via wait_idle() are dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

  /// Append @p task to the queue (callable from any thread, workers too).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. If any task threw, the
  /// first captured exception is rethrown (after the drain completes).
  void wait_idle();

  /// Default thread count: the MEMPOOL_THREADS env var when set (a whole
  /// decimal count; 0 means hardware concurrency, anything else throws a
  /// CheckError), else hardware_concurrency, else 1.
  static unsigned default_threads();

  // --- idle introspection (tests) -------------------------------------------
  /// Workers currently parked on the work condition variable.
  unsigned parked_workers() const { return parked_.load(); }
  /// Total park events since construction.
  uint64_t park_events() const { return park_events_.load(); }

 private:
  void worker_loop();
  void stop_workers();

  std::mutex mu_;  // guards queue_, pending_, stop_, first_error_
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t pending_ = 0;  // submitted but not yet finished
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::atomic<unsigned> parked_{0};
  std::atomic<uint64_t> park_events_{0};

  std::vector<std::thread> workers_;  // started last, joined first
};

}  // namespace mempool::runner
