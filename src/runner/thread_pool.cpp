#include "runner/thread_pool.hpp"

#include <cstdlib>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace mempool::runner {

unsigned ThreadPool::default_threads() {
  // getenv races with setenv, but nothing in this process ever calls setenv:
  // the env is read-only configuration established before main().
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("MEMPOOL_THREADS")) {
    unsigned v = 0;
    MEMPOOL_CHECK_MSG(parse_number(env, &v),
                      "MEMPOOL_THREADS='" << env
                                          << "' is not a worker count (a "
                                             "whole non-negative decimal "
                                             "number; 0 = all cores)");
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = default_threads();
  try {
    for (unsigned i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop_workers();  // a failed thread start must not leave joinable threads
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_idle_.wait(lock, [&] { return pending_ == 0; });
  }
  stop_workers();
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
    queue_.push_back(std::move(task));
  }
  cv_work_.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty()) {
      if (stop_) return;
      ++park_events_;
      ++parked_;
      cv_work_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      --parked_;
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    task = nullptr;  // release captures before signaling idle
    lock.lock();
    if (error && !first_error_) first_error_ = error;
    if (--pending_ == 0) cv_idle_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [&] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace mempool::runner
