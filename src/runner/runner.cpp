#include "runner/runner.hpp"

#include <chrono>
#include <cstdio>

#include "runner/parallel.hpp"
#include "runner/thread_pool.hpp"

namespace mempool::runner {

SweepResult run_points(std::vector<serve::SimRequest> requests,
                       const RunnerOptions& opts) {
  SweepResult result;
  result.requests = std::move(requests);

  ThreadPool pool(opts.threads);
  result.threads = pool.num_threads();

  const auto t0 = std::chrono::steady_clock::now();
  result.results = run_indexed(
      pool, result.requests.size(),
      [&](std::size_t i) { return serve::run_point(result.requests[i]); },
      opts.progress ? std::function<void(std::size_t)>([](std::size_t) {
        std::fputc('.', stderr);
        std::fflush(stderr);
      })
                    : nullptr);
  const auto t1 = std::chrono::steady_clock::now();
  if (opts.progress) std::fputc('\n', stderr);

  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

SweepResult run_sweep(const SweepSpec& spec, const RunnerOptions& opts) {
  return run_points(spec.expand_requests(), opts);
}

}  // namespace mempool::runner
