// Thread pool: execution, FIFO order, nested submission, and — most
// importantly — clean draining under exceptions: a throwing task must not
// kill a worker, wedge wait_idle(), or stop the remaining tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <latch>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "runner/parallel.hpp"
#include "runner/shard_gang.hpp"
#include "runner/thread_pool.hpp"

using namespace mempool::runner;

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i)
    pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, RunsQueuedTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::latch started(1);
  std::latch release(1);
  pool.submit([&] {
    started.count_down();
    release.wait();
  });
  started.wait();  // the only worker is busy, so 1..5 queue up behind it
  std::vector<int> order;  // touched by that one worker only
  for (int i = 1; i <= 5; ++i) pool.submit([&order, i] { order.push_back(i); });
  release.count_down();
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ThreadPool, NestedSubmissionFromWorkerThreads) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      for (int j = 0; j < 4; ++j)
        pool.submit([&] { count.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, WaitIdleWithNothingSubmittedReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, DrainsCleanlyUnderExceptions) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&, i] {
      executed.fetch_add(1);
      if (i % 7 == 0) throw std::runtime_error("task failed");
    });
  }
  // wait_idle drains everything first, then reports the first failure.
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(executed.load(), 50);

  // The pool must remain fully usable after an exception round.
  std::atomic<int> second{0};
  for (int i = 0; i < 20; ++i) pool.submit([&] { second.fetch_add(1); });
  pool.wait_idle();  // no stale exception resurfaces
  EXPECT_EQ(second.load(), 20);
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 40; ++i) pool.submit([&] { executed.fetch_add(1); });
    // No wait_idle: the destructor must finish the queue before joining.
  }
  EXPECT_EQ(executed.load(), 40);
}

TEST(ThreadPool, DefaultThreadsReadsAWholeCountFromTheEnvironment) {
  std::optional<std::string> saved;
  if (const char* env = std::getenv("MEMPOOL_THREADS")) saved = env;
  setenv("MEMPOOL_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  for (const char* bad : {"4abc", "-1", "", "4294967296"}) {
    setenv("MEMPOOL_THREADS", bad, 1);
    try {
      (void)ThreadPool::default_threads();
      ADD_FAILURE() << "MEMPOOL_THREADS='" << bad << "' was accepted";
    } catch (const mempool::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("MEMPOOL_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
  if (saved) {
    setenv("MEMPOOL_THREADS", saved->c_str(), 1);
  } else {
    unsetenv("MEMPOOL_THREADS");
  }
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, RethrowsLowestFailingIndexAfterFullDrain) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  try {
    parallel_for(pool, 32, [&](std::size_t i) {
      executed.fetch_add(1);
      if (i == 21 || i == 5 || i == 30)
        throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 5");  // deterministic: lowest index wins
  }
  EXPECT_EQ(executed.load(), 32);  // non-throwing items all ran
}

TEST(RunIndexed, CollectsResultsInIndexOrder) {
  ThreadPool pool(8);
  const std::vector<int> out =
      run_indexed(pool, 100, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(RunIndexed, ReportsCompletionCallbackPerItem) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  std::mutex mu;
  std::set<std::size_t> seen;
  run_indexed(
      pool, 25, [](std::size_t i) { return i; },
      [&](std::size_t i) {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(i);
        done.fetch_add(1);
      });
  EXPECT_EQ(done.load(), 25);
  EXPECT_EQ(seen.size(), 25u);
}

// --- idle behavior: park when there is nothing to do ------------------------

namespace {

/// Wait up to ~2 s for @p pred to become true (idle-transition tests: the
/// gang's spin budget is microseconds, so this is generous, not racy).
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

}  // namespace

TEST(ThreadPoolIdle, WorkersParkAfterBoundedSpin) {
  // An idle pool must not burn its cores: once the queue drains, every
  // worker parks on the condition variable, and a later submit wakes them
  // back up.
  ThreadPool pool(4);
  for (int i = 0; i < 16; ++i) pool.submit([] {});
  pool.wait_idle();
  EXPECT_TRUE(eventually([&] { return pool.parked_workers() == 4u; }))
      << "parked " << pool.parked_workers() << " of 4 workers";
  EXPECT_GE(pool.park_events(), 4u);

  // Parked workers still pick up new work promptly.
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 8);
}

// --- ShardGang: the sharded engine's cycle barrier --------------------------

TEST(ShardGang, RunsEveryShardExactlyOncePerRound) {
  ShardGang gang(/*sim_threads=*/4, /*num_shards=*/16);
  EXPECT_EQ(gang.threads(), 4u);
  std::vector<std::atomic<int>> hits(16);
  for (int round = 0; round < 1000; ++round) {
    gang.run(16, [&](std::size_t s) {
      hits[s].fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 1000);
}

TEST(ShardGang, BarrierPublishesAllEffectsToTheLeader) {
  // run() is a full barrier: plain (non-atomic) per-shard writes must be
  // visible to the leader afterwards — exactly what the engine relies on for
  // its lanes. TSan runs this too.
  ShardGang gang(/*sim_threads=*/4, /*num_shards=*/8);
  std::vector<uint64_t> lane(8, 0);
  for (int round = 0; round < 2000; ++round) {
    gang.run(8, [&](std::size_t s) { lane[s] += s + 1; });
  }
  for (std::size_t s = 0; s < 8; ++s) EXPECT_EQ(lane[s], 2000u * (s + 1));
}

TEST(ShardGang, WorksWithoutAnyHelpers) {
  // Degenerate but important: one sim thread means no helpers, and the
  // leader owns and runs every shard itself — same results, no deadlock.
  ShardGang gang(/*sim_threads=*/1, /*num_shards=*/8);
  EXPECT_EQ(gang.threads(), 1u);
  int sum = 0;
  gang.run(5, [&](std::size_t s) { sum += static_cast<int>(s); });
  EXPECT_EQ(sum, 10);
}

TEST(ShardGang, HelpersParkWhenTheGangIsIdle) {
  // Satellite contract: a gang stepping a mostly-idle cluster (rounds far
  // apart) must not spin its helpers forever — bounded spin, then park.
  ShardGang gang(/*sim_threads=*/8, /*num_shards=*/4);  // capped at 3 helpers
  EXPECT_EQ(gang.threads(), 4u);
  gang.run(4, [](std::size_t) {});
  EXPECT_TRUE(eventually([&] { return gang.parked_helpers() == 3u; }))
      << "parked " << gang.parked_helpers() << " of 3 helpers";
  EXPECT_GE(gang.park_events(), 3u);
  // And they come back for the next round.
  std::atomic<int> hits{0};
  gang.run(4, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

namespace {

/// Ends the process with a message when tick() has not been called for a
/// few seconds: a hung gang round then fails its test quickly instead of at
/// the ctest timeout (the hung leader can be neither unblocked nor joined).
class StallWatchdog {
 public:
  explicit StallWatchdog(const char* what)
      : thread_([this, what] { watch(what); }) {}
  ~StallWatchdog() {
    stop_.store(true);
    thread_.join();
  }
  void tick() { ticks_.fetch_add(1, std::memory_order_relaxed); }

 private:
  void watch(const char* what) {
    uint64_t last = 0;
    auto since = std::chrono::steady_clock::now();
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const uint64_t now = ticks_.load(std::memory_order_relaxed);
      if (now != last) {
        last = now;
        since = std::chrono::steady_clock::now();
      } else if (std::chrono::steady_clock::now() - since >
                 std::chrono::seconds(5)) {
        std::fprintf(stderr, "FAILED: %s: no progress for 5 s after %llu\n",
                     what, static_cast<unsigned long long>(now));
        std::_Exit(EXIT_FAILURE);
      }
    }
  }

  std::atomic<uint64_t> ticks_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Busy-waits (sleep_for overshoots by tens of microseconds) for @p d.
void spin_for(std::chrono::nanoseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Runs one round of @p fn over @p n shards in which shard 0 — always the
/// leader's — first waits until every shard a helper owns has started.
/// Held there, the leader can take over none of them: each shard runs on
/// its owner, and a helper that sleeps through the round hangs it.
void run_owned_round(ShardGang& gang, std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  const unsigned t = gang.threads();
  const std::size_t helper_shards = n - (n + t - 1) / t;
  std::atomic<std::size_t> started{0};
  gang.run(n, [&](std::size_t s) {
    if (s % t != 0) {
      started.fetch_add(1);
    } else if (s == 0) {
      while (started.load() < helper_shards) std::this_thread::yield();
    }
    fn(s);
  });
}

}  // namespace

TEST(ShardGang, EachShardRunsOnTheSameThreadEveryRound) {
  // Ownership: participant p runs the shards s ≡ p (mod threads), the leader
  // (the calling thread) being participant 0, so while every helper keeps
  // up a shard's working set never migrates between host cores. Seven
  // shards over four threads also covers the uneven split.
  constexpr std::size_t kShards = 7;
  ShardGang gang(/*sim_threads=*/4, /*num_shards=*/kShards);
  ASSERT_EQ(gang.threads(), 4u);
  StallWatchdog watchdog("ShardGang.EachShardRunsOnTheSameThreadEveryRound");
  std::vector<std::thread::id> first(kShards);
  std::vector<int> moved(kShards, 0);
  for (int round = 0; round < 1000; ++round) {
    run_owned_round(gang, kShards, [&](std::size_t s) {
      const std::thread::id me = std::this_thread::get_id();
      if (round == 0) first[s] = me;
      if (me != first[s]) ++moved[s];
    });
    watchdog.tick();
  }
  EXPECT_EQ(first[0], std::this_thread::get_id());
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(moved[s], 0) << "shard " << s << " changed threads";
    for (std::size_t t = 0; t < kShards; ++t) {
      EXPECT_EQ(first[s] == first[t], s % 4 == t % 4)
          << "shards " << s << " and " << t;
    }
  }
}

TEST(ShardGang, LeaderTakesOverShardsTheirOwnerHasNotStarted) {
  // A helper that is busy, parked or descheduled must not hold the round
  // up: once the leader has run its own shards it runs every shard nobody
  // has started. Here the helper (owner of shards 1 and 3) is stuck in
  // shard 1 until shard 3 has run, so only the leader can run shard 3.
  ShardGang gang(/*sim_threads=*/2, /*num_shards=*/4);
  StallWatchdog watchdog(
      "ShardGang.LeaderTakesOverShardsTheirOwnerHasNotStarted");
  std::vector<int> runs(4, 0);
  for (int round = 0; round < 100; ++round) {
    std::atomic<bool> third_ran{false};
    gang.run(4, [&](std::size_t s) {
      while (s == 1 && !third_ran.load()) std::this_thread::yield();
      ++runs[s];
      if (s == 3) third_ran.store(true);
    });
    watchdog.tick();
  }
  for (int r : runs) EXPECT_EQ(r, 100);
}

TEST(ShardGang, NoHelperSleepsThroughARound) {
  // A helper that parks just as the leader publishes a round must still
  // wake for it. The leader would cover for a sleeping helper by taking
  // over its shards, so every round here holds the leader in its first
  // shard until each helper has started (run_owned_round): a lost wake-up
  // hangs the round. The gap between rounds hovers at the edge where
  // helpers begin to park (their spin budget, whatever it is on this host
  // and build): shorter after a round whose helpers parked, longer after
  // one whose helpers did not, so they keep parking right around each
  // publish.
  constexpr std::size_t kShards = 4;
  constexpr int kRounds = 20000;
  ShardGang gang(/*sim_threads=*/4, /*num_shards=*/kShards);
  StallWatchdog watchdog("ShardGang.NoHelperSleepsThroughARound");
  std::vector<uint64_t> lane(kShards, 0);
  std::mt19937_64 rng(26);
  std::uniform_int_distribution<int64_t> jitter_ns(-1000, 1000);
  int64_t gap_ns = 0;
  uint64_t parked_rounds = 0;
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t parks = gang.park_events();
    spin_for(std::chrono::nanoseconds(
        std::max<int64_t>(0, gap_ns + jitter_ns(rng))));
    run_owned_round(gang, kShards, [&](std::size_t s) { ++lane[s]; });
    watchdog.tick();
    const bool parked = gang.park_events() != parks;
    parked_rounds += parked;
    gap_ns += parked ? -250 : 250;
  }
  for (uint64_t n : lane) EXPECT_EQ(n, uint64_t{kRounds});
  EXPECT_GT(parked_rounds, uint64_t{kRounds} / 10)
      << "helpers rarely parked; the gap ended at " << gap_ns << " ns";
}

TEST(ShardGang, PropagatesTheFirstThrownError) {
  ShardGang gang(/*sim_threads=*/3, /*num_shards=*/6);
  EXPECT_THROW(gang.run(6,
                        [&](std::size_t s) {
                          if (s == 3) throw std::runtime_error("shard 3");
                        }),
               std::runtime_error);
  // The gang survives an exception and keeps serving rounds.
  std::atomic<int> hits{0};
  gang.run(6, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 6);
}
