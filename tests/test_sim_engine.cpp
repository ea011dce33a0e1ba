// Activity-driven scheduler unit tests: wake/sleep mechanics, staged
// commits, quiescence fast-forward, and dense-mode equivalence on toy
// component graphs (cluster-level equivalence lives in
// test_sim_equivalence.cpp).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/elastic_buffer.hpp"
#include "sim/engine.hpp"

namespace mempool {
namespace {

using IntBuffer = ElasticBuffer<int>;

/// Emits `count` integers starting at cycle `start`, one per cycle.
class BurstProducer final : public Component {
 public:
  BurstProducer(std::string name, IntBuffer* out, int count, uint64_t start)
      : Component(std::move(name)), out_(out), count_(count), start_(start) {}

  void evaluate(uint64_t cycle) override {
    ++evaluations;
    if (cycle >= start_ && sent_ < count_ && out_->can_accept()) {
      out_->push(sent_++);
    }
  }
  bool idle() const override { return sent_ == count_; }

  uint64_t evaluations = 0;

 private:
  IntBuffer* out_;
  int count_;
  uint64_t start_;
  int sent_ = 0;
};

/// Pops at most one item per cycle, recording (cycle, value).
class CountingConsumer final : public Component {
 public:
  CountingConsumer(std::string name, IntBuffer* in)
      : Component(std::move(name)), in_(in) {}

  void evaluate(uint64_t cycle) override {
    ++evaluations;
    if (!in_->empty()) received.emplace_back(cycle, in_->pop());
  }
  bool idle() const override { return in_->empty(); }

  std::vector<std::pair<uint64_t, int>> received;
  uint64_t evaluations = 0;

 private:
  IntBuffer* in_;
};

struct Rig {
  explicit Rig(BufferMode mode, int count = 3, uint64_t start = 0)
      : buf(mode, /*capacity=*/4),
        prod("prod", &buf, count, start),
        cons("cons", &buf) {
    buf.set_consumer(&cons);
    engine.add_component(&prod);
    engine.add_component(&cons);
    engine.add_clocked(&buf);
  }

  Engine engine;
  IntBuffer buf;
  BurstProducer prod;
  CountingConsumer cons;
};

TEST(Engine, CombinationalPushWakesConsumerSameCycle) {
  Rig rig(BufferMode::kCombinational);
  rig.engine.run(5);
  ASSERT_EQ(rig.cons.received.size(), 3u);
  // Topological order producer -> consumer: a combinational push is consumed
  // within the producing cycle.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.cons.received[i],
              (std::pair<uint64_t, int>{static_cast<uint64_t>(i), i}));
  }
}

TEST(Engine, RegisteredPushWakesConsumerAfterCommit) {
  Rig rig(BufferMode::kRegistered);
  rig.engine.run(6);
  ASSERT_EQ(rig.cons.received.size(), 3u);
  // One register boundary: each item arrives the cycle after its push.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.cons.received[i],
              (std::pair<uint64_t, int>{static_cast<uint64_t>(i) + 1, i}));
  }
}

TEST(Engine, IdleComponentsAreSkipped) {
  Rig rig(BufferMode::kRegistered, /*count=*/2, /*start=*/0);
  rig.engine.run(100);
  // Producer: initial evaluation every cycle until done (cycles 0,1), one
  // more to report idle is not needed — it reports idle the cycle it sends
  // the last item. Consumer: woken once per committed item.
  EXPECT_EQ(rig.prod.evaluations, 2u);
  EXPECT_LE(rig.cons.evaluations, 4u);
  EXPECT_LT(rig.engine.evaluations(), 10u)
      << "active set must not evaluate sleeping components";
  EXPECT_EQ(rig.cons.received.size(), 2u);
}

TEST(Engine, QuiescenceFastForwardsRun) {
  Rig rig(BufferMode::kRegistered, /*count=*/3, /*start=*/0);
  rig.engine.run(1'000'000);
  EXPECT_EQ(rig.engine.cycle(), 1'000'000u) << "run() must land on target";
  EXPECT_GT(rig.engine.idle_cycles_skipped(), 999'000u);
  EXPECT_EQ(rig.cons.received.size(), 3u);
}

TEST(Engine, WakeAfterQuiescence) {
  // A producer that starts late: the engine must not fast-forward past its
  // start cycle, because the producer never reports idle before finishing.
  Rig rig(BufferMode::kRegistered, /*count=*/1, /*start=*/50);
  rig.engine.run(60);
  ASSERT_EQ(rig.cons.received.size(), 1u);
  EXPECT_EQ(rig.cons.received[0].first, 51u);
}

/// Arms a timed wake for a fixed cycle, emits one item there, then is done.
class TimedProducer final : public Component {
 public:
  TimedProducer(std::string name, Engine* engine, IntBuffer* out, uint64_t at)
      : Component(std::move(name)), engine_(engine), out_(out), at_(at) {}

  void evaluate(uint64_t cycle) override {
    ++evaluations;
    if (!armed_) {
      armed_ = true;
      engine_->wake_at(at_, this);
    }
    if (cycle == at_ && out_->can_accept()) {
      out_->push(42);
      done_ = true;
    }
  }
  // Not idle until the wake condition is registered (cf. the traffic
  // generator's arrivals_init_ guard) — idle() promises "no-op unless woken",
  // which only holds once the timer is armed.
  bool idle() const override {
    return done_ || (armed_ && engine_->cycle() != at_);
  }

  uint64_t evaluations = 0;

 private:
  Engine* engine_;
  IntBuffer* out_;
  uint64_t at_;
  bool armed_ = false;
  bool done_ = false;
};

TEST(Engine, TimedWakeFiresAtTheArmedCycle) {
  Engine engine;
  IntBuffer buf(BufferMode::kCombinational, 2);
  TimedProducer prod("timed", &engine, &buf, 5000);
  CountingConsumer cons("cons", &buf);
  buf.set_consumer(&cons);
  engine.add_component(&prod);
  engine.add_component(&cons);
  engine.add_clocked(&buf);
  engine.run(6000);
  ASSERT_EQ(cons.received.size(), 1u);
  EXPECT_EQ(cons.received[0], (std::pair<uint64_t, int>{5000, 42}));
  // The producer slept through the 5000 dead cycles (one arming evaluation,
  // one timed one), and run() fast-forwarded them.
  EXPECT_LE(prod.evaluations, 3u);
  EXPECT_GT(engine.idle_cycles_skipped(), 4000u);
}

TEST(Engine, DenseModeMatchesActive) {
  Rig active(BufferMode::kRegistered, /*count=*/4, /*start=*/2);
  Rig dense(BufferMode::kRegistered, /*count=*/4, /*start=*/2);
  dense.engine.set_dense(true);
  active.engine.run(200);
  dense.engine.run(200);
  EXPECT_EQ(active.cons.received, dense.cons.received);
  EXPECT_EQ(active.engine.cycle(), dense.engine.cycle());
  // Dense evaluates everything every cycle; active does strictly less work.
  EXPECT_EQ(dense.engine.evaluations(), 2u * 200u);
  EXPECT_LT(active.engine.evaluations(), 30u);
}

/// A registered push made before the first step (an external poke) is
/// handed to the buffer's home lane when the engine binds it at the first
/// step, and latched at that cycle's commit under every mode.
class EngineStaging : public ::testing::TestWithParam<EngineMode> {};

TEST_P(EngineStaging, PushBeforeTheFirstStepLatchesAtTheFirstCommit) {
  Engine engine;
  IntBuffer buf(BufferMode::kRegistered, /*capacity=*/2);
  CountingConsumer cons("cons", &buf);
  buf.set_consumer(&cons);
  buf.mark_shard_boundary(/*consumer_shard=*/1);
  engine.add_component(&cons, /*shard=*/1);
  engine.add_clocked(&buf, /*shard=*/1);
  if (GetParam() == EngineMode::kDense) engine.set_dense(true);
  if (GetParam() == EngineMode::kSharded) engine.set_sharded(2, 1);

  buf.push(7);
  engine.step();
  EXPECT_FALSE(buf.empty()) << "the first commit latches the staged item";
  EXPECT_EQ(engine.commits(), 1u);
  EXPECT_TRUE(cons.received.empty()) << "not visible during cycle 0";
  engine.step();
  EXPECT_EQ(cons.received,
            (std::vector<std::pair<uint64_t, int>>{{1, 7}}));
}

INSTANTIATE_TEST_SUITE_P(AllModes, EngineStaging,
                         ::testing::Values(EngineMode::kActive,
                                           EngineMode::kDense,
                                           EngineMode::kSharded),
                         [](const auto& tpinfo) {
                           return std::string(engine_mode_name(tpinfo.param));
                         });

TEST(Engine, InlineShardedProfileChargesNoBarrier) {
  // On one sim thread the sharded engine steps its lanes one after another
  // on the calling thread: nobody waits at a barrier, so the profile charges
  // the lanes' busy time to the work phases and nothing to "barrier".
  Engine engine;
  IntBuffer buf(BufferMode::kRegistered, /*capacity=*/4);
  BurstProducer prod("prod", &buf, 200, 0);
  CountingConsumer cons("cons", &buf);
  buf.set_consumer(&cons);
  buf.mark_shard_boundary(/*consumer_shard=*/1);
  engine.add_component(&prod, /*shard=*/0);
  engine.add_component(&cons, /*shard=*/1);
  engine.add_clocked(&buf, /*shard=*/1);
  engine.set_sharded(2, 1);
  engine.set_profile(true);
  engine.run(300);
  ASSERT_EQ(cons.received.size(), 200u);
  EXPECT_EQ(engine.parallel_cycles(), 0u);
  const Engine::PhaseProfile& p = engine.phase_profile();
  EXPECT_GT(p.cycles, 200u);
  EXPECT_GT(p.evaluate_ns, 0u);
  EXPECT_EQ(p.barrier_ns, 0u);
}

TEST(Engine, BackpressuredProducerStaysAwake) {
  // Tiny buffer, consumer that starts late: the producer must keep retrying
  // (it is non-idle while it still has items to send) and nothing is lost.
  Engine engine;
  IntBuffer buf(BufferMode::kRegistered, /*capacity=*/1);
  BurstProducer prod("prod", &buf, 5, 0);
  CountingConsumer cons("cons", &buf);
  buf.set_consumer(&cons);
  engine.add_component(&prod);
  engine.add_component(&cons);
  engine.add_clocked(&buf);
  engine.run(50);
  ASSERT_EQ(cons.received.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(cons.received[i].second, i);
}

TEST(Engine, CommitPhaseOnlyTouchesDirtyBuffers) {
  Engine engine;
  IntBuffer hot(BufferMode::kRegistered, 4);
  IntBuffer cold(BufferMode::kRegistered, 4);
  BurstProducer prod("prod", &hot, 3, 0);
  CountingConsumer cons("cons", &hot);
  hot.set_consumer(&cons);
  engine.add_component(&prod);
  engine.add_component(&cons);
  engine.add_clocked(&hot);
  engine.add_clocked(&cold);  // never pushed, must never be committed
  engine.run(10);
  EXPECT_EQ(engine.commits(), 3u) << "one commit per staged push, cold buffer "
                                     "never swept";
}

}  // namespace
}  // namespace mempool
