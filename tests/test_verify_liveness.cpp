// Liveness layer: static CDG rules D7-D9 on malformed mini-fabrics (each
// passes the structural rules D1-D6 and violates exactly one liveness rule),
// the engine's deterministic progress watchdog (fires at exactly the
// configured horizon, identically under active / dense / sharded), the
// mempool.liveness.v1 report schema, and the SimService path where a wedged
// point answers ok=false with the stall attribution instead of hanging.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/service.hpp"
#include "sim/component.hpp"
#include "sim/elastic_buffer.hpp"
#include "sim/engine.hpp"
#include "verify/drc.hpp"
#include "verify/liveness.hpp"

namespace mempool {
namespace {

std::vector<std::string> rules(const verify::DrcReport& report) {
  std::vector<std::string> out;
  out.reserve(report.violations.size());
  for (const verify::DrcViolation& v : report.violations) out.push_back(v.rule);
  return out;
}

// ---------------------------------------------------------------------------
// Fixture A — protocol-free deadlock: two stages moving items around a ring
// of two bounded registered buffers. Statically the CDG is the 2-cycle
// bufA -> bufB -> bufA with no capacity break (D7); dynamically, once both
// buffers are full neither stage can move and the watchdog must fire.
// ---------------------------------------------------------------------------

class LoopStage final : public Component {
 public:
  LoopStage(const std::string& name, ElasticBuffer<int>* in,
            ElasticBuffer<int>* out)
      : Component(name), in_(in), out_(out) {}
  void evaluate(uint64_t /*cycle*/) override {
    if (!in_->empty() && out_->can_accept()) out_->push(in_->pop());
  }
  bool idle() const override { return in_->empty(); }
  void describe(GraphVisitor& v) const override {
    v.reads(in_, "in");
    v.writes_buffer(out_, "out");
  }

 private:
  ElasticBuffer<int>* in_;
  ElasticBuffer<int>* out_;
};

struct RingFixture {
  ElasticBuffer<int> buf_a{BufferMode::kRegistered, 2};
  ElasticBuffer<int> buf_b{BufferMode::kRegistered, 2};
  LoopStage a{"A", &buf_a, &buf_b};
  LoopStage b{"B", &buf_b, &buf_a};

  void wire(Engine* e) {
    buf_a.set_consumer(&a, "A");
    buf_b.set_consumer(&b, "B");
    e->add_component(&a);
    e->add_component(&b);
    e->add_clocked(&buf_a);
    e->add_clocked(&buf_b);
  }

  /// Fill both buffers to capacity (registered buffers stage one item per
  /// cycle, so two fill rounds). After this the ring is wedged: each stage
  /// sees a non-empty input and a full output, forever.
  void wedge(Engine* e) {
    for (int round = 0; round < 2; ++round) {
      buf_a.push(round);
      buf_b.push(round);
      e->step();
    }
    ASSERT_FALSE(buf_a.can_accept());
    ASSERT_FALSE(buf_b.can_accept());
  }
};

TEST(LivenessRules, D7CapacityUnbrokenCycle) {
  Engine e;
  RingFixture f;
  f.wire(&e);
  const verify::DrcReport report = verify::run_drc(e, 1);
  ASSERT_EQ(rules(report), std::vector<std::string>{"D7"}) << report.summary();
  // The violation names the full cycle with capacities, not just one buffer.
  const std::string& edge = report.violations[0].edge;
  EXPECT_NE(edge.find("A.in"), std::string::npos) << edge;
  EXPECT_NE(edge.find("B.in"), std::string::npos) << edge;
  EXPECT_NE(edge.find("cap 2"), std::string::npos) << edge;
}

TEST(LivenessRules, D7CdgExtractionMatchesTheWiring) {
  Engine e;
  RingFixture f;
  f.wire(&e);
  const verify::Cdg cdg = verify::extract_cdg(e);
  ASSERT_EQ(cdg.buffers.size(), 2u);
  ASSERT_EQ(cdg.edges.size(), 2u);
  for (const verify::CdgEdge& edge : cdg.edges) {
    EXPECT_TRUE(edge.blocking);  // capacity 2 targets: both edges can wedge
    EXPECT_NE(edge.from, edge.to);
    EXPECT_EQ(cdg.capacity[edge.to], 2u);
  }
}

TEST(LivenessRules, D7BrokenByUnconditionalSink) {
  // Same ring, but stage B declares it drains its input unconditionally
  // (an ideal-bridge-style guarantee): the B.in -> A.in dependency edge
  // disappears and the cycle with it.
  class SinkingStage final : public Component {
   public:
    SinkingStage(const std::string& name, ElasticBuffer<int>* in,
                 ElasticBuffer<int>* out)
        : Component(name), in_(in), out_(out) {}
    void evaluate(uint64_t /*cycle*/) override {
      while (!in_->empty()) out_->push(in_->pop());  // out_ is unbounded
    }
    bool idle() const override { return in_->empty(); }
    void describe(GraphVisitor& v) const override {
      v.reads(in_, "in");
      v.writes_buffer(out_, "out");
      v.sinks_unconditionally(in_, "in");
    }

   private:
    ElasticBuffer<int>* in_;
    ElasticBuffer<int>* out_;
  };

  Engine e;
  ElasticBuffer<int> buf_a(BufferMode::kRegistered, 2);
  ElasticBuffer<int> buf_b(BufferMode::kRegistered, 0);  // unbounded
  LoopStage a("A", &buf_a, &buf_b);
  SinkingStage b("B", &buf_b, &buf_a);
  buf_a.set_consumer(&a, "A");
  buf_b.set_consumer(&b, "B");
  e.add_component(&a);
  e.add_component(&b);
  e.add_clocked(&buf_a);
  e.add_clocked(&buf_b);
  const verify::DrcReport report = verify::run_drc(e, 1);
  EXPECT_TRUE(report.clean()) << report.summary();
}

// ---------------------------------------------------------------------------
// Fixture B — starvation: a fixed-priority arbiter whose low-priority input
// sits on a cyclic path. The high-priority generator never pauses, so the
// loop traffic parked in `lo` is never granted (D8 statically, a stalled
// `lo` dynamically).
// ---------------------------------------------------------------------------

class PriorityArb : public Component {
 public:
  PriorityArb(const std::string& name, ElasticBuffer<int>* hi,
              ElasticBuffer<int>* lo, ElasticBuffer<int>* out)
      : Component(name), hi_(hi), lo_(lo), out_(out) {}
  void evaluate(uint64_t /*cycle*/) override {
    if (!out_->can_accept()) return;
    if (!hi_->empty()) {
      out_->push(hi_->pop());  // strict priority: hi wins whenever present
    } else if (!lo_->empty()) {
      out_->push(lo_->pop());
    }
  }
  bool idle() const override { return hi_->empty() && lo_->empty(); }
  void describe(GraphVisitor& v) const override {
    v.arbitration(ArbiterFairness::kFixedPriority);
    v.reads(hi_, "hi");
    v.reads(lo_, "lo");
    v.writes_buffer(out_, "out");
  }

 private:
  ElasticBuffer<int>* hi_;
  ElasticBuffer<int>* lo_;
  ElasticBuffer<int>* out_;
};

class Feeder final : public Component {
 public:
  Feeder(const std::string& name, ElasticBuffer<int>* out)
      : Component(name), out_(out) {}
  void evaluate(uint64_t cycle) override {
    if (out_->can_accept()) out_->push(static_cast<int>(cycle));
    wake();  // stay hot: one packet per cycle forever
  }
  bool idle() const override { return false; }
  void describe(GraphVisitor& v) const override {
    v.self_ticking();
    v.writes_buffer(out_, "out");
  }

 private:
  ElasticBuffer<int>* out_;
};

struct StarvationFixture {
  ElasticBuffer<int> hi{BufferMode::kCombinational, 2};
  ElasticBuffer<int> lo{BufferMode::kRegistered, 0};  // unbounded: D7-clean
  ElasticBuffer<int> out{BufferMode::kCombinational, 2};
  Feeder gen{"GEN", &hi};
  std::unique_ptr<PriorityArb> arb =
      std::make_unique<PriorityArb>("ARB", &hi, &lo, &out);
  LoopStage loop{"LOOP", &out, &lo};

  void wire(Engine* e) {
    hi.set_consumer(arb.get(), "ARB");
    lo.set_consumer(arb.get(), "ARB");
    out.set_consumer(&loop, "LOOP");
    e->add_component(&gen);
    e->add_component(arb.get());
    e->add_component(&loop);
    e->add_clocked(&lo);
  }
};

TEST(LivenessRules, D8FixedPriorityInputOnCycle) {
  Engine e;
  StarvationFixture f;
  f.wire(&e);
  const verify::DrcReport report = verify::run_drc(e, 1);
  ASSERT_EQ(rules(report), std::vector<std::string>{"D8"}) << report.summary();
  EXPECT_EQ(report.violations[0].component, "ARB");
  // The starved buffer (the arbiter's cyclic low-priority input) is named.
  EXPECT_NE(report.violations[0].edge.find("ARB.lo"), std::string::npos)
      << report.violations[0].edge;
}

TEST(LivenessRules, D8CleanWhenRoundRobin) {
  class FairArb final : public PriorityArb {
    // Same wiring; only the declared policy differs. (The DRC judges the
    // declaration, not the evaluate body — that is the point of D8.)
   public:
    using PriorityArb::PriorityArb;
    void describe(GraphVisitor& v) const override {
      PriorityArb::describe(v);
      v.arbitration(ArbiterFairness::kRoundRobin);  // later call wins
    }
  };
  Engine e;
  StarvationFixture f;
  f.arb = std::make_unique<FairArb>("ARB", &f.hi, &f.lo, &f.out);
  f.wire(&e);
  const verify::DrcReport report = verify::run_drc(e, 1);
  EXPECT_TRUE(report.clean()) << report.summary();
}

// ---------------------------------------------------------------------------
// Fixture C — protocol sharing: a memory's response path feeds (through a
// forwarder) back into the very request buffer the response depends on.
// The blocking cycle is broken by an unbounded buffer, so D7 stays silent —
// only the request/response coupling rule D9 sees the hazard.
// ---------------------------------------------------------------------------

class CouplingMem final : public Component {
 public:
  CouplingMem(const std::string& name, ElasticBuffer<int>* req,
              ElasticBuffer<int>* resp)
      : Component(name), req_(req), resp_(resp) {}
  void evaluate(uint64_t /*cycle*/) override {
    if (!req_->empty() && resp_->can_accept()) resp_->push(req_->pop());
  }
  bool idle() const override { return req_->empty(); }
  void describe(GraphVisitor& v) const override {
    v.reads(req_, "req");
    v.writes_buffer(resp_, "resp");
    v.couples_buffer(req_, resp_, "mem");
  }

 private:
  ElasticBuffer<int>* req_;
  ElasticBuffer<int>* resp_;
};

TEST(LivenessRules, D9ResponsePathSharesRequestBuffer) {
  Engine e;
  ElasticBuffer<int> req(BufferMode::kRegistered, 2);
  ElasticBuffer<int> resp(BufferMode::kCombinational, 2);
  ElasticBuffer<int> stage(BufferMode::kCombinational, 0);  // breaks D7
  CouplingMem mem("MEM", &req, &resp);
  LoopStage fwd("FWD", &resp, &stage);
  LoopStage rs("RS", &stage, &req);
  req.set_consumer(&mem, "MEM");
  resp.set_consumer(&fwd, "FWD");
  stage.set_consumer(&rs, "RS");
  e.add_component(&mem);
  e.add_component(&fwd);
  e.add_component(&rs);
  e.add_clocked(&req);
  const verify::DrcReport report = verify::run_drc(e, 1);
  ASSERT_EQ(rules(report), std::vector<std::string>{"D9"}) << report.summary();
  EXPECT_EQ(report.violations[0].component, "MEM");
  // The shared buffer (the request channel the response path re-enters) is
  // named in the detail.
  EXPECT_NE(report.violations[0].detail.find("MEM.req"), std::string::npos)
      << report.violations[0].detail;
}

TEST(LivenessRules, D9CleanWhenResponseNetworkIsDisjoint) {
  Engine e;
  ElasticBuffer<int> req(BufferMode::kRegistered, 2);
  ElasticBuffer<int> resp(BufferMode::kCombinational, 2);
  ElasticBuffer<int> done(BufferMode::kRegistered, 0);
  CouplingMem mem("MEM", &req, &resp);
  LoopStage fwd("FWD", &resp, &done);  // responses leave through their own net
  Feeder gen("GEN", &req);
  req.set_consumer(&mem, "MEM");
  resp.set_consumer(&fwd, "FWD");
  done.set_consumer(&fwd, "FWD");  // self-consumed tail: no further deps
  e.add_component(&gen);
  e.add_component(&mem);
  e.add_component(&fwd);
  e.add_clocked(&req);
  e.add_clocked(&done);
  const verify::DrcReport report = verify::run_drc(e, 1);
  EXPECT_TRUE(report.clean()) << report.summary();
}

// ---------------------------------------------------------------------------
// The progress watchdog: deterministic, exact-horizon, engine-mode agnostic.
// ---------------------------------------------------------------------------

enum class Mode { kActive, kDense, kSharded };

void configure(Engine* e, Mode m) {
  if (m == Mode::kDense) e->set_dense(true);
  if (m == Mode::kSharded) e->set_sharded(1, 1);
}

class WatchdogFires : public ::testing::TestWithParam<Mode> {};

TEST_P(WatchdogFires, AtExactlyTheConfiguredHorizon) {
  Engine e;
  RingFixture f;
  f.wire(&e);
  configure(&e, GetParam());
  f.wedge(&e);

  constexpr uint64_t kHorizon = 16;
  const uint64_t armed_at = e.cycle();
  e.set_stall_horizon(kHorizon);
  try {
    e.run(10 * kHorizon);
    FAIL() << "wedged ring must trip the watchdog";
  } catch (const LivenessError& err) {
    // Deterministic contract: a buffer wedged for the whole window aborts at
    // exactly arm + horizon, in every engine mode.
    EXPECT_EQ(e.cycle(), armed_at + kHorizon);
    const std::string what = err.what();
    EXPECT_NE(what.find("A.in"), std::string::npos) << what;
    const Json& r = err.report();
    EXPECT_EQ(r.at("schema").as_string(), "mempool.liveness.v1");
    EXPECT_EQ(r.at("cycle").as_uint(), armed_at + kHorizon);
    EXPECT_EQ(r.at("horizon").as_uint(), kHorizon);
    ASSERT_EQ(r.at("stalled").size(), 2u);  // both ring buffers are wedged
    const Json& first = r.at("stalled").items()[0];
    EXPECT_EQ(first.at("buffer").as_string(), "A.in");
    EXPECT_EQ(first.at("consumer").as_string(), "A");
    EXPECT_EQ(first.at("occupancy").as_uint(), 2u);
    EXPECT_EQ(first.at("capacity").as_uint(), 2u);
    EXPECT_GE(first.at("stalled_for").as_uint(), kHorizon);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, WatchdogFires,
                         ::testing::Values(Mode::kActive, Mode::kDense,
                                           Mode::kSharded),
                         [](const ::testing::TestParamInfo<Mode>& pinfo) {
                           switch (pinfo.param) {
                             case Mode::kActive: return "Active";
                             case Mode::kDense: return "Dense";
                             default: return "Sharded";
                           }
                         });

TEST(Watchdog, ReportRoundTripsThroughJson) {
  Engine e;
  RingFixture f;
  f.wire(&e);
  f.wedge(&e);
  e.set_stall_horizon(8);
  try {
    e.run(100);
    FAIL() << "wedged ring must trip the watchdog";
  } catch (const LivenessError& err) {
    const Json& r = err.report();
    const Json back = Json::parse(r.dump(0));
    EXPECT_EQ(back.dump(0), r.dump(0));
    // Golden field set, so downstream consumers can rely on the schema.
    for (const char* key : {"schema", "cycle", "horizon", "engine",
                            "num_shards", "pending_buffers", "stalled",
                            "stalled_shards"}) {
      EXPECT_TRUE(back.contains(key)) << key;
    }
    EXPECT_EQ(back.at("engine").as_string(), "active");
    for (const Json& s : back.at("stalled").items()) {
      for (const char* key : {"buffer", "consumer", "shard", "occupancy",
                              "capacity", "stalled_for", "head"}) {
        EXPECT_TRUE(s.contains(key)) << key;
      }
    }
  }
}

TEST(Watchdog, StarvedBufferIsAttributed) {
  // Fixture B wedges differently: traffic keeps flowing (hi and out drain
  // every cycle) while `lo` alone starves — the watchdog must attribute the
  // stall to the starved buffer, not to the busy ones.
  Engine e;
  StarvationFixture f;
  f.wire(&e);
  e.set_stall_horizon(32);
  try {
    e.run(10'000);
    FAIL() << "starved low-priority input must trip the watchdog";
  } catch (const LivenessError& err) {
    const Json& r = err.report();
    ASSERT_GE(r.at("stalled").size(), 1u);
    EXPECT_EQ(r.at("stalled").items()[0].at("buffer").as_string(), "ARB.lo");
  }
}

TEST(Watchdog, HealthyTrafficNeverTrips) {
  // A continuously draining chain with a tight horizon: every probe sees
  // fresh drains, so the run completes. (False positives would make the
  // watchdog useless in sweeps.)
  Engine e;
  ElasticBuffer<int> pipe(BufferMode::kCombinational, 2);
  ElasticBuffer<int> done(BufferMode::kCombinational, 0);
  Feeder gen("GEN", &pipe);
  LoopStage sink("SINK", &pipe, &done);
  class Drain final : public Component {
   public:
    Drain(const std::string& name, ElasticBuffer<int>* in)
        : Component(name), in_(in) {}
    void evaluate(uint64_t /*cycle*/) override {
      while (!in_->empty()) in_->pop();
    }
    bool idle() const override { return in_->empty(); }
    void describe(GraphVisitor& v) const override { v.reads(in_, "in"); }

   private:
    ElasticBuffer<int>* in_;
  } drain("DRAIN", &done);
  pipe.set_consumer(&sink, "SINK");
  done.set_consumer(&drain, "DRAIN");
  e.add_component(&gen);
  e.add_component(&sink);
  e.add_component(&drain);
  e.set_stall_horizon(4);
  EXPECT_NO_THROW(e.run(1'000));
  EXPECT_EQ(e.cycle(), 1'000u);
}

TEST(Watchdog, QuiescentModelNeverTrips) {
  // Empty buffers are not pending work: an armed watchdog over an idle model
  // must let run() fast-forward to the target without firing.
  Engine e;
  RingFixture f;
  f.wire(&e);
  e.set_stall_horizon(8);
  EXPECT_NO_THROW(e.run(10'000));
  EXPECT_EQ(e.cycle(), 10'000u);
}

TEST(Watchdog, DisarmedByZeroHorizon) {
  Engine e;
  RingFixture f;
  f.wire(&e);
  f.wedge(&e);
  e.set_stall_horizon(8);
  e.set_stall_horizon(0);  // re-arm then disarm: 0 must fully disable
  EXPECT_NO_THROW(e.run(1'000));
}

// ---------------------------------------------------------------------------
// Service integration: a wedged point answers ok=false with the liveness
// report; the service survives and keeps answering healthy points.
// ---------------------------------------------------------------------------

serve::SimRequest service_request(double lambda, uint64_t stall_horizon) {
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::mini(TopologySpec{"TopH"}, true);
  cfg.lambda = lambda;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 100;
  cfg.seed = 7;
  cfg.stall_horizon = stall_horizon;
  return serve::SimRequest::from_config(cfg);
}

TEST(ServiceLiveness, WedgedPointAnswersStructuredLivenessError) {
  serve::ServiceConfig cfg;
  cfg.threads = 1;
  serve::SimService service(cfg);

  // A stall horizon of 1 declares "every non-empty buffer must drain every
  // cycle" — false under any arbitration conflict, so a loaded point trips
  // deterministically. That is the supported way to fake a wedge without
  // building a broken topology into the registry.
  const serve::ServiceResponse wedged = service.run(service_request(0.9, 1));
  ASSERT_FALSE(wedged.ok);
  ASSERT_FALSE(wedged.liveness.is_null()) << wedged.error;
  EXPECT_EQ(wedged.liveness.at("schema").as_string(), "mempool.liveness.v1");
  EXPECT_EQ(wedged.liveness.at("horizon").as_uint(), 1u);
  EXPECT_GE(wedged.liveness.at("stalled").size(), 1u);
  EXPECT_NE(wedged.error.find("no progress"), std::string::npos)
      << wedged.error;

  // The daemon-side contract: errors are responses, not deaths — the same
  // service immediately computes a healthy point.
  const serve::ServiceResponse healthy = service.run(service_request(0.05, 0));
  EXPECT_TRUE(healthy.ok) << healthy.error;
  EXPECT_TRUE(healthy.liveness.is_null());
}

TEST(ServiceLiveness, StallHorizonIsPartOfTheCacheKey) {
  // Same point, different horizons: must be distinct cache entries (a cached
  // ok result must never answer a request that would have aborted).
  const serve::SimRequest with = service_request(0.05, 100'000);
  const serve::SimRequest without = service_request(0.05, 0);
  EXPECT_NE(with.key(), without.key());
  EXPECT_NE(with.canonical(), without.canonical());
}

}  // namespace
}  // namespace mempool
