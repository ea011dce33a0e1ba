// SweepSpec expansion and the runner's determinism contract: the same grid
// and seeds must produce bit-identical TrafficPoint vectors at 1, 4, and 8
// worker threads, and must equal the serial single-point reference.

#include <gtest/gtest.h>

#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "traffic/experiment.hpp"

using namespace mempool;
using namespace mempool::runner;

namespace {

/// Small but non-trivial grid on the 64-core mini cluster: 2 topologies x
/// 2 localities x 3 loads x 2 seeds = 24 points, each cheap enough for CI.
SweepSpec test_spec() {
  SweepSpec spec;
  spec.base.cluster = ClusterConfig::mini("TopH", true);
  spec.base.warmup_cycles = 100;
  spec.base.measure_cycles = 400;
  spec.base.drain_cycles = 200;
  spec.topologies = {"Top1", "TopH"};
  spec.p_locals = {0.0, 0.5};
  spec.lambdas = {0.05, 0.15, 0.30};
  spec.seeds = {1, 42};
  spec.paper_cluster = false;  // stay on the mini cluster
  return spec;
}

}  // namespace

TEST(SweepSpec, NumPointsIsTheAxisProduct) {
  EXPECT_EQ(test_spec().num_points(), 2u * 2u * 3u * 2u);

  SweepSpec empty;
  EXPECT_EQ(empty.num_points(), 1u);  // every axis defaults to the base value
  ASSERT_EQ(empty.expand_requests().size(), 1u);
}

TEST(SweepSpec, ExpandIsRowMajorWithSeedInnermost) {
  const SweepSpec spec = test_spec();
  const auto reqs = spec.expand_requests();
  ASSERT_EQ(reqs.size(), spec.num_points());

  // i = ((t * |p| + p) * |l| + l) * |s| + s
  std::size_t i = 0;
  for (const TopologySpec& topo : spec.topologies) {
    for (double pl : spec.p_locals) {
      for (double lambda : spec.lambdas) {
        for (uint64_t seed : spec.seeds) {
          const TrafficExperimentConfig& cfg = reqs[i].config;
          EXPECT_EQ(cfg.cluster.topology, topo) << "point " << i;
          EXPECT_DOUBLE_EQ(cfg.p_local_seq, pl) << "point " << i;
          EXPECT_DOUBLE_EQ(cfg.lambda, lambda) << "point " << i;
          EXPECT_EQ(cfg.seed, seed) << "point " << i;
          ++i;
        }
      }
    }
  }
}

TEST(SweepSpec, EmptyAxesInheritTheBaseConfig) {
  SweepSpec spec;
  spec.base.cluster = ClusterConfig::mini("Top4", false);
  spec.base.lambda = 0.27;
  spec.base.p_local_seq = 0.13;
  spec.base.seed = 99;
  spec.lambdas = {0.1, 0.2};

  const auto reqs = spec.expand_requests();
  ASSERT_EQ(reqs.size(), 2u);
  for (const auto& r : reqs) {
    EXPECT_EQ(r.config.cluster.topology, "Top4");
    EXPECT_DOUBLE_EQ(r.config.p_local_seq, 0.13);
    EXPECT_EQ(r.config.seed, 99u);
  }
  EXPECT_DOUBLE_EQ(reqs[0].config.lambda, 0.1);
  EXPECT_DOUBLE_EQ(reqs[1].config.lambda, 0.2);
}

TEST(SweepSpec, PaperClusterRebuildsPerTopology) {
  SweepSpec spec;
  spec.base.cluster = ClusterConfig::paper("TopH", true);
  spec.topologies = {"Top1", "TopX"};
  const auto reqs = spec.expand_requests();
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].config.cluster.topology, "Top1");
  EXPECT_TRUE(reqs[0].config.cluster.scrambling);  // inherited from base
  EXPECT_EQ(reqs[1].config.cluster.topology, "TopX");
}

TEST(SweepSpec, PointLabelNamesTheAxes) {
  const SweepSpec spec = test_spec();
  EXPECT_EQ(spec.point_label(0), "Top1 λ=0.05 p=0 seed=1");
  EXPECT_EQ(spec.point_label(spec.num_points() - 1),
            "TopH λ=0.3 p=0.5 seed=42");
}

TEST(Runner, BitIdenticalResultsAcrossThreadCounts) {
  const SweepSpec spec = test_spec();

  RunnerOptions o1;  o1.threads = 1;
  RunnerOptions o4;  o4.threads = 4;
  RunnerOptions o8;  o8.threads = 8;
  const SweepResult r1 = run_sweep(spec, o1);
  const SweepResult r4 = run_sweep(spec, o4);
  const SweepResult r8 = run_sweep(spec, o8);

  ASSERT_EQ(r1.results.size(), spec.num_points());
  ASSERT_EQ(r4.results.size(), spec.num_points());
  ASSERT_EQ(r8.results.size(), spec.num_points());
  EXPECT_EQ(r1.threads, 1u);
  EXPECT_EQ(r4.threads, 4u);
  EXPECT_EQ(r8.threads, 8u);

  for (std::size_t i = 0; i < spec.num_points(); ++i) {
    // operator== is exact (bit-wise on the doubles) — scheduling must not
    // leak into the physics.
    EXPECT_EQ(r1.results[i], r4.results[i]) << spec.point_label(i);
    EXPECT_EQ(r1.results[i], r8.results[i]) << spec.point_label(i);
  }
}

TEST(Runner, ParallelPathMatchesSerialReference) {
  const SweepSpec spec = test_spec();
  RunnerOptions opts;
  opts.threads = 4;
  const SweepResult par = run_sweep(spec, opts);

  const auto reqs = spec.expand_requests();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(par.results[i].point, run_traffic_point(reqs[i].config))
        << spec.point_label(i);
    EXPECT_EQ(par.results[i].request_key, reqs[i].key())
        << spec.point_label(i);
  }
}

TEST(Runner, SeedAxisActuallyChangesTheRealization) {
  SweepSpec spec = test_spec();
  spec.topologies = {"TopH"};
  spec.p_locals = {0.0};
  spec.lambdas = {0.15};
  spec.seeds = {1, 2};
  RunnerOptions opts;
  opts.threads = 2;
  const SweepResult r = run_sweep(spec, opts);
  ASSERT_EQ(r.results.size(), 2u);
  EXPECT_NE(r.results[0].point, r.results[1].point);
  // ... but only the realization, not the physics: rates stay close.
  EXPECT_NEAR(r.results[0].point.accepted, r.results[1].point.accepted, 0.02);
}

TEST(Runner, RunPointsPreservesInputOrder) {
  std::vector<serve::SimRequest> reqs;
  for (double l : {0.3, 0.1, 0.2}) {  // deliberately not sorted
    TrafficExperimentConfig c;
    c.cluster = ClusterConfig::mini("TopH", true);
    c.lambda = l;
    c.warmup_cycles = 50;
    c.measure_cycles = 200;
    c.drain_cycles = 100;
    reqs.push_back(serve::SimRequest::from_config(c));
  }
  RunnerOptions opts;
  opts.threads = 3;
  const SweepResult r = run_points(reqs, opts);
  ASSERT_EQ(r.results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.requests[i], reqs[i]);
    EXPECT_EQ(r.results[i].request_key, reqs[i].key());
  }
  EXPECT_DOUBLE_EQ(r.results[0].point.offered, 0.3);
  EXPECT_DOUBLE_EQ(r.results[1].point.offered, 0.1);
  EXPECT_DOUBLE_EQ(r.results[2].point.offered, 0.2);
}
