// Figure 5 (Section V-A): throughput and average round-trip latency of the
// three candidate topologies as a function of the injected load, with
// uniformly distributed bank destinations on the full 256-core cluster.
// Also reproduces the Section V-A text claims:
//   * Top1 congests at ~0.10 request/core/cycle,
//   * Top4/TopH sustain ~0.38,
//   * TopH stays below ~6 cycles at 0.33,
//   * TopH's throughput edges out Top4's.
//
// All 42 (topology, λ) points run through the parallel sweep runner; the
// result order — and with it every number printed below — is bit-identical
// for any --threads value.

#include <iostream>

#include "common/report.hpp"
#include "runner/bench_cli.hpp"
#include "runner/results.hpp"
#include "runner/runner.hpp"

using namespace mempool;
using namespace mempool::runner;

namespace {

/// Saturation load: the highest offered load still accepted within 5 %.
double saturation(const std::vector<double>& loads,
                  const serve::SimResult* pts) {
  double sat = 0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (pts[i].point.accepted >= 0.95 * loads[i]) sat = pts[i].point.accepted;
  }
  return sat;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const BenchOptions opts =
      parse_bench_options(&argc, argv, "fig5_topology_sweep",
                          /*accepts_topology=*/false, /*accepts_memory=*/true);

  print_banner(std::cout, "Figure 5 — network analysis of Top1 / Top4 / TopH "
                          "(256 generators, uniform banks)");

  const std::vector<double> loads = {0.02, 0.05, 0.08, 0.10, 0.12, 0.16, 0.20,
                                     0.25, 0.29, 0.33, 0.38, 0.42, 0.46, 0.50};

  SweepSpec spec;
  spec.base.cluster = ClusterConfig::paper("Top1", /*scrambling=*/false);
  spec.base.warmup_cycles = 1000;
  spec.base.measure_cycles = 4000;
  spec.base.drain_cycles = 2000;
  spec.topologies = {"Top1", "Top4", "TopH"};
  spec.lambdas = loads;
  if (!opts.memory.empty()) spec.base.cluster.memory = MemorySpec{opts.memory};
  opts.apply_engine(&spec.base);

  const SweepResult res = run_sweep(spec, opts.runner());
  // Point index layout (SweepSpec::expand_requests): topology-major, λ inner.
  auto pts = [&](std::size_t topo) { return &res.results[topo * loads.size()]; };

  Table thr({"load (req/core/cy)", "Top1 accepted", "Top4 accepted",
             "TopH accepted"});
  Table lat({"load (req/core/cy)", "Top1 avg lat", "Top4 avg lat",
             "TopH avg lat"});
  for (std::size_t i = 0; i < loads.size(); ++i) {
    thr.add_row({Table::num(loads[i], 2),
                 Table::num(pts(0)[i].point.accepted, 3),
                 Table::num(pts(1)[i].point.accepted, 3),
                 Table::num(pts(2)[i].point.accepted, 3)});
    lat.add_row({Table::num(loads[i], 2),
                 Table::num(pts(0)[i].point.avg_latency, 1),
                 Table::num(pts(1)[i].point.avg_latency, 1),
                 Table::num(pts(2)[i].point.avg_latency, 1)});
  }
  std::cout << "\n(a) Throughput (request/core/cycle):\n";
  thr.print(std::cout);
  std::cout << "\n(b) Average round-trip latency (cycles):\n";
  lat.print(std::cout);

  // --- Section V-A text claims ------------------------------------------------
  const double sat1 = saturation(loads, pts(0));
  const double sat4 = saturation(loads, pts(1));
  const double sath = saturation(loads, pts(2));
  double lat_h_033 = 0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (loads[i] == 0.33) lat_h_033 = pts(2)[i].point.avg_latency;
  }

  std::cout << "\nSummary vs paper (Section V-A):\n";
  Table s({"claim", "paper", "measured"});
  s.add_row({"Top1 saturation load", "~0.10", Table::num(sat1, 3)});
  s.add_row({"Top4 saturation load", "~0.38", Table::num(sat4, 3)});
  s.add_row({"TopH saturation load", "~0.38", Table::num(sath, 3)});
  s.add_row({"TopH avg latency @0.33", "~6 cycles", Table::num(lat_h_033, 2)});
  s.add_row({"TopH saturation > Top4", "yes",
             sath >= sat4 * 0.98 ? "yes" : "NO"});
  s.print(std::cout);

  Json results = Json::object();
  results.set("sweep", sweep_to_json(res));
  results.set("summary", s.to_json());
  write_bench_results(opts, res.threads, res.wall_seconds, std::move(results));
  return 0;
}

int main(int argc, char** argv) {
  // A watchdog abort (--stall-horizon) exits 3 with the stall report on
  // stderr instead of std::terminate.
  return guarded_bench_main("fig5_topology_sweep",
                            [&] { return bench_main(argc, argv); });
}
