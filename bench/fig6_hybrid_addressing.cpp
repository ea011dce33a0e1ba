// Figure 6 (Section V-B): TopH with the hybrid addressing scheme. Traffic
// targets the own tile's sequential region with probability p_local; the
// figure sweeps p_local ∈ {0 %, 25 %, 50 %, 100 %}.
// Also reproduces the text claim (T3): an application with 25 % stack
// accesses gains up to 50 % throughput from the scrambling logic.
//
// The 40 (p_local, λ) points run through the parallel sweep runner.

#include <iostream>

#include "common/report.hpp"
#include "runner/bench_cli.hpp"
#include "runner/results.hpp"
#include "runner/runner.hpp"

using namespace mempool;
using namespace mempool::runner;

static int bench_main(int argc, char** argv) {
  const BenchOptions opts =
      parse_bench_options(&argc, argv, "fig6_hybrid_addressing");

  print_banner(std::cout,
               "Figure 6 — TopH with the hybrid addressing scheme, for "
               "p_local in {0, 25, 50, 100} %");

  const std::vector<double> loads = {0.05, 0.10, 0.20, 0.30, 0.38, 0.45,
                                     0.55, 0.65, 0.80, 1.00};
  const std::vector<double> plocals = {0.0, 0.25, 0.50, 1.00};

  SweepSpec spec;
  spec.base.cluster = ClusterConfig::paper("TopH", /*scrambling=*/true);
  spec.base.warmup_cycles = 1000;
  spec.base.measure_cycles = 4000;
  spec.base.drain_cycles = 2000;
  spec.p_locals = plocals;
  spec.lambdas = loads;
  opts.apply_engine(&spec.base);

  const SweepResult res = run_sweep(spec, opts.runner());
  // Point index layout (SweepSpec::expand_requests): p_local-major, λ inner.
  auto pts = [&](std::size_t p) { return &res.results[p * loads.size()]; };

  Table thr({"load", "0% local", "25% local", "50% local", "100% local"});
  Table lat({"load", "0% local", "25% local", "50% local", "100% local"});
  for (std::size_t i = 0; i < loads.size(); ++i) {
    thr.add_row({Table::num(loads[i], 2),
                 Table::num(pts(0)[i].point.accepted, 3),
                 Table::num(pts(1)[i].point.accepted, 3),
                 Table::num(pts(2)[i].point.accepted, 3),
                 Table::num(pts(3)[i].point.accepted, 3)});
    lat.add_row({Table::num(loads[i], 2),
                 Table::num(pts(0)[i].point.avg_latency, 1),
                 Table::num(pts(1)[i].point.avg_latency, 1),
                 Table::num(pts(2)[i].point.avg_latency, 1),
                 Table::num(pts(3)[i].point.avg_latency, 1)});
  }
  std::cout << "\n(a) Throughput (request/core/cycle):\n";
  thr.print(std::cout);
  std::cout << "\n(b) Average round-trip latency (cycles):\n";
  lat.print(std::cout);

  // --- Section V-B text claim -------------------------------------------------
  // Saturation throughput with 25 % local vs fully-interleaved traffic.
  auto saturation = [&](std::size_t p) {
    double sat = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      const double accepted = pts(p)[i].point.accepted;
      if (accepted >= 0.95 * loads[i]) sat = accepted;
    }
    return sat;
  };
  const double sat0 = saturation(0);
  const double sat25 = saturation(1);
  std::cout << "\nSummary vs paper (Section V-B):\n";
  Table s({"claim", "paper", "measured"});
  s.add_row({"throughput gain, 25% stack accesses",
             "up to +50%",
             "+" + Table::num(100.0 * (sat25 - sat0) / sat0, 0) + "%"});
  s.add_row({"throughput rises with p_local", "yes",
             (saturation(3) > saturation(2) && saturation(2) > saturation(1) &&
              saturation(1) > saturation(0))
                 ? "yes"
                 : "NO"});
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
  return guarded_bench_main("fig6_hybrid_addressing",
                            [&] { return bench_main(argc, argv); });
}
