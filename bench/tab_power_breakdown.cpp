// T5 (Section VI-D): power of the TopH cluster running matmul at 500 MHz,
// TT/0.80 V: tile average 20.9 mW with I$ ~39.5 %, cores ~26.6 %,
// SPM ~12.6 %, interconnect < 10 %; cluster total 1.55 W with 86 % in tiles.
//
// One simulation, dispatched through the runner pool like every other bench,
// with a machine-readable results file.

#include <chrono>
#include <iostream>

#include "common/report.hpp"
#include "core/system.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "power/energy_model.hpp"
#include "power/power_report.hpp"
#include "runner/bench_cli.hpp"
#include "runner/parallel.hpp"

using namespace mempool;

int main(int argc, char** argv) {
  const runner::BenchOptions opts =
      runner::parse_bench_options(&argc, argv, "tab_power_breakdown");

  print_banner(std::cout,
               "T5 — power breakdown, matmul on 256-core TopHS @ 500 MHz");

  const ClusterConfig cfg = ClusterConfig::paper("TopH", true);
  const EnergyModel model;

  struct Measured {
    uint64_t cycles = 0;
    EnergyBreakdown e;
  };
  // Exactly one task — a single worker, so no idle threads sit around for
  // the duration of the simulation.
  runner::ThreadPool pool(1);
  const auto t0 = std::chrono::steady_clock::now();
  const Measured meas = runner::run_indexed(pool, 1, [&](std::size_t) {
    System sys(cfg);
    sys.configure_engine(opts.engine, opts.sim_threads);
    Measured m;
    m.cycles = kernels::run_kernel(sys, kernels::build_matmul(cfg, 64),
                                   50'000'000);
    m.e = model.measure(sys.cluster(), sys.aggregate_core_stats());
    return m;
  })[0];
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  const PowerReport r = make_power_report(meas.e, meas.cycles, cfg.num_tiles,
                                          500e6);

  const double tile = r.tile_total();
  Table t({"component", "mW/tile", "share", "paper"});
  t.add_row({"instruction cache", Table::num(r.tile_icache, 1),
             Table::num(100 * r.tile_icache / tile, 1) + "%",
             "8.3 mW (39.5%)"});
  t.add_row({"Snitch cores", Table::num(r.tile_cores, 1),
             Table::num(100 * r.tile_cores / tile, 1) + "%", "5.6 mW (26.6%)"});
  t.add_row({"SPM banks", Table::num(r.tile_banks, 1),
             Table::num(100 * r.tile_banks / tile, 1) + "%", "2.6 mW (12.6%)"});
  t.add_row({"tile interconnects", Table::num(r.tile_interconnect, 1),
             Table::num(100 * r.tile_interconnect / tile, 1) + "%",
             "1.7 mW (<10%)"});
  t.add_row({"tile total", Table::num(tile, 1), "100%", "20.9 mW"});
  t.print(std::cout);

  Table c({"quantity", "measured", "paper"});
  c.add_row({"cluster power", Table::num(r.cluster_total_w, 2) + " W",
             "1.55 W"});
  c.add_row({"fraction consumed in tiles",
             Table::num(100 * r.tiles_fraction, 0) + "%", "86%"});
  c.add_row({"kernel", "matmul 64x64, verified", "matmul"});
  c.add_row({"cycles", std::to_string(meas.cycles), "-"});
  std::cout << '\n';
  c.print(std::cout);

  Json results = Json::object();
  results.set("tile_breakdown", t.to_json());
  results.set("cluster", c.to_json());
  results.set("cycles", meas.cycles);
  runner::write_bench_results(opts, pool.num_threads(), wall,
                              std::move(results));
  return 0;
}
