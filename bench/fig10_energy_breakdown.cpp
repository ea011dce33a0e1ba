// Figure 10 (Section VI-D): energy-per-instruction breakdown of the TopH
// tile into core / interconnect / memory-bank shares, plus the text ratios
// (T7): local = ½ remote, local ≈ mul, add = local/2.3, remote = 4.5 add,
// remote interconnect = 2.9x local interconnect.
//
// The analytic rows restate the calibrated technology constants; the
// "measured" section runs matmul on the 256-core TopHS cluster and divides
// the *measured* energy by the *measured* instruction counts, which is the
// actual reproduction of the experiment.

#include <chrono>
#include <iostream>

#include "common/report.hpp"
#include "core/system.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "noc/fabric.hpp"
#include "power/energy_model.hpp"
#include "runner/bench_cli.hpp"
#include "runner/parallel.hpp"

using namespace mempool;

int main(int argc, char** argv) {
  const runner::BenchOptions opts =
      runner::parse_bench_options(&argc, argv, "fig10_energy_breakdown");

  print_banner(std::cout,
               "Figure 10 — energy per instruction, TopH tile (pJ)");

  const EnergyModel model;
  Table t({"instruction", "core", "interconnect", "memory banks", "total"});
  auto row = [&](const char* name, const InstrEnergy& e) {
    t.add_row({name, Table::num(e.core, 1), Table::num(e.interconnect, 1),
               Table::num(e.memory, 1), Table::num(e.total(), 1)});
  };
  row("remote load (cross-group)", model.remote_load_cross_group());
  row("remote load (same group)", model.remote_load_same_group());
  row("local load", model.local_load());
  row("mul", model.mul_op());
  row("add", model.add_op());
  t.print(std::cout);

  std::cout << "\nPaper ratios (Section VI-D):\n";
  Table r({"claim", "paper", "model"});
  const double local = model.local_load().total();
  const double remote = model.remote_load_cross_group().total();
  const double add = model.add_op().total();
  r.add_row({"local load total", "8.4 pJ", Table::num(local, 1)});
  r.add_row({"remote load total", "16.9 pJ", Table::num(remote, 1)});
  r.add_row({"local / remote energy", "0.5 ('half')",
             Table::num(local / remote, 2)});
  r.add_row({"local load / add", "2.3x", Table::num(local / add, 2)});
  r.add_row({"remote load / add", "4.5x", Table::num(remote / add, 2)});
  r.add_row({"remote IC / local IC", "2.9x",
             Table::num(model.remote_load_cross_group().interconnect /
                            model.local_load().interconnect,
                        2)});
  r.print(std::cout);

  // Every fabric plugin prices its own analytic rows on its canonical
  // configuration — the hierarchical tiers of TopH2 (cross-super-group loads
  // crossing a 3-layer die-spanning butterfly) show up here with zero edits
  // to the energy model.
  std::cout << "\nPer-topology analytic loads (registry, pJ):\n";
  Table reg({"topology", "instruction", "core", "interconnect", "memory",
             "total"});
  for (const std::string& name : FabricRegistry::names()) {
    const FabricTopology& topo = FabricRegistry::get(name);
    const ClusterConfig tcfg = ClusterConfig::paper(TopologySpec{name}, true);
    for (const auto& er : topo.energy_rows(tcfg, model.params())) {
      reg.add_row({name, er.label, Table::num(er.energy.core, 1),
                   Table::num(er.energy.interconnect, 1),
                   Table::num(er.energy.memory, 1),
                   Table::num(er.energy.total(), 1)});
    }
  }
  reg.print(std::cout);

  // --- measured cross-check on a real run -------------------------------------
  // A single simulation, but still dispatched through the runner pool so the
  // bench exercises the same execution path as the multi-point harnesses.
  std::cout << "\nMeasured cross-check (matmul on 256-core TopHS):\n";
  const ClusterConfig cfg = ClusterConfig::paper("TopH", true);
  struct Measured {
    SnitchCore::Stats cs;
    EnergyBreakdown e;
  };
  // Exactly one task — a single worker, so no idle threads sit around for
  // the duration of the simulation.
  runner::ThreadPool pool(1);
  const auto t0 = std::chrono::steady_clock::now();
  const Measured meas = runner::run_indexed(pool, 1, [&](std::size_t) {
    System sys(cfg);
    sys.configure_engine(opts.engine, opts.sim_threads);
    kernels::run_kernel(sys, kernels::build_matmul(cfg, 64), 50'000'000);
    Measured m;
    m.cs = sys.aggregate_core_stats();
    m.e = model.measure(sys.cluster(), m.cs);
    return m;
  })[0];
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const SnitchCore::Stats& cs = meas.cs;
  const EnergyBreakdown& e = meas.e;

  const double loads = static_cast<double>(cs.loads_local + cs.loads_remote +
                                           cs.stores_local + cs.stores_remote +
                                           cs.amos);
  // Interconnect + bank energy attributable per memory access.
  const double ic_per_access =
      (e.tile_interconnect + e.global_interconnect) / loads;
  const double mem_per_access = e.banks / loads;
  Table m({"quantity", "value"});
  m.add_row({"memory accesses", Table::num(loads, 0)});
  m.add_row({"remote fraction",
             Table::num(static_cast<double>(cs.loads_remote + cs.stores_remote) /
                            loads,
                        2)});
  m.add_row({"avg interconnect energy / access (pJ)",
             Table::num(ic_per_access, 2)});
  m.add_row({"avg bank energy / access (pJ)", Table::num(mem_per_access, 2)});
  m.add_row({"expected range", "4.5 (all-local) .. 13.0 (all cross-group)"});
  m.print(std::cout);

  Json results = Json::object();
  results.set("energy_per_instruction", t.to_json());
  results.set("registry_rows", reg.to_json());
  results.set("paper_ratios", r.to_json());
  results.set("measured_cross_check", m.to_json());
  runner::write_bench_results(opts, pool.num_threads(), wall,
                              std::move(results));
  return 0;
}
