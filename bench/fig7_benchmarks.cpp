// Figure 7 (Section V-C): runtime of the three signal-processing benchmarks
// on every topology, with (Top◇S) and without (Top◇) the scrambling logic,
// relative to the ideal full-crossbar baselines (TopX / TopXS).
// Also reproduces the text claims (T4):
//   * TopH reaches at least ~80 % of the ideal baseline,
//   * Top1 is up to ~3x worse than TopH/Top4 in the extreme cases,
//   * the scrambling logic gains up to ~20 % on real kernels,
//   * with dct(+S) all topologies match the baseline.
//
// The 24 (kernel, topology, scrambling) simulations are independent — each
// owns its System — and run through the thread pool.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>

#include "common/report.hpp"
#include "core/system.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/dct.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "runner/bench_cli.hpp"
#include "runner/parallel.hpp"

using namespace mempool;
using namespace mempool::runner;

namespace {

uint64_t run_one(const std::string& topo, bool scramble,
                 const std::string& kernel, EngineMode engine,
                 unsigned sim_threads) {
  const ClusterConfig cfg = ClusterConfig::paper(topo, scramble);
  System sys(cfg);
  sys.configure_engine(engine, sim_threads);
  kernels::KernelProgram kp;
  if (kernel == "matmul") {
    kp = kernels::build_matmul(cfg, 64);
  } else if (kernel == "2dconv") {
    kp = kernels::build_conv2d(cfg, 256);
  } else {
    kp = kernels::build_dct(cfg);
  }
  const uint64_t cycles = kernels::run_kernel(sys, kp, 50'000'000);
  std::fprintf(stderr, "  %-6s %-6s: %8llu cycles\n",
               cfg.display_name().c_str(), kernel.c_str(),
               static_cast<unsigned long long>(cycles));
  return cycles;
}

struct Case {
  std::string kernel;
  std::string topo;
  bool scramble;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(&argc, argv, "fig7_benchmarks");

  print_banner(std::cout,
               "Figure 7 — benchmark performance relative to the ideal "
               "full-crossbar baseline (256 cores, results verified)");

  const std::vector<std::string> kernels = {"matmul", "2dconv", "dct"};
  const std::vector<std::string> topos = {"Top1", "Top4", "TopH", "TopX"};

  std::vector<Case> cases;
  for (const auto& k : kernels)
    for (const auto& t : topos)
      for (bool s : {false, true}) cases.push_back({k, t, s});

  ThreadPool pool(opts.threads);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<uint64_t> measured = run_indexed(
      pool, cases.size(), [&](std::size_t i) {
        return run_one(cases[i].topo, cases[i].scramble, cases[i].kernel,
                       opts.engine, opts.sim_threads);
      });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  // cycles[kernel][display_name]
  std::map<std::string, std::map<std::string, uint64_t>> cycles;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ClusterConfig cfg =
        ClusterConfig::paper(cases[i].topo, cases[i].scramble);
    cycles[cases[i].kernel][cfg.display_name()] = measured[i];
  }

  // Relative performance = baseline_cycles / cycles (higher is better);
  // Top◇ is normalized to TopX, Top◇S to TopXS, as in the paper.
  Table rel({"benchmark", "Top1", "Top4", "TopH", "TopX", "Top1S", "Top4S",
             "TopHS", "TopXS"});
  for (const auto& k : kernels) {
    auto& c = cycles[k];
    auto r = [&](const std::string& name, const std::string& base) {
      return Table::num(static_cast<double>(c[base]) / static_cast<double>(c[name]), 2);
    };
    rel.add_row({k, r("Top1", "TopX"), r("Top4", "TopX"), r("TopH", "TopX"),
                 "1.00", r("Top1S", "TopXS"), r("Top4S", "TopXS"),
                 r("TopHS", "TopXS"), "1.00"});
  }
  std::cout << "\nRelative performance (baseline cycles / cycles):\n";
  rel.print(std::cout);

  Table raw({"benchmark", "Top1", "Top4", "TopH", "TopX", "Top1S", "Top4S",
             "TopHS", "TopXS"});
  for (const auto& k : kernels) {
    auto& c = cycles[k];
    raw.add_row({k, std::to_string(c["Top1"]), std::to_string(c["Top4"]),
                 std::to_string(c["TopH"]), std::to_string(c["TopX"]),
                 std::to_string(c["Top1S"]), std::to_string(c["Top4S"]),
                 std::to_string(c["TopHS"]), std::to_string(c["TopXS"])});
  }
  std::cout << "\nRaw cycle counts:\n";
  raw.print(std::cout);

  // --- Section V-C text claims -------------------------------------------------
  std::cout << "\nSummary vs paper (Section V-C):\n";
  Table s({"claim", "paper", "measured"});
  double worst_toph = 1e9;
  for (const auto& k : kernels) {
    worst_toph = std::min(
        worst_toph,
        static_cast<double>(cycles[k]["TopXS"]) /
        static_cast<double>(cycles[k]["TopHS"]));
  }
  s.add_row({"TopHS vs ideal baseline (worst kernel = matmul)", ">= ~0.80",
             Table::num(worst_toph, 2)});
  // "TopH generally beats Top4": count kernels where TopHS <= Top4S cycles.
  int toph_wins = 0;
  for (const auto& k : kernels) {
    if (cycles[k]["TopHS"] <= cycles[k]["Top4S"]) ++toph_wins;
  }
  s.add_row({"TopH beats Top4 (kernels won, scrambled)", "generally",
             std::to_string(toph_wins) + "/3"});
  // "they both outperform Top1 by a factor of three in the extreme cases".
  double top1_factor = 0;
  for (const auto& k : kernels) {
    top1_factor = std::max(
        top1_factor,
        static_cast<double>(cycles[k]["Top1S"]) /
            static_cast<double>(cycles[k]["TopHS"]));
    top1_factor = std::max(
        top1_factor,
        static_cast<double>(cycles[k]["Top1"]) /
            static_cast<double>(cycles[k]["TopH"]));
  }
  s.add_row({"Top1 vs TopH/Top4, extreme case", "~3x slower",
             Table::num(top1_factor, 2) + "x"});
  const double dct_match =
      static_cast<double>(cycles["dct"]["TopXS"]) /
      static_cast<double>(cycles["dct"]["TopHS"]);
  s.add_row({"dct+S matches baseline on every topology", "~1.00",
             Table::num(dct_match, 2)});
  // "Without the scrambling logic ... significant performance penalty,
  // especially for Top1" (dct).
  const double dct_noscramble_penalty =
      static_cast<double>(cycles["dct"]["Top1"]) /
      static_cast<double>(cycles["dct"]["Top1S"]);
  s.add_row({"dct penalty without scrambling on Top1", "large",
             Table::num(dct_noscramble_penalty, 1) + "x"});
  s.print(std::cout);

  Json cj = Json::object();
  for (const auto& k : kernels) {
    Json per_topo = Json::object();
    for (const auto& [name, cyc] : cycles[k]) per_topo.set(name, cyc);
    cj.set(k, std::move(per_topo));
  }
  Json results = Json::object();
  results.set("cycles", std::move(cj));
  results.set("summary", s.to_json());
  write_bench_results(opts, pool.num_threads(), wall, std::move(results));
  return 0;
}
