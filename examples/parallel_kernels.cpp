// Run the paper's three signal-processing kernels on the full 256-core
// cluster, verify results bit-exactly against the golden models, and print a
// per-kernel performance/energy summary — the "real workload" view of the
// system.
//
//   $ ./parallel_kernels [topology] [noscramble]
//
// The topology is any registered fabric plugin — TopH2 runs the kernels on
// all 1024 cores.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/report.hpp"
#include "core/system.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/dct.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "noc/fabric.hpp"
#include "power/energy_model.hpp"

using namespace mempool;

int main(int argc, char** argv) {
  TopologySpec topo = "TopH";
  bool scramble = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "noscramble") == 0) {
      scramble = false;
    } else if (FabricRegistry::find(argv[i]) != nullptr) {
      topo = TopologySpec{argv[i]};
    } else {
      std::fprintf(stderr, "unknown topology '%s'; available: %s\n", argv[i],
                   FabricRegistry::available().c_str());
      return 2;
    }
  }
  const ClusterConfig cfg = ClusterConfig::paper(topo, scramble);
  print_banner(std::cout,
               "kernels on " + cfg.display_name() + " (" +
                   std::to_string(cfg.num_cores()) + " cores, " +
                   std::to_string(cfg.spm_bytes() / (1024 * 1024)) +
                   " MiB shared L1)");

  const EnergyModel energy;
  Table t({"kernel", "cycles", "IPC/core", "local accesses", "remote",
           "energy/instr (pJ)", "verified"});

  struct Item {
    const char* name;
    kernels::KernelProgram kp;
  };
  Item items[] = {
      {"matmul 64x64", kernels::build_matmul(cfg, 64)},
      {"2dconv 64x256", kernels::build_conv2d(cfg, 256)},
      {"dct 256 blocks", kernels::build_dct(cfg)},
  };

  for (auto& item : items) {
    System sys(cfg);
    const uint64_t cycles = kernels::run_kernel(sys, item.kp, 100'000'000);
    const SnitchCore::Stats s = sys.aggregate_core_stats();
    const EnergyBreakdown e = energy.measure(sys.cluster(), s);
    const uint64_t local = s.loads_local + s.stores_local;
    const uint64_t remote = s.loads_remote + s.stores_remote;
    t.add_row({item.name, std::to_string(cycles),
               Table::num(static_cast<double>(s.instret) /
                              static_cast<double>(s.cycles),
                          2),
               std::to_string(local), std::to_string(remote),
               Table::num(e.total() / static_cast<double>(s.instret), 1),
               "yes"});
    std::cerr << "  " << item.name << " done\n";
  }
  t.print(std::cout);
  std::cout << "\nTip: compare `./parallel_kernels TopH` against "
               "`./parallel_kernels TopH noscramble` to see the hybrid "
               "addressing scheme at work (Section IV).\n";
  return 0;
}
