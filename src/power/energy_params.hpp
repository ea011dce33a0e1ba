#pragma once
// Technology calibration constants of the event-based energy model
// (Section VI-D) and the per-instruction analytic energy record, split out of
// energy_model.hpp so the fabric-topology plugin interface (noc/fabric.hpp)
// can expose per-topology analytic rows without depending on the Cluster.
//
// The per-event energies are calibration constants chosen such that the
// analytic per-instruction identities of Figure 10 hold exactly:
//
//   local  load = 1.8 (core) +  4.5 (interconnect) + 2.1 (banks) =  8.4 pJ
//   remote load = 1.8 (core) + 13.0 (interconnect) + 2.1 (banks) = 16.9 pJ
//   mul = 7.0 pJ, add = 3.7 pJ (core only)

namespace mempool {

struct EnergyParams {
  // Core-side energy per instruction class (pJ).
  double core_add = 3.7;      ///< Simple ALU op (paper's "add").
  double core_mul = 7.0;      ///< Paper's "mul".
  double core_div = 14.0;     ///< Extrapolated (not reported in the paper).
  double core_branch = 3.0;   ///< Extrapolated.
  double core_ls = 1.8;       ///< Core-side share of a load/store/AMO.
  // Memory.
  double bank_access = 2.1;   ///< One SPM bank read/write/AMO.
  // Interconnect, per switch traversal.
  double tile_xbar_hop = 2.25;  ///< Merged request / bank-response crossbar.
  double dir_xbar_hop = 0.45;   ///< Master-port and remote-response crossbar.
  double group_xbar_hop = 2.6;  ///< TopH 16×16 intra-group crossbar.
  double bfly_layer_hop = 1.9;  ///< One butterfly layer.
  // Instruction cache.
  double icache_hit = 4.6;    ///< Tag + data access of the 4-way 2 KiB I$.
  double icache_miss = 60.0;  ///< Refill line fill + AXI transfer.
};

/// Analytic energy of one instruction (a Figure-10 row).
struct InstrEnergy {
  double core = 0;
  double interconnect = 0;
  double memory = 0;
  double total() const { return core + interconnect + memory; }
};

}  // namespace mempool
