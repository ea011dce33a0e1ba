// Energy model: the Figure-10 identities must hold exactly, and measured
// runs must produce consistent aggregates.

#include <gtest/gtest.h>

#include "kernels/dct.hpp"
#include "kernels/matmul.hpp"
#include "power/energy_model.hpp"
#include "power/power_report.hpp"

namespace mempool {
namespace {

TEST(EnergyModel, Figure10LocalLoad) {
  const EnergyModel m;
  const InstrEnergy e = m.local_load();
  EXPECT_NEAR(e.core, 1.8, 1e-9);
  EXPECT_NEAR(e.interconnect, 4.5, 1e-9);
  EXPECT_NEAR(e.memory, 2.1, 1e-9);
  EXPECT_NEAR(e.total(), 8.4, 1e-9);
}

TEST(EnergyModel, Figure10RemoteLoad) {
  const EnergyModel m;
  const InstrEnergy e = m.remote_load_cross_group();
  EXPECT_NEAR(e.interconnect, 13.0, 1e-9);
  EXPECT_NEAR(e.total(), 16.9, 1e-9);
}

TEST(EnergyModel, PaperRatios) {
  const EnergyModel m;
  // "local memory requests consume only half of the energy required to
  // access remote banks"
  EXPECT_NEAR(m.local_load().total() / m.remote_load_cross_group().total(),
              0.5, 0.01);
  // "a local load uses about as much energy as ... mul"
  EXPECT_NEAR(m.local_load().total() / m.mul_op().total(), 1.2, 0.25);
  // "or 2.3x the energy consumed by a simple add"
  EXPECT_NEAR(m.local_load().total() / m.add_op().total(), 2.3, 0.05);
  // "remote loads ... only 4.5x the energy of an add"
  EXPECT_NEAR(m.remote_load_cross_group().total() / m.add_op().total(), 4.5,
              0.1);
  // "the interconnects consume 13.0 pJ, or 2.9x the energy consumed at the
  // interconnects for a local load"
  EXPECT_NEAR(m.remote_load_cross_group().interconnect /
                  m.local_load().interconnect,
              2.9, 0.05);
}

TEST(EnergyModel, SameGroupLoadBetweenLocalAndCrossGroup) {
  const EnergyModel m;
  EXPECT_GT(m.remote_load_same_group().total(), m.local_load().total());
  EXPECT_LT(m.remote_load_same_group().total(),
            m.remote_load_cross_group().total());
}

TEST(EnergyModel, MeasuredRunIsConsistent) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  System sys(cfg);
  kernels::run_kernel(sys, kernels::build_matmul(cfg, 16), 5'000'000);
  const EnergyModel m;
  const EnergyBreakdown e =
      m.measure(sys.cluster(), sys.aggregate_core_stats());
  EXPECT_GT(e.cores, 0.0);
  EXPECT_GT(e.icache, 0.0);
  EXPECT_GT(e.banks, 0.0);
  EXPECT_GT(e.tile_interconnect, 0.0);
  EXPECT_GT(e.global_interconnect, 0.0) << "matmul is remote-dominated";
  EXPECT_NEAR(e.total(), e.cores + e.icache + e.banks + e.tile_interconnect +
                             e.global_interconnect,
              1e-6);
}

TEST(EnergyModel, LocalKernelAvoidsGlobalInterconnectEnergy) {
  // dct with scrambling keeps its accesses in the tile (note: its *tile*
  // interconnect share is legitimately higher than matmul's, because dct
  // issues far more memory operations per instruction) — the discriminator
  // is the global interconnect: matmul crosses it constantly, dct almost
  // never.
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  const EnergyModel m;
  System s1(cfg);
  kernels::run_kernel(s1, kernels::build_matmul(cfg, 16), 5'000'000);
  const EnergyBreakdown em = m.measure(s1.cluster(), s1.aggregate_core_stats());
  System s2(cfg);
  kernels::run_kernel(s2, kernels::build_dct(cfg), 5'000'000);
  const EnergyBreakdown ed = m.measure(s2.cluster(), s2.aggregate_core_stats());
  EXPECT_LT(ed.global_interconnect / ed.total(),
            em.global_interconnect / em.total());
  EXPECT_LT(ed.global_interconnect / ed.total(), 0.01)
      << "dct with scrambling barely touches the global interconnect";
  // Per memory access, dct (local) pays less interconnect energy than
  // matmul (remote-dominated): the Figure-10 'half the energy' effect.
  auto per_access = [](const EnergyBreakdown& e, const SnitchCore::Stats& s) {
    const double acc = static_cast<double>(s.loads_local + s.loads_remote +
                                           s.stores_local + s.stores_remote +
                                           s.amos);
    return (e.tile_interconnect + e.global_interconnect) / acc;
  };
  EXPECT_LT(per_access(ed, s2.aggregate_core_stats()),
            per_access(em, s1.aggregate_core_stats()));
}

TEST(PowerReport, ConversionArithmetic) {
  EnergyBreakdown e;
  e.cores = 1e6;  // pJ over the run
  e.icache = 2e6;
  e.banks = 5e5;
  e.tile_interconnect = 2.5e5;
  e.global_interconnect = 1e5;
  StaticPowerParams sp;
  sp.icache_per_tile = 0;
  sp.cores_per_tile = 0;
  sp.banks_per_tile = 0;
  sp.interconnect_per_tile = 0;
  sp.cluster_top = 0;
  // 1000 cycles at 1 GHz = 1 µs; 1e6 pJ / 1 µs = 1 W = 1000 mW over 4 tiles.
  const PowerReport r = make_power_report(e, 1000, 4, 1e9, sp);
  EXPECT_NEAR(r.tile_cores, 250.0, 1e-6);
  EXPECT_NEAR(r.tile_icache, 500.0, 1e-6);
  EXPECT_GT(r.tiles_fraction, 0.9);
}

TEST(PowerReport, StaticFloorIncluded) {
  EnergyBreakdown e;  // zero dynamic energy
  const PowerReport r = make_power_report(e, 1000, 64, 5e8);
  const StaticPowerParams sp;
  EXPECT_NEAR(r.tile_icache, sp.icache_per_tile, 1e-9);
  EXPECT_NEAR(r.cluster_total_w,
              (r.tile_total() * 64 + sp.cluster_top) * 1e-3, 1e-9);
}

}  // namespace
}  // namespace mempool
