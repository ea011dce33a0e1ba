// The three paper benchmarks (Section V-C), verified bit-exactly against the
// golden models, across topologies and scrambling settings.

#include <gtest/gtest.h>

#include <tuple>

#include "helpers.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/dct.hpp"
#include "kernels/golden.hpp"
#include "kernels/matmul.hpp"
#include "kernels/runtime.hpp"

namespace mempool {
namespace {

using kernels::KernelProgram;

uint64_t run_on(const ClusterConfig& cfg, const KernelProgram& kp) {
  System sys(cfg);
  return kernels::run_kernel(sys, kp, 10'000'000);
}

using TopoScramble = std::tuple<test::PaperFabric, bool>;

std::string topo_scramble_name(
    const ::testing::TestParamInfo<TopoScramble>& info) {
  std::string n = std::get<0>(info.param).name();
  if (std::get<1>(info.param)) n += "S";
  return n;
}

class KernelMatrix : public ::testing::TestWithParam<TopoScramble> {};

TEST_P(KernelMatrix, MatmulVerifies) {
  const auto [topo, scramble] = GetParam();
  const ClusterConfig cfg = ClusterConfig::mini(topo.name(), scramble);
  EXPECT_GT(run_on(cfg, kernels::build_matmul(cfg, 16)), 0u);
}

TEST_P(KernelMatrix, Conv2dVerifies) {
  const auto [topo, scramble] = GetParam();
  const ClusterConfig cfg = ClusterConfig::mini(topo.name(), scramble);
  EXPECT_GT(run_on(cfg, kernels::build_conv2d(cfg, 64)), 0u);
}

TEST_P(KernelMatrix, DctVerifies) {
  const auto [topo, scramble] = GetParam();
  const ClusterConfig cfg = ClusterConfig::mini(topo.name(), scramble);
  EXPECT_GT(run_on(cfg, kernels::build_dct(cfg)), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, KernelMatrix,
    ::testing::Combine(::testing::Values(test::paper_fabric("TopX"),
                                         test::paper_fabric("TopH"),
                                         test::paper_fabric("Top4"),
                                         test::paper_fabric("Top1")),
                       ::testing::Bool()),
    topo_scramble_name);

TEST(KernelTiled, DoubleBufferedVerifiesOnL2) {
  // Working set in L2, streamed through SPM double buffers by the DMA.
  ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  cfg.memory = MemorySpec{"tcdm+l2"};
  cfg.validate();
  kernels::TiledMatmulParams p;
  p.m = 64;
  p.n = 64;
  p.k = 32;
  p.rb = 32;
  p.cb = 32;
  p.double_buffer = true;
  EXPECT_GT(run_on(cfg, kernels::build_matmul_tiled(cfg, p)), 0u);
}

TEST(KernelTiled, SerializedVariantVerifiesAndIsSlower) {
  ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  cfg.memory = MemorySpec{"tcdm+l2"};
  cfg.validate();
  kernels::TiledMatmulParams p;
  p.m = 64;
  p.n = 64;
  p.k = 32;
  p.rb = 32;
  p.cb = 32;
  p.double_buffer = true;
  const uint64_t db = run_on(cfg, kernels::build_matmul_tiled(cfg, p));
  p.double_buffer = false;
  const uint64_t serial = run_on(cfg, kernels::build_matmul_tiled(cfg, p));
  EXPECT_GT(db, 0u);
  // Serialized DMA exposes every transfer; double buffering must win.
  EXPECT_LT(db, serial);
}

TEST(KernelTiled, RejectsDmalessMemorySystem) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  EXPECT_THROW(kernels::build_matmul_tiled(cfg, kernels::TiledMatmulParams{}),
               CheckError);
}

TEST(KernelOrdering, ScrambledDctBeatsUnscrambled) {
  // The paper's headline claim for dct: with the scrambling logic all
  // accesses are local; without it the stacks/blocks spread over all tiles.
  const ClusterConfig on = ClusterConfig::mini("TopH", true);
  const ClusterConfig off = ClusterConfig::mini("TopH", false);
  const uint64_t cy_on = run_on(on, kernels::build_dct(on));
  const uint64_t cy_off = run_on(off, kernels::build_dct(off));
  EXPECT_LT(cy_on, cy_off);
}

TEST(KernelOrdering, TopologyOrderOnMatmul) {
  // matmul is remote-dominated: TopX <= TopH <= Top1, Top4 <= Top1.
  uint64_t cycles[4];
  const char* const topos[] = {"TopX", "TopH", "Top4", "Top1"};
  for (int i = 0; i < 4; ++i) {
    const ClusterConfig cfg = ClusterConfig::mini(topos[i], true);
    cycles[i] = run_on(cfg, kernels::build_matmul(cfg, 16));
  }
  EXPECT_LE(cycles[0], cycles[1]);  // TopX <= TopH
  EXPECT_LE(cycles[1], cycles[3]);  // TopH <= Top1
  EXPECT_LE(cycles[2], cycles[3]);  // Top4 <= Top1
}

TEST(KernelGolden, MatmulHandExample) {
  // 2x2 check of the golden model itself.
  const std::vector<uint32_t> a = {1, 2, 3, 4};
  const std::vector<uint32_t> b = {5, 6, 7, 8};
  const auto c = kernels::golden_matmul(a, b, 2);
  EXPECT_EQ(c, (std::vector<uint32_t>{19, 22, 43, 50}));
}

TEST(KernelGolden, Conv2dHandExample) {
  // 3x3 image, identity kernel (centre weight 1).
  const int32_t w[9] = {0, 0, 0, 0, 1, 0, 0, 0, 0};
  std::vector<uint32_t> img(9);
  for (int i = 0; i < 9; ++i) img[i] = i + 1;
  const auto out = kernels::golden_conv2d(img, 3, 3, w);
  EXPECT_EQ(out[4], 5u);  // centre pixel preserved
  EXPECT_EQ(out[0], 0u);  // border untouched
}

TEST(KernelGolden, DctCoefficientsOrthogonal) {
  // C · Cᵀ ≈ I in Q14: diagonal ≈ 2^14, off-diagonal ≈ 0.
  const auto c = kernels::dct_coefficients_q14();
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      int64_t dot = 0;
      for (int k = 0; k < 8; ++k) {
        dot += static_cast<int64_t>(c[i * 8 + k]) * c[j * 8 + k];
      }
      const double val = static_cast<double>(dot) / (1 << 14);
      if (i == j) {
        EXPECT_NEAR(val, 1 << 14, 40) << i;
      } else {
        EXPECT_NEAR(val, 0, 40) << i << "," << j;
      }
    }
  }
}

TEST(KernelGolden, DctConstantBlockHasOnlyDc) {
  const auto coeffs = kernels::dct_coefficients_q14();
  std::vector<uint32_t> block(64, 100);
  const auto y = kernels::golden_dct8x8(block, coeffs);
  // DC = 8 * 100 (within fixed-point truncation); all AC terms ~ 0.
  EXPECT_NEAR(static_cast<int32_t>(y[0]), 800, 8);
  for (int i = 1; i < 64; ++i) {
    EXPECT_LE(std::abs(static_cast<int32_t>(y[i])), 2) << i;
  }
}

TEST(KernelBuild, RejectsIndivisibleWork) {
  ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  EXPECT_THROW(kernels::build_matmul(cfg, 4), CheckError);  // 16 outputs, 64 cores
}

TEST(KernelRuntime, LayoutPlacesBarrierInSameBank) {
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  const auto layout = kernels::make_runtime_layout(cfg);
  const MemoryLayout mem(cfg);
  const BankLocation count = mem.locate(layout.barrier_count);
  const BankLocation gen = mem.locate(layout.barrier_gen);
  EXPECT_EQ(count.tile, gen.tile);
  EXPECT_EQ(count.bank, gen.bank);
  EXPECT_NE(count.row, gen.row);
}

}  // namespace
}  // namespace mempool
