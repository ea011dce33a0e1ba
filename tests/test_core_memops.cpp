// Memory-operation semantics through the full core + fabric stack.

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace mempool {
namespace {

uint32_t exec0(const TopologySpec& topo, const std::string& body) {
  const ClusterConfig cfg = ClusterConfig::mini(topo, true);
  auto sys = test::run_text(cfg, test::only_core0(body));
  return sys->core(0).exit_code();
}

std::string exit_with(const std::string& reg) {
  return "li t6, 0xC0000000\n sw " + reg + ", 0(t6)\n";
}

class MemOpsAllTopologies
    : public ::testing::TestWithParam<test::PaperFabric> {};

TEST_P(MemOpsAllTopologies, StoreLoadRoundTrip) {
  EXPECT_EQ(exec0(GetParam().name(), R"(
    li a1, 0x20000
    li a2, 0xBEEF
    sw a2, 0(a1)
    lw a3, 0(a1)
  )" + exit_with("a3")), 0xBEEFu);
}

TEST_P(MemOpsAllTopologies, SubwordLoadsSignAndZeroExtend) {
  EXPECT_EQ(exec0(GetParam().name(), R"(
    li a1, 0x20000
    li a2, 0x80
    sb a2, 1(a1)
    lb a3, 1(a1)       # sign-extended -128
    lbu a4, 1(a1)      # zero-extended 128
    add a5, a3, a4     # -128 + 128 = 0
  )" + exit_with("a5")), 0u);
  EXPECT_EQ(exec0(GetParam().name(), R"(
    li a1, 0x20000
    li a2, 0x8000
    sh a2, 2(a1)
    lh a3, 2(a1)
    lhu a4, 2(a1)
    add a5, a3, a4
  )" + exit_with("a5")), 0u);
}

TEST_P(MemOpsAllTopologies, SubwordStoresMergeIntoWord) {
  const ClusterConfig cfg = ClusterConfig::mini(GetParam().name(), true);
  auto sys = test::run_text(cfg, test::only_core0(R"(
    li a1, 0x20000
    li a2, 0x11223344
    sw a2, 0(a1)
    li a3, 0xAA
    sb a3, 0(a1)
    li a4, 0xBBCC
    sh a4, 2(a1)
    li a0, 0
    ecall
  )"));
  EXPECT_EQ(sys->read_word(0x20000), 0xBBCC33AAu);
}

TEST_P(MemOpsAllTopologies, AmoAddReturnsOldAndUpdates) {
  EXPECT_EQ(exec0(GetParam().name(), R"(
    li a1, 0x20040
    li a2, 10
    sw a2, 0(a1)
    li a3, 32
    amoadd.w a4, a3, (a1)   # a4 = 10
    lw a5, 0(a1)            # a5 = 42
    add a6, a4, a5          # 52
  )" + exit_with("a6")), 52u);
}

TEST_P(MemOpsAllTopologies, LrScLoop) {
  EXPECT_EQ(exec0(GetParam().name(), R"(
    li a1, 0x20080
    li a2, 5
    sw a2, 0(a1)
  retry:
    lr.w a3, (a1)
    addi a3, a3, 1
    sc.w a4, a3, (a1)
    bnez a4, retry
    lw a5, 0(a1)
  )" + exit_with("a5")), 6u);
}

TEST_P(MemOpsAllTopologies, PostedStoreThenLoadSameAddressOrdered) {
  // Single path per master/bank pair + FIFO queues: the load must observe
  // the store even though stores are posted.
  EXPECT_EQ(exec0(GetParam().name(), R"(
    li a1, 0x20100
    li a2, 1
    li a3, 0
    li a4, 100
  loop:
    add a5, a3, a2
    sw a5, 0(a1)
    lw a3, 0(a1)
    addi a4, a4, -1
    bnez a4, loop
  )" + exit_with("a3")), 100u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, MemOpsAllTopologies,
                         ::testing::Values(test::paper_fabric("TopX"),
                                           test::paper_fabric("TopH"),
                                           test::paper_fabric("Top4"),
                                           test::paper_fabric("Top1")),
                         [](const auto& tpinfo) {
                           return std::string(tpinfo.param.name());
                         });

TEST(MemOps, AtomicCounterAcrossAllCores) {
  // Every core of the 64-core mini cluster increments one counter 8 times.
  for (const char* topo : {"TopH", "Top1"}) {
    const ClusterConfig cfg = ClusterConfig::mini(topo, true);
    auto sys = test::run_text(cfg, R"(
      _start:
        li a1, 0x30000
        li a2, 8
        li a3, 1
      loop:
        amoadd.w zero, a3, (a1)
        addi a2, a2, -1
        bnez a2, loop
        li a0, 0
        ecall
    )");
    EXPECT_EQ(sys->read_word(0x30000), cfg.num_cores() * 8);
  }
}

TEST(MemOps, OutstandingLoadsBoundedByRob) {
  // With a 2-entry ROB, a burst of independent 5-cycle remote loads must
  // stall on the ROB (local 1-cycle loads retire as fast as they issue, so
  // the target is tile 5's sequential region: remote group, 5 cycles).
  ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  cfg.core.num_outstanding = 2;
  auto sys = test::run_text(cfg, test::only_core0(R"(
    li a1, 0x5000
    lw a2, 0(a1)
    lw a3, 4(a1)
    lw a4, 8(a1)
    lw a5, 12(a1)
    lw a6, 16(a1)
    li a0, 0
    ecall
  )"));
  EXPECT_GT(sys->core(0).stats().stall_rob, 0u);
}

TEST(MemOps, ScoreboardInterlocksLoadUse) {
  // A dependent use right after a remote (5-cycle) load must stall.
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  auto sys = test::run_text(cfg, test::only_core0(R"(
    li a1, 0x5000    # tile 5's sequential region: remote group
    lw a2, 0(a1)
    add a3, a2, a2   # immediate use
    li a0, 0
    ecall
  )"));
  EXPECT_GT(sys->core(0).stats().stall_raw, 0u);
}

TEST(MemOps, LocalLoadUseHasNoStall) {
  // The flip side: a local 1-cycle load is usable by the next instruction
  // without any scoreboard stall (Section III-B's single-cycle bank port).
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  auto sys = test::run_text(cfg, test::only_core0(R"(
    li a1, 0x0       # own tile's sequential region
    lw a2, 0(a1)
    add a3, a2, a2
    li a0, 0
    ecall
  )"));
  EXPECT_EQ(sys->core(0).stats().stall_raw, 0u);
}

TEST(MemOps, MisalignedAccessFaults) {
  const ClusterConfig cfg = ClusterConfig::mini("TopX", true);
  auto sys = std::make_unique<System>(cfg);
  sys->load_program(isa::assemble_text(test::only_core0(R"(
    li a1, 0x20001
    lw a2, 0(a1)
  )")));
  EXPECT_THROW(sys->run(1000), CheckError);
}

TEST(MemOps, UnmappedAddressFaults) {
  const ClusterConfig cfg = ClusterConfig::mini("TopX", true);
  auto sys = std::make_unique<System>(cfg);
  sys->load_program(isa::assemble_text(test::only_core0(R"(
    li a1, 0x40000000
    lw a2, 0(a1)
  )")));
  EXPECT_THROW(sys->run(1000), CheckError);
}

TEST(MemOps, LocalRemoteClassification) {
  // Core 0 (tile 0): its tile's sequential region is local, tile 5's remote.
  const ClusterConfig cfg = ClusterConfig::mini("TopH", true);
  auto sys = test::run_text(cfg, test::only_core0(R"(
    li a1, 0x0        # own sequential region (tile 0, scrambling on)
    lw a2, 0(a1)
    li a3, 0x5000     # tile 5's sequential region
    lw a4, 0(a3)
    li a0, 0
    ecall
  )"));
  EXPECT_EQ(sys->core(0).stats().loads_local, 1u);
  EXPECT_EQ(sys->core(0).stats().loads_remote, 1u);
}

}  // namespace
}  // namespace mempool
