// Instruction-semantics tests: small assembly programs run on a mini TopX
// cluster; core 0 computes a value and exits with it.

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace mempool {
namespace {

uint32_t exec0(const std::string& body) {
  const ClusterConfig cfg = ClusterConfig::mini("TopX", true);
  auto sys = test::run_text(cfg, test::only_core0(body));
  return sys->core(0).exit_code();
}

std::string exit_with(const std::string& reg) {
  return "li t6, 0xC0000000\n sw " + reg + ", 0(t6)\n";
}

TEST(Exec, ArithmeticBasics) {
  EXPECT_EQ(exec0(R"(
    li a1, 20
    li a2, 22
    add a3, a1, a2
  )" + exit_with("a3")), 42u);
  EXPECT_EQ(exec0(R"(
    li a1, 20
    li a2, 22
    sub a3, a1, a2
  )" + exit_with("a3")), static_cast<uint32_t>(-2));
}

TEST(Exec, LogicOps) {
  EXPECT_EQ(exec0(R"(
    li a1, 0xF0
    li a2, 0xFF
    xor a3, a1, a2
    and a4, a3, a2
    or  a5, a4, a1
  )" + exit_with("a5")), 0xFFu);
}

TEST(Exec, ShiftSemantics) {
  EXPECT_EQ(exec0(R"(
    li a1, 1
    slli a2, a1, 31
    srli a3, a2, 31
  )" + exit_with("a3")), 1u);
  // srai preserves the sign.
  EXPECT_EQ(exec0(R"(
    li a1, -8
    srai a2, a1, 2
  )" + exit_with("a2")), static_cast<uint32_t>(-2));
  // Register shifts use only the low 5 bits.
  EXPECT_EQ(exec0(R"(
    li a1, 1
    li a2, 33
    sll a3, a1, a2
  )" + exit_with("a3")), 2u);
}

TEST(Exec, SetLessThan) {
  EXPECT_EQ(exec0(R"(
    li a1, -1
    li a2, 1
    slt a3, a1, a2      # signed: -1 < 1 -> 1
    sltu a4, a1, a2     # unsigned: 0xFFFFFFFF < 1 -> 0
    slli a3, a3, 1
    or a3, a3, a4
  )" + exit_with("a3")), 2u);
  EXPECT_EQ(exec0(R"(
    li a1, 5
    slti a2, a1, 6
    sltiu a3, a1, 5
    slli a2, a2, 1
    or a2, a2, a3
  )" + exit_with("a2")), 2u);
}

TEST(Exec, LuiAuipc) {
  EXPECT_EQ(exec0("lui a1, 0x12345\n" + exit_with("a1")), 0x12345000u);
  // auipc at a known pc: the guarded prologue is 5 instructions, so the
  // auipc sits at 0x80000014 + body offset; verify pc-relative by
  // subtracting a second auipc.
  EXPECT_EQ(exec0(R"(
    auipc a1, 0
    auipc a2, 0
    sub a3, a2, a1
  )" + exit_with("a3")), 4u);
}

TEST(Exec, BranchesTakenAndNot) {
  EXPECT_EQ(exec0(R"(
    li a1, 1
    li a2, 2
    li a3, 0
    blt a1, a2, L1
    li a3, 111
  L1:
    bge a1, a2, L2
    addi a3, a3, 5
  L2:
    bltu a2, a1, L3
    addi a3, a3, 7
  L3:
    bgeu a2, a1, L4
    li a3, 999
  L4:
  )" + exit_with("a3")), 12u);
}

TEST(Exec, JalLinksReturnAddress) {
  EXPECT_EQ(exec0(R"(
    jal a1, F
  back:
    j done
  F:
    auipc a2, 0       # a2 = &F
    sub a3, a2, a1    # distance F - back... a1 = return = back
    jalr zero, a1, 0
  done:
  )" + exit_with("a3")), 4u);
}

TEST(Exec, MulVariants) {
  EXPECT_EQ(exec0(R"(
    li a1, -3
    li a2, 7
    mul a3, a1, a2
  )" + exit_with("a3")), static_cast<uint32_t>(-21));
  // mulh: high word of signed product.
  EXPECT_EQ(exec0(R"(
    li a1, 0x40000000
    li a2, 4
    mulh a3, a1, a2
  )" + exit_with("a3")), 1u);
  // mulhu: high word of unsigned product of 0xFFFFFFFF * 0xFFFFFFFF.
  EXPECT_EQ(exec0(R"(
    li a1, -1
    li a2, -1
    mulhu a3, a1, a2
  )" + exit_with("a3")), 0xFFFFFFFEu);
  // mulhsu: signed × unsigned.
  EXPECT_EQ(exec0(R"(
    li a1, -1
    li a2, 2
    mulhsu a3, a1, a2
  )" + exit_with("a3")), 0xFFFFFFFFu);
}

TEST(Exec, DivRemEdgeCases) {
  // Division by zero: quotient all-ones, remainder = dividend.
  EXPECT_EQ(exec0(R"(
    li a1, 17
    li a2, 0
    div a3, a1, a2
  )" + exit_with("a3")), 0xFFFFFFFFu);
  EXPECT_EQ(exec0(R"(
    li a1, 17
    li a2, 0
    rem a3, a1, a2
  )" + exit_with("a3")), 17u);
  // Overflow: INT_MIN / -1 = INT_MIN, rem = 0.
  EXPECT_EQ(exec0(R"(
    li a1, 0x80000000
    li a2, -1
    div a3, a1, a2
  )" + exit_with("a3")), 0x80000000u);
  EXPECT_EQ(exec0(R"(
    li a1, 0x80000000
    li a2, -1
    rem a3, a1, a2
  )" + exit_with("a3")), 0u);
  EXPECT_EQ(exec0(R"(
    li a1, -7
    li a2, 2
    div a3, a1, a2
  )" + exit_with("a3")), static_cast<uint32_t>(-3));
  EXPECT_EQ(exec0(R"(
    li a1, -7
    li a2, 2
    rem a3, a1, a2
  )" + exit_with("a3")), static_cast<uint32_t>(-1));
  EXPECT_EQ(exec0(R"(
    li a1, -7
    li a2, 2
    divu a3, a1, a2
  )" + exit_with("a3")), 0x7FFFFFFCu);
}

TEST(Exec, CsrReads) {
  EXPECT_EQ(exec0("csrr a1, mhartid\n" + exit_with("a1")), 0u);
  const ClusterConfig cfg = ClusterConfig::mini("TopX", true);
  auto sys = test::run_text(cfg, test::only_core0(
      "csrr a1, numcores\n" + exit_with("a1")));
  EXPECT_EQ(sys->core(0).exit_code(), cfg.num_cores());
}

TEST(Exec, McycleIsMonotonic) {
  EXPECT_EQ(exec0(R"(
    csrr a1, mcycle
    nop
    nop
    csrr a2, mcycle
    sltu a3, a1, a2
  )" + exit_with("a3")), 1u);
}

TEST(Exec, MinstretCounts) {
  // minstret counts retired instructions: between the two reads there are
  // exactly 3 (the first csrr and two nops).
  EXPECT_EQ(exec0(R"(
    csrr a1, minstret
    nop
    nop
    csrr a2, minstret
    sub a3, a2, a1
  )" + exit_with("a3")), 3u);
}

TEST(Exec, MscratchReadWrite) {
  EXPECT_EQ(exec0(R"(
    li a1, 0x5A5A
    csrw mscratch, a1
    csrr a2, mscratch
  )" + exit_with("a2")), 0x5A5Au);
}

TEST(Exec, EcallHaltsWithA0) {
  const ClusterConfig cfg = ClusterConfig::mini("TopX", true);
  auto sys = test::run_text(cfg, R"(
    _start:
      csrr a0, mhartid
      addi a0, a0, 100
      ecall
  )");
  for (uint32_t c = 0; c < cfg.num_cores(); ++c) {
    EXPECT_EQ(sys->core(c).exit_code(), c + 100);
  }
}

TEST(Exec, ConsolePutchar) {
  const ClusterConfig cfg = ClusterConfig::mini("TopX", true);
  auto sys = test::run_text(cfg, test::only_core0(R"(
    li t0, 0xC0000004
    li t1, 72      # 'H'
    sw t1, 0(t0)
    li t1, 105     # 'i'
    sw t1, 0(t0)
    li a0, 0
    ecall
  )"));
  EXPECT_EQ(sys->core(0).console(), "Hi");
}

TEST(Exec, ZeroRegisterIsImmutable) {
  EXPECT_EQ(exec0(R"(
    li a1, 5
    add zero, a1, a1
    mv a2, zero
  )" + exit_with("a2")), 0u);
}

}  // namespace
}  // namespace mempool
