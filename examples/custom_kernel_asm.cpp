// Writing a custom parallel kernel against the public API: a tree-free
// global dot product. Every core computes a partial dot product over its
// slice of two vectors, then atomically accumulates into a single result
// word (amoadd.w executes at the SPM bank, so no lock is needed), and the
// last core to arrive prints the result marker.
//
// Demonstrates: the textual assembler, hartid work splitting, AMOs, the
// control pseudo-peripherals, and host-side data initialization.

#include <cstdio>
#include <string>

#include "core/system.hpp"
#include "isa/text_asm.hpp"

using namespace mempool;

int main() {
  const ClusterConfig cfg = ClusterConfig::paper("TopH", true);
  System sys(cfg);

  constexpr uint32_t kN = 4096;          // vector length (16 elems per core)
  constexpr uint32_t kVecA = 0x48000;    // interleaved-heap addresses
  constexpr uint32_t kVecB = 0x4C000;
  constexpr uint32_t kResult = 0x47000;
  constexpr uint32_t kDone = 0x47010;
  const uint32_t per_core = kN / cfg.num_cores();

  const std::string program = R"(
    _start:
      csrr a0, mhartid
      li   t0, )" + std::to_string(per_core) + R"(
      mul  t1, a0, t0          # my start index
      slli t1, t1, 2
      li   a1, )" + std::to_string(kVecA) + R"(
      li   a2, )" + std::to_string(kVecB) + R"(
      add  a1, a1, t1
      add  a2, a2, t1
      li   t2, 0               # partial sum
    loop:
      lw   t3, 0(a1)
      lw   t4, 0(a2)
      mul  t5, t3, t4
      add  t2, t2, t5
      addi a1, a1, 4
      addi a2, a2, 4
      addi t0, t0, -1
      bnez t0, loop
      # accumulate into the shared result
      li   t6, )" + std::to_string(kResult) + R"(
      amoadd.w zero, t2, (t6)
      # count arrivals; the last core prints '=' to its console
      li   t6, )" + std::to_string(kDone) + R"(
      li   t5, 1
      amoadd.w t4, t5, (t6)
      li   t3, )" + std::to_string(cfg.num_cores() - 1) + R"(
      bne  t4, t3, out
      li   t6, 0xC0000004
      li   t5, 61              # '='
      sw   t5, 0(t6)
    out:
      li   t6, 0xC0000000
      sw   zero, 0(t6)
  )";

  // Host-side data: a[i] = i % 97, b[i] = 2 (keeps the sum well in range).
  uint64_t want = 0;
  for (uint32_t i = 0; i < kN; ++i) {
    const uint32_t a = i % 97, b = 2;
    sys.write_word(kVecA + 4 * i, a);
    sys.write_word(kVecB + 4 * i, b);
    want += a * b;
  }

  sys.load_program(isa::assemble_text(program));
  const auto r = sys.run(5'000'000);

  const uint32_t got = sys.read_word(kResult);
  std::printf("dot(a, b) over %u elements on %u cores: got %u, want %llu "
              "(%s), %llu cycles, console: \"%s\"\n",
              kN, cfg.num_cores(), got, static_cast<unsigned long long>(want),
              got == want ? "OK" : "MISMATCH",
              static_cast<unsigned long long>(r.cycles),
              sys.console().c_str());
  return got == want ? 0 : 1;
}
