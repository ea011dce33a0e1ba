#pragma once
// Shared test utilities.

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>

#include "core/client.hpp"
#include "core/system.hpp"
#include "isa/text_asm.hpp"
#include "traffic/probe.hpp"

namespace mempool::test {

/// Assemble and run a program on a fresh system; returns the system for
/// inspection. The program must halt every core within @p max_cycles.
inline std::unique_ptr<System> run_text(const ClusterConfig& cfg,
                                        const std::string& src,
                                        uint64_t max_cycles = 200000) {
  auto sys = std::make_unique<System>(cfg);
  sys->load_program(isa::assemble_text(src));
  const System::RunResult r = sys->run(max_cycles);
  MEMPOOL_CHECK_MSG(r.all_halted, "test program did not halt");
  return sys;
}

/// Guard prologue: cores other than hart 0 exit immediately with code 0.
inline std::string only_core0(const std::string& body) {
  return R"(
    _start:
      csrr t0, mhartid
      beqz t0, core0
      li t1, 0xC0000000
      sw zero, 0(t1)
    self: j self
    core0:
  )" + body;
}

/// The paper's four fabric plugins (Section III-C), in the order their
/// PaperFabric indices follow.
inline constexpr const char* kPaperFabrics[] = {"Top1", "Top4", "TopH", "TopX"};

/// gtest parameter for suites instantiated over kPaperFabrics: a one-byte
/// index rather than the name, because gtest prints a parameter's value into
/// every test ID ("... # GetParam() = 1-byte object <02>") and those IDs are
/// what test histories key on.
struct PaperFabric {
  uint8_t index;
  const char* name() const { return kPaperFabrics[index]; }
};

/// The PaperFabric naming @p name (which must be one of kPaperFabrics).
inline PaperFabric paper_fabric(std::string_view name) {
  for (uint8_t i = 0; i < std::size(kPaperFabrics); ++i) {
    if (name == kPaperFabrics[i]) return {i};
  }
  MEMPOOL_CHECK_MSG(false, "not a paper fabric: " << name);
  return {0};
}

/// The single-load probe used to measure zero-load latencies precisely —
/// the shared implementation lives in src/traffic/probe.hpp.
using mempool::ProbeClient;

}  // namespace mempool::test
