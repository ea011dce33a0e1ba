// Visualization of the hybrid addressing scheme (Section IV, Figure 4):
// shows where consecutive CPU addresses land (tile, bank, row) with the
// scrambling logic off (fully interleaved) and on (per-tile sequential
// regions + interleaved remainder), and verifies the bijection.

#include <cstdio>
#include <set>

#include "core/cluster_config.hpp"
#include "core/layout.hpp"

using namespace mempool;

namespace {

void show_walk(const MemoryLayout& layout, uint32_t base, uint32_t words,
               const char* title) {
  std::printf("\n%s (walking %u words from 0x%05X):\n  ", title, words, base);
  for (uint32_t i = 0; i < words; ++i) {
    const BankLocation loc = layout.locate(base + 4 * i);
    std::printf("T%02u.B%02u ", loc.tile, loc.bank);
    if (i % 8 == 7) std::printf("\n  ");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const ClusterConfig off_cfg = ClusterConfig::paper("TopH", false);
  const ClusterConfig on_cfg = ClusterConfig::paper("TopH", true);
  const MemoryLayout off(off_cfg), on(on_cfg);

  std::printf("MemPool hybrid addressing scheme demo\n");
  std::printf("cluster: %u tiles x %u banks, %u KiB sequential region/tile\n",
              on_cfg.num_tiles, on_cfg.banks_per_tile,
              on_cfg.seq_region_bytes / 1024);

  // 1. The interleaved map: word-consecutive addresses sweep the banks of
  //    tile 0, then tile 1, ...
  show_walk(off, 0, 24, "scrambling OFF — fully interleaved map");

  // 2. The hybrid map: the same addresses stay inside tile 0 (its sequential
  //    region), still interleaving across tile 0's banks.
  show_walk(on, 0, 24, "scrambling ON — tile 0's sequential region");

  // 3. Tile 7's sequential region.
  show_walk(on, 7 * on_cfg.seq_region_bytes, 16,
            "scrambling ON — tile 7's sequential region");

  // 4. Above the sequential window both maps agree (interleaved).
  const uint32_t heap = on.interleaved_base();
  show_walk(on, heap, 16, "scrambling ON — interleaved heap (same as OFF)");

  // 5. Bijection check over the whole SPM.
  std::set<uint32_t> seen;
  bool ok = true;
  for (uint32_t a = 0; a < on_cfg.spm_bytes(); a += 4) {
    ok &= seen.insert(on.scrambler().scramble(a)).second;
  }
  std::printf("\nbijection over the full 1 MiB SPM: %s (no aliasing — every "
              "CPU word maps to exactly one physical word)\n",
              ok ? "OK" : "VIOLATED");

  std::printf("\nWhy it matters: a core's stack lives in its own tile's "
              "region -> 1-cycle accesses and half the energy of remote "
              "accesses (Sections IV, VI-D).\n");
  return ok ? 0 : 1;
}
