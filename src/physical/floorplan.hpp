#pragma once
// Analytic floorplan of the MemPool cluster (Section VI): an 8×8 grid of
// 425 µm × 425 µm tile macros inside a 4.6 mm × 4.6 mm die. For the grouped
// layouts the local groups occupy a √G × √G grid of quadrant cells — the
// four TopH groups in the four quadrants (Figure 3b), TopH2's sixteen groups
// in a 4×4 grid on a double-edge die. This module is a *substitute* for the
// paper's place-and-route flow: it reproduces the geometry so the
// wiring/congestion analysis can reproduce the paper's relative claims.

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace mempool::physical {

struct Point {
  double x = 0;  ///< mm
  double y = 0;  ///< mm
};

struct FloorplanParams {
  uint32_t num_tiles = 64;
  uint32_t num_groups = 4;
  double tile_mm = 0.425;  ///< Tile macro edge (Section VI-B).
  double die_mm = 4.6;     ///< Cluster macro edge (Section VI-C).
};

class Floorplan {
 public:
  explicit Floorplan(const FloorplanParams& p = FloorplanParams{});

  const FloorplanParams& params() const { return p_; }
  uint32_t grid_dim() const { return dim_; }

  /// Tile centre for the row-major layout (Top1/Top4).
  Point tile_center(uint32_t tile) const;

  /// Tile centre for the grouped layout (TopH/TopH2): group g in grid cell
  /// (g % group_grid_dim, g / group_grid_dim), tiles row-major inside the
  /// cell. Requires num_groups = 4^j (a square grid of quadrant cells).
  Point tile_center_grouped(uint32_t tile) const;

  Point die_center() const { return {p_.die_mm / 2, p_.die_mm / 2}; }

  /// Centre of group @p g's grid cell.
  Point group_center(uint32_t g) const;

  /// Groups per grid edge in the grouped layout (TopH: 2, TopH2: 4).
  uint32_t group_grid_dim() const;

  /// Fraction of the die covered by tile macros (paper: 55 %).
  double tile_area_fraction() const;

 private:
  FloorplanParams p_;
  uint32_t dim_;        ///< Tiles per grid edge.
  double pitch_;        ///< Tile placement pitch, mm.
};

}  // namespace mempool::physical
