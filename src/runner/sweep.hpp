#pragma once
// SweepSpec: a cartesian grid over the experiment axes of Figs. 5-7 —
// topology, memory system, offered load λ, locality p_local, and seed —
// expanded into the flat list of serve::SimRequest points the parallel
// runner executes.
//
// Expansion order is fixed and row-major (topology ▸ memory ▸ p_local ▸ λ ▸
// seed, innermost last), so a point's flat index — and therefore the order
// of the results vector — is a pure function of the spec, independent of how
// the points are scheduled across threads.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "traffic/experiment.hpp"

namespace mempool::runner {

struct SweepSpec {
  /// Template for every point: cycle counts and the cluster parameters that
  /// are not swept. Axis values below overwrite the corresponding fields.
  TrafficExperimentConfig base;

  // Axes. An empty axis means "keep the base config's value" and contributes
  // a factor of 1 to the grid. The topology axis carries full TopologySpecs
  // ({name, params}); plugin names convert implicitly, so
  // `spec.topologies = {"Top1", TopologySpec{"TopH2", {...}}}` mixes freely.
  std::vector<TopologySpec> topologies;
  /// Memory-system axis ({name, params} specs resolved against the
  /// MemoryRegistry); empty = keep the base config's memory system.
  std::vector<MemorySpec> memories;
  std::vector<double> lambdas;
  std::vector<double> p_locals;
  std::vector<uint64_t> seeds;

  /// When true (default), a swept topology rebuilds the cluster via
  /// ClusterConfig::paper(spec, base.cluster.scrambling) — each plugin's
  /// canonical scale; when false only base.cluster.topology is swapped.
  bool paper_cluster = true;

  std::size_t num_points() const;

  /// The flat point list in canonical order as service requests — the sweep
  /// grid and the simulation server speak the same currency, so a runner
  /// batch and a server batch of the same spec share cache keys. Index
  /// layout:
  ///   i = (((t * |memories| + m) * |p_locals| + p) * |lambdas| + l)
  ///           * |seeds| + s
  /// with each factor clamped to >= 1 for empty axes.
  std::vector<serve::SimRequest> expand_requests() const;

  /// Human-readable label of point @p i ("TopH λ=0.33 p=0.25 seed=1").
  std::string point_label(std::size_t i) const;
};

}  // namespace mempool::runner
